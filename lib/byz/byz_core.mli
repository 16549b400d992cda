(** The one shape every Byzantine responder has, as a pure program.

    In the model a Byzantine process may do anything except write a
    register it does not own (§1.2). Every adversary in [Lnd_byz] —
    the named strategies of {!Byz_sticky}/{!Byz_verifiable} and the
    genome interpreters of {!Byz_script_core} — is this skeleton plus a
    policy: each round it runs [step] on the process's own registers,
    then answers every asker whose round counter C_k moved through
    R_pid,k, and yields when nobody was answered. Being a
    {!Lnd_support.Machine.prog}, it runs on either driver. *)

open Lnd_support

type 'reg layout = {
  counter : int -> 'reg;  (** [C_k], asker k's round counter *)
  mailbox : int -> int -> 'reg;  (** [R_{j,k}], owner j, reader k *)
}

val sticky : Lnd_sticky.Sticky_core.reg layout
val verifiable : Lnd_verifiable.Verifiable_core.reg layout

val responder :
  'reg layout ->
  n:int ->
  pid:int ->
  ?serves:(int -> bool) ->
  ?start:('reg, unit) Machine.prog ->
  ?step:('s -> ('reg, 's) Machine.prog) ->
  reply:('s -> asker:int -> ck:int -> ('reg, 's * Univ.t) Machine.prog) ->
  's ->
  ('reg, unit) Machine.prog
(** Never returns. [start] (default: nothing) runs once, first. Each
    round then runs [step] (default: none) and polls the askers
    [1 .. n-1] other than [pid] and satisfying [serves] (default: all)
    in ascending order; an asker whose counter [ck] exceeds the last one
    answered gets [reply]'s payload written to [R_{pid,k}] verbatim.
    [step] and [reply] thread the policy's state ['s]. *)
