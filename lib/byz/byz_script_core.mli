(** Genome-scripted Byzantine adversaries as pure state machines.

    The genome interpreter (see {!Byz_script} for the gene layout) as
    policies over the {!Byz_core} responder, on the sticky / verifiable
    register names. {!Byz_script} spawns these on the simulator for the
    register facades; [Lnd_parallel.Diff.plan] puts the same genomes in
    the one plan both drivers run, so a scripted adversary misbehaves
    identically — access for access — on both backends. *)

open Lnd_support

val gene : int array -> int -> int
(** Total decoding: gene [i] of the (cycling) genome, reduced mod 3.
    0 = silent/deny, 1 = claim the scripted value, 2 = honest. *)

val sticky_prog :
  n:int -> pid:int -> genome:int array -> value:Value.t ->
  (Lnd_sticky.Sticky_core.reg, unit) Machine.prog
(** The scripted responder against the sticky layout; never returns. *)

val verifiable_prog :
  n:int -> pid:int -> genome:int array -> value:Value.t ->
  (Lnd_verifiable.Verifiable_core.reg, unit) Machine.prog
(** The scripted responder against the verifiable layout; never
    returns. *)
