(* Byzantine strategies against the verifiable register (Algorithm 1).

   Each strategy is a Byz_core responder policy — a pure program that
   writes only registers its pid owns ([Lnd_shm.Space] enforces exactly
   the model's restriction, so these adversaries have precisely the power
   the paper grants Byzantine processes) — run on the simulator as a
   daemon fiber. *)

open Lnd_support
open Lnd_runtime
open Lnd_verifiable.Verifiable
open Lnd_verifiable.Verifiable_core
open Machine
module VSet = Value.Set

let[@lnd.pure] responder ~n = Byz_core.responder Byz_core.verifiable ~n

(* A policy with no state of its own: the same claim every round. *)
let[@lnd.pure] stateless ~n ~pid ?serves ?start ?step claim =
  responder ~n ~pid ?serves ?start ?step () ~reply:(fun () ~asker ~ck ->
      ret ((), enc_stamped (claim ~asker) ck))

let spawn sched (regs : regs) ~pid ~name prog : Sched.fiber =
  Sched.spawn sched ~pid ~name ~daemon:true (fun () ->
      Drive.run ~cell:(cell_of regs) (prog ~n:regs.cfg.n))

(* A colluder that flips its vote about [v] on every reply: the §5.1
   scenario meant to trap a reader between f < |yes| < 2f+1. *)
let[@lnd.pure] flipflop ~pid ~v ~n =
  responder ~n ~pid 0 ~reply:(fun count ~asker:_ ~ck ->
      let count = count + 1 in
      ret
        ( count,
          enc_stamped
            (if count mod 2 = 0 then VSet.singleton v else VSet.empty)
            ck ))

let spawn_flipflop sched regs ~pid ~v =
  spawn sched regs ~pid
    ~name:(Printf.sprintf "byz-flipflop%d" pid)
    (flipflop ~pid ~v)

(* A colluder that claims to witness [v] (which the correct writer never
   signed) to every asker, and advertises it in its witness register:
   the unforgeability attack. *)
let spawn_false_witness sched regs ~pid ~v =
  spawn sched regs ~pid
    ~name:(Printf.sprintf "byz-falsewitness%d" pid)
    (stateless ~pid
       ~start:(write (R pid) (enc_vset (VSet.singleton v)))
       (fun ~asker:_ -> VSet.singleton v))

(* A process that always answers "no witness of anything", instantly. *)
let spawn_naysayer sched regs ~pid =
  spawn sched regs ~pid
    ~name:(Printf.sprintf "byz-naysayer%d" pid)
    (stateless ~pid (fun ~asker:_ -> VSet.empty))

(* A process that writes ill-typed garbage everywhere it owns, then keeps
   answering askers, alternating between a garbage payload and a
   well-typed empty set carrying the fresh stamp. *)
let[@lnd.pure] garbage ~pid ~n =
  let junk = Univ.inj Univ.garbage "junk" in
  responder ~n ~pid
    ~start:
      (let* () = write (R pid) junk in
       if pid >= 1 then write (C pid) junk else ret ())
    ()
    ~reply:(fun () ~asker:_ ~ck ->
      ret ((), if ck mod 2 = 0 then junk else enc_stamped VSet.empty ck))

let spawn_garbage sched regs ~pid =
  spawn sched regs ~pid ~name:(Printf.sprintf "byz-garbage%d" pid) (garbage ~pid)

(* The "lie but then try to deny" Byzantine WRITER: it writes and "signs"
   [v] like a correct writer, answers askers affirmatively until
   [deny_after] replies have been sent, then erases all its registers
   (resets R*, R_0 and its mailboxes) and denies ever having signed v.
   The paper's point: once one correct reader verified v, denial must not
   flip any later VERIFY back to false. The state is (replies, denied). *)
let[@lnd.pure] denying_writer ~v ~deny_after ~n =
  let rec erase k =
    if k >= n then ret ()
    else
      let* () = write (Rjk (0, k)) (enc_stamped VSet.empty 0) in
      erase (k + 1)
  in
  let deny ((replies, denied) as s) =
    if (not denied) && replies >= deny_after then
      let* () = write Rstar (enc_value Value.v0) in
      let* () = write (R 0) (enc_vset VSet.empty) in
      let* () = erase 1 in
      ret (replies, true)
    else ret s
  in
  responder ~n ~pid:0
    ~start:
      (let* () = write Rstar (enc_value v) in
       write (R 0) (enc_vset (VSet.singleton v)))
    ~step:deny (0, false)
    ~reply:(fun (replies, denied) ~asker:_ ~ck ->
      ret
        ( (replies + 1, denied),
          enc_stamped (if denied then VSet.empty else VSet.singleton v) ck ))

let spawn_denying_writer sched regs ~v ?(deny_after = 2) () =
  spawn sched regs ~pid:0 ~name:"byz-denying-writer"
    (denying_writer ~v ~deny_after)

(* A Byzantine writer that "signs" a value it never wrote to R*: it puts
   [v] straight into its witness register. Readers may verify v; Byzantine
   linearizability still holds because a history in which the writer did
   WRITE(v);SIGN(v) explains every correct observation. *)
let spawn_sign_without_write sched regs ~v =
  spawn sched regs ~pid:0 ~name:"byz-sign-no-write"
    (stateless ~pid:0
       ~start:(write (R 0) (enc_vset (VSet.singleton v)))
       (fun ~asker:_ -> VSet.singleton v))

(* A writer colluding with vote-flippers: equivocates between two values,
   claiming to different askers that different values are signed, and
   rewrites R_0 back and forth every round. *)
let[@lnd.pure] equivocating_writer ~va ~vb ~n =
  let flip () =
    let* u = read (R 0) in
    let next = if VSet.mem va (dec_vset u) then vb else va in
    write (R 0) (enc_vset (VSet.singleton next))
  in
  stateless ~n ~pid:0
    ~start:(write (R 0) (enc_vset (VSet.singleton va)))
    ~step:flip
    (fun ~asker -> VSet.singleton (if asker mod 2 = 0 then va else vb))

let spawn_equivocating_writer sched regs ~va ~vb =
  spawn sched regs ~pid:0 ~name:"byz-equivocating-writer"
    (equivocating_writer ~va ~vb)

(* A colluder that replays STALE witness information with fresh
   timestamps: it answers every asker with the witness set it saw at its
   first reply, forever — probing whether old evidence with new stamps
   can confuse the round protocol. *)
let[@lnd.pure] stale_replayer ~pid ~n =
  responder ~n ~pid None ~reply:(fun frozen ~asker:_ ~ck ->
      let* s =
        match frozen with
        | Some s -> ret s
        | None ->
            let* r0 = read (R 0) in
            ret (dec_vset r0)
      in
      ret (Some s, enc_stamped s ck))

let spawn_stale_replayer sched regs ~pid =
  spawn sched regs ~pid ~name:(Printf.sprintf "byz-stale%d" pid)
    (stale_replayer ~pid)

(* A colluder that answers only even-numbered askers and starves the
   rest (it never even reads their counters) — a targeted-starvation
   attempt. Verify must still terminate for everyone via the correct
   helpers. *)
let spawn_selective sched regs ~pid ~v =
  spawn sched regs ~pid
    ~name:(Printf.sprintf "byz-selective%d" pid)
    (stateless ~pid
       ~serves:(fun k -> k mod 2 = 0)
       (fun ~asker:_ -> VSet.singleton v))
