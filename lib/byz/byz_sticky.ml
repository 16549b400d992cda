(* Byzantine strategies against the sticky register (Algorithm 2).

   Each strategy is a Byz_core responder policy — a pure program that
   writes only registers its pid owns — run on the simulator as a daemon
   fiber. *)

open Lnd_support
open Lnd_runtime
open Lnd_sticky.Sticky
open Lnd_sticky.Sticky_core
open Machine

let[@lnd.pure] responder ~n = Byz_core.responder Byz_core.sticky ~n

(* A policy with no state of its own: the same claim every round. *)
let[@lnd.pure] stateless ~n ~pid ?start claim =
  responder ~n ~pid ?start () ~reply:(fun () ~asker ~ck ->
      ret ((), enc_stamped (claim ~asker) ck))

let[@lnd.pure] claim_both pid v =
  let* () = write (E pid) (enc_vopt v) in
  write (R pid) (enc_vopt v)

(* Round counting for the writers that change posture once: the state
   is the number of rounds begun, and [act] runs on round [at]. *)
let[@lnd.pure] on_round ~at act rounds =
  let rounds = rounds + 1 in
  if rounds = at then
    let* () = act in
    ret rounds
  else ret rounds

let spawn sched (regs : regs) ~pid ~name prog : Sched.fiber =
  Sched.spawn sched ~pid ~name ~daemon:true (fun () ->
      Drive.run ~cell:(cell_of regs) (prog ~n:regs.cfg.n))

(* The equivocating Byzantine WRITER: writes [va] into its echo register,
   waits a few of its own rounds, then overwrites it with [vb], claiming
   both values to different askers. Uniqueness (Observation 18) must
   survive: correct readers never return two different non-⊥ values. *)
let[@lnd.pure] equivocating_writer ~va ~vb ~flip_after ~n =
  responder ~n ~pid:0
    ~start:(claim_both 0 (Some va))
    ~step:(on_round ~at:flip_after (claim_both 0 (Some vb)))
    0
    ~reply:(fun rounds ~asker ~ck ->
      ret (rounds, enc_stamped (Some (if asker mod 2 = 0 then va else vb)) ck))

let spawn_equivocating_writer sched regs ~va ~vb ?(flip_after = 3) () =
  spawn sched regs ~pid:0 ~name:"byz-equivocating-writer"
    (equivocating_writer ~va ~vb ~flip_after)

(* A writer that writes, lets the system settle, then erases its echo
   register and pretends it never wrote ("deny"). Stickiness must keep the
   value alive among the correct processes. *)
let[@lnd.pure] denying_writer ~v ~deny_after ~n =
  let at = max 1 deny_after in
  responder ~n ~pid:0
    ~start:(claim_both 0 (Some v))
    ~step:(on_round ~at (claim_both 0 None))
    0
    ~reply:(fun rounds ~asker:_ ~ck ->
      ret (rounds, enc_stamped (if rounds >= at then None else Some v) ck))

let spawn_denying_writer sched regs ~v ?(deny_after = 4) () =
  spawn sched regs ~pid:0 ~name:"byz-denying-writer"
    (denying_writer ~v ~deny_after)

(* A colluder that claims to witness [v] nobody echoed. *)
let spawn_false_witness sched regs ~pid ~v =
  spawn sched regs ~pid
    ~name:(Printf.sprintf "byz-falsewitness%d" pid)
    (stateless ~pid ~start:(claim_both pid (Some v)) (fun ~asker:_ -> Some v))

(* A colluder that answers ⊥ forever, instantly (pressures readers toward
   returning ⊥). *)
let spawn_naysayer sched regs ~pid =
  spawn sched regs ~pid
    ~name:(Printf.sprintf "byz-naysayer%d" pid)
    (stateless ~pid (fun ~asker:_ -> None))

(* A colluder whose claim flips on every reply. *)
let[@lnd.pure] flipflop ~pid ~v ~n =
  responder ~n ~pid 0 ~reply:(fun count ~asker:_ ~ck ->
      let count = count + 1 in
      ret (count, enc_stamped (if count mod 2 = 0 then Some v else None) ck))

let spawn_flipflop sched regs ~pid ~v =
  spawn sched regs ~pid
    ~name:(Printf.sprintf "byz-flipflop%d" pid)
    (flipflop ~pid ~v)

(* Ill-typed garbage everywhere it owns; replies alternate between
   garbage and a well-typed ⊥ carrying the fresh stamp. *)
let[@lnd.pure] garbage ~pid ~n =
  let junk = Univ.inj Univ.garbage "junk" in
  responder ~n ~pid
    ~start:
      (let* () = write (E pid) junk in
       write (R pid) junk)
    ()
    ~reply:(fun () ~asker:_ ~ck ->
      ret ((), if ck mod 2 = 0 then junk else enc_stamped None ck))

let spawn_garbage sched regs ~pid =
  spawn sched regs ~pid ~name:(Printf.sprintf "byz-garbage%d" pid) (garbage ~pid)

(* A colluder that replays its FIRST observation of the writer's echo
   register forever, with fresh timestamps — stale evidence against the
   freshness handshake. *)
let[@lnd.pure] stale_replayer ~pid ~n =
  responder ~n ~pid None ~reply:(fun frozen ~asker:_ ~ck ->
      let* u =
        match frozen with
        | Some u -> ret u
        | None ->
            let* e0 = read (E 0) in
            ret (dec_vopt e0)
      in
      ret (Some u, enc_stamped u ck))

let spawn_stale_replayer sched regs ~pid =
  spawn sched regs ~pid ~name:(Printf.sprintf "byz-stale%d" pid)
    (stale_replayer ~pid)
