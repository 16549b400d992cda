(* Genome-scripted Byzantine adversaries as pure state machines.

   The interpreter for a genome (see Byz_script for the gene layout) is
   the Byz_core responder with a gene-driven policy: its step settles the
   two posture registers (once each), its reply spends one gene per
   answer. The bookkeeping (postures settled, replies sent) is threaded
   functionally. Byz_script spawns these programs on the simulator; the
   domains backend (Lnd_parallel) runs the same genomes with real
   preemption, so a scripted adversary misbehaves identically — access
   for access — on both backends. *)

open Lnd_support
open Machine

(* Total decoding: gene [i] of the (cycling) genome, reduced mod 3.
   0 = silent/deny, 1 = claim the scripted value, 2 = honest. *)
let[@lnd.pure] gene (genome : int array) i : int =
  let len = Array.length genome in
  if len = 0 then 0 else abs genome.(i mod len) mod 3

type script = { replies : int; announced : bool; witnessed : bool }

(* [announce g] / [witness g] act on the posture register for gene [g]
   and say whether it is settled; [answer g ck] is the payload of the
   reply spending gene [g]. Once both postures are settled the step hands
   its state back untouched, so a long run allocates nothing for it. *)
let[@lnd.pure] interpret layout ~n ~pid ~(genome : int array)
    ~(announce : int -> ('reg, bool) prog) ~(witness : int -> ('reg, bool) prog)
    ~(answer : int -> int -> ('reg, Univ.t) prog) : ('reg, unit) prog =
  let step s =
    if s.announced && s.witnessed then ret s
    else
      let* announced =
        if s.announced then ret true else announce (gene genome 0)
      in
      let* witnessed =
        if s.witnessed then ret true else witness (gene genome 1)
      in
      ret { s with announced; witnessed }
  in
  let reply s ~asker:_ ~ck =
    let* payload = answer (gene genome (2 + s.replies)) ck in
    ret ({ s with replies = s.replies + 1 }, payload)
  in
  Byz_core.responder layout ~n ~pid ~step ~reply
    { replies = 0; announced = false; witnessed = false }

(* ---------------- Sticky register (Algorithm 2) ---------------- *)

let[@lnd.pure] sticky_prog ~n ~pid ~(genome : int array) ~(value : Value.t) :
    (Lnd_sticky.Sticky_core.reg, unit) prog =
  let open Lnd_sticky.Sticky_core in
  (* posture on an owned register: claim [value], copy the writer's echo
     once it appears (honest), or stay silent for good *)
  let posture reg g =
    match g with
    | 1 ->
        let* () = write reg (enc_vopt (Some value)) in
        ret true
    | 2 -> (
        let* u = read (E 0) in
        match dec_vopt u with
        | Some _ as e1 ->
            let* () = write reg (enc_vopt e1) in
            ret true
        | None -> ret false)
    | _ -> ret true
  in
  let answer g ck =
    match g with
    | 1 -> ret (enc_stamped (Some value) ck)
    | 2 ->
        let* u = read (R pid) in
        ret (enc_stamped (dec_vopt u) ck)
    | _ -> ret (enc_stamped None ck)
  in
  interpret Byz_core.sticky ~n ~pid ~genome ~announce:(posture (E pid))
    ~witness:(posture (R pid)) ~answer

(* ---------------- Verifiable register (Algorithm 1) ---------------- *)

let[@lnd.pure] verifiable_prog ~n ~pid ~(genome : int array) ~(value : Value.t)
    : (Lnd_verifiable.Verifiable_core.reg, unit) prog =
  let open Lnd_verifiable.Verifiable_core in
  (* posture on R*: only its owner (the writer) can act, and only by
     claiming [value] *)
  let announce g =
    if pid = 0 && g = 1 then
      let* () = write Rstar (enc_value value) in
      ret true
    else ret true
  in
  let witness g =
    match g with
    | 1 ->
        let* () = write (R pid) (enc_vset (Value.Set.singleton value)) in
        ret true
    | 2 ->
        let* u = read (R 0) in
        let s = dec_vset u in
        if not (Value.Set.is_empty s) then
          let* () = write (R pid) (enc_vset s) in
          ret true
        else ret false
    | _ -> ret true
  in
  let answer g ck =
    match g with
    | 1 -> ret (enc_stamped (Value.Set.singleton value) ck)
    | 2 ->
        let* u = read (R pid) in
        ret (enc_stamped (dec_vset u) ck)
    | _ -> ret (enc_stamped Value.Set.empty ck)
  in
  interpret Byz_core.verifiable ~n ~pid ~genome ~announce ~witness ~answer
