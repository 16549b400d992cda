(* Scenario fuzzer: generate a random Byzantine scenario from a seed, run
   it to quiescence, and check every paper property that applies —
   the observational monitors (relay / uniqueness / validity /
   unforgeability) plus full Byzantine linearizability when the history is
   small enough for the exhaustive checker.

   One seed = one fully deterministic scenario (size, adversary strategy,
   reader programs, schedule), so any failure is replayable from its seed
   alone. Used by the test suite and by `lnd_cli fuzz`. *)

open Lnd_support
module Sched = Lnd_runtime.Sched
module Policy = Lnd_runtime.Policy
module History = Lnd_history.History
module Verdict = Lnd_history.Verdict
module Diff = Lnd_parallel.Diff

type target = Verifiable | Sticky

type adversary =
  | No_adversary
  | Crash (* Byzantine processes take no steps *)
  | Denying_writer
  | Equivocating_writer
  | Sign_without_write (* verifiable only *)
  | False_witnesses
  | Naysayers
  | Flipfloppers
  | Garbage
  | Stale_replayers
  | Selective (* verifiable only *)

let adversary_name = function
  | No_adversary -> "none"
  | Crash -> "crash"
  | Denying_writer -> "denying-writer"
  | Equivocating_writer -> "equivocating-writer"
  | Sign_without_write -> "sign-without-write"
  | False_witnesses -> "false-witnesses"
  | Naysayers -> "naysayers"
  | Flipfloppers -> "flipfloppers"
  | Garbage -> "garbage"
  | Stale_replayers -> "stale-replayers"
  | Selective -> "selective"

type scenario = {
  seed : int;
  target : target;
  n : int;
  f : int;
  adversary : adversary;
  reader_ops : int; (* operations per correct reader *)
  writer_values : int; (* values the correct writer writes/signs *)
}

let pp_scenario fmt s =
  Format.fprintf fmt "seed=%d %s n=%d f=%d adversary=%s reader_ops=%d" s.seed
    (match s.target with Verifiable -> "verifiable" | Sticky -> "sticky")
    s.n s.f (adversary_name s.adversary) s.reader_ops

(* Derive a scenario deterministically from a seed. *)
let generate (seed : int) : scenario =
  let rng = Rng.create (seed * 7919) in
  let target = if Rng.bool rng then Verifiable else Sticky in
  let f = 1 + Rng.int rng 2 in
  let n = (3 * f) + 1 + Rng.int rng 2 in
  let adversary =
    let all =
      match target with
      | Verifiable ->
          [
            No_adversary; Crash; Denying_writer; Equivocating_writer;
            Sign_without_write; False_witnesses; Naysayers; Flipfloppers;
            Garbage; Stale_replayers; Selective;
          ]
      | Sticky ->
          [
            No_adversary; Crash; Denying_writer; Equivocating_writer;
            False_witnesses; Naysayers; Flipfloppers; Garbage;
            Stale_replayers;
          ]
    in
    Rng.pick rng all
  in
  {
    seed;
    target;
    n;
    f;
    adversary;
    reader_ops = 1 + Rng.int rng 2;
    writer_values = 1 + Rng.int rng 2;
  }

type report = {
  scenario : scenario;
  steps : int;
  operations : int;
  checked_linearizability : bool;
}

type outcome = (report, string) result

(* Which pids are Byzantine for this scenario. *)
let byzantine_pids (s : scenario) : int list =
  match s.adversary with
  | No_adversary -> []
  | Denying_writer | Equivocating_writer | Sign_without_write -> [ 0 ]
  | Crash | False_witnesses | Naysayers | Flipfloppers | Garbage
  | Stale_replayers | Selective ->
      List.init s.f (fun i -> s.n - 1 - i)

(* Run to quiescence and judge the history; [Monitors_only] (too large
   for the exhaustive search) reports linearizability as unchecked. *)
let conclude (s : scenario) sched ~correct history verdict : outcome =
  Diff.settle ~correct sched (fun () ->
      Result.map
        (fun v ->
          {
            scenario = s;
            steps = Sched.steps sched;
            operations = List.length (History.complete_entries history);
            checked_linearizability = v = Verdict.Linearizable;
          })
        (verdict ~correct:(fun pid -> correct.(pid)) history))

let run_verifiable (s : scenario) (rng : Rng.t) : outcome =
  let module Sys = Lnd_verifiable.System in
  let module Byz = Lnd_byz.Byz_verifiable in
  let byz = byzantine_pids s in
  let t =
    Sys.make ~policy:(Policy.random ~seed:(s.seed + 1)) ~n:s.n ~f:s.f
      ~byzantine:byz ()
  in
  (* adversary *)
  (match s.adversary with
  | No_adversary | Crash -> ()
  | Denying_writer ->
      ignore (Byz.spawn_denying_writer t.sched t.regs ~v:"a" ~deny_after:2 ())
  | Equivocating_writer ->
      ignore (Byz.spawn_equivocating_writer t.sched t.regs ~va:"a" ~vb:"b")
  | Sign_without_write ->
      ignore (Byz.spawn_sign_without_write t.sched t.regs ~v:"a")
  | False_witnesses ->
      List.iter
        (fun pid -> ignore (Byz.spawn_false_witness t.sched t.regs ~pid ~v:"x"))
        byz
  | Naysayers ->
      List.iter
        (fun pid -> ignore (Byz.spawn_naysayer t.sched t.regs ~pid))
        byz
  | Flipfloppers ->
      List.iter
        (fun pid -> ignore (Byz.spawn_flipflop t.sched t.regs ~pid ~v:"a"))
        byz
  | Garbage ->
      List.iter
        (fun pid -> ignore (Byz.spawn_garbage t.sched t.regs ~pid))
        byz
  | Stale_replayers ->
      List.iter
        (fun pid -> ignore (Byz.spawn_stale_replayer t.sched t.regs ~pid))
        byz
  | Selective ->
      List.iter
        (fun pid -> ignore (Byz.spawn_selective t.sched t.regs ~pid ~v:"a"))
        byz);
  (* correct writer program *)
  if t.correct.(0) then
    ignore
      (Sys.client t ~pid:0 ~name:"writer" (fun () ->
           for i = 0 to s.writer_values - 1 do
             let v = Diff.value_pool.(i mod Array.length Diff.value_pool) in
             Sys.op_write t v;
             ignore (Sys.op_sign t v)
           done));
  (* correct reader programs *)
  for pid = 1 to s.n - 1 do
    if t.correct.(pid) then begin
      let prog =
        List.init s.reader_ops (fun _ ->
            let v = Rng.pick_arr rng Diff.value_pool in
            if Rng.int rng 4 = 0 then `Read else `Verify v)
      in
      ignore
        (Sys.client t ~pid ~name:(Printf.sprintf "r%d" pid) (fun () ->
             List.iter
               (function
                 | `Read -> ignore (Sys.op_read t ~pid)
                 | `Verify v -> ignore (Sys.op_verify t ~pid v))
               prog))
    end
  done;
  conclude s t.sched ~correct:t.correct t.history Verdict.verifiable

let run_sticky (s : scenario) (rng : Rng.t) : outcome =
  let module Sys = Lnd_sticky.System in
  let module Byz = Lnd_byz.Byz_sticky in
  let byz = byzantine_pids s in
  let t =
    Sys.make ~policy:(Policy.random ~seed:(s.seed + 1)) ~n:s.n ~f:s.f
      ~byzantine:byz ()
  in
  (match s.adversary with
  | No_adversary | Crash | Sign_without_write | Selective -> ()
  | Stale_replayers ->
      List.iter
        (fun pid -> ignore (Byz.spawn_stale_replayer t.sched t.regs ~pid))
        byz
  | Denying_writer ->
      ignore (Byz.spawn_denying_writer t.sched t.regs ~v:"a" ~deny_after:3 ())
  | Equivocating_writer ->
      ignore
        (Byz.spawn_equivocating_writer t.sched t.regs ~va:"a" ~vb:"b"
           ~flip_after:(1 + Rng.int rng 4) ())
  | False_witnesses ->
      List.iter
        (fun pid -> ignore (Byz.spawn_false_witness t.sched t.regs ~pid ~v:"x"))
        byz
  | Naysayers ->
      List.iter
        (fun pid -> ignore (Byz.spawn_naysayer t.sched t.regs ~pid))
        byz
  | Flipfloppers ->
      List.iter
        (fun pid -> ignore (Byz.spawn_flipflop t.sched t.regs ~pid ~v:"a"))
        byz
  | Garbage ->
      List.iter
        (fun pid -> ignore (Byz.spawn_garbage t.sched t.regs ~pid))
        byz);
  if t.correct.(0) then
    ignore
      (Sys.client t ~pid:0 ~name:"writer" (fun () -> Sys.op_write t "a"));
  for pid = 1 to s.n - 1 do
    if t.correct.(pid) then
      ignore
        (Sys.client t ~pid ~name:(Printf.sprintf "r%d" pid) (fun () ->
             for _ = 1 to s.reader_ops do
               ignore (Sys.op_read t ~pid)
             done))
  done;
  conclude s t.sched ~correct:t.correct t.history Verdict.sticky

let run (s : scenario) : outcome =
  let rng = Rng.create (s.seed * 31 + 17) in
  match s.target with
  | Verifiable -> run_verifiable s rng
  | Sticky -> run_sticky s rng

let run_seed (seed : int) : outcome = run (generate seed)
