(* The traced run: the per-layer split, measured from outside by timing
   calls into each layer's public functions, with counts from the
   counting Obs sink. Every function returns (metric name, value) pairs;
   units live in BENCHMARK.json and in main.ml's table. *)

open Lnd_support
open Workloads
module Domains = Lnd_runtime.Domains
module Dcell = Lnd_runtime.Domains.Dcell
module S_core = Lnd_sticky.Sticky_core
module Trace = Lnd_obs.Trace
module Trace_replay = Lnd_history.Trace_replay
module History = Lnd_history.History

let ms ns = float_of_int ns /. 1e6

(* Repeat [f] until [seconds] have passed, at least once; returns the
   repetition count. *)
let repeat_for seconds f =
  let t0 = Meter.now_ns () in
  let rec go n =
    f ();
    if Meter.secs_since t0 < seconds then go (n + 1) else n + 1
  in
  go 0

(* Median wall time of [reps] calls of [f], in nanoseconds. *)
let median_ns reps f =
  Meter.median
    (List.init reps (fun _ ->
         let t0 = Meter.now_ns () in
         f ();
         float_of_int (Meter.now_ns () - t0)))

(* ---------------- Microbenchmarks ---------------- *)

let spawn_join () =
  let run () =
    Spans.with_span "Domains.run" (fun () ->
        let d = Domains.create () in
        for pid = 0 to 3 do
          Domains.add_process d ~pid []
        done;
        ignore (judge "empty 4-process Domains.run" (Result.map ignore (Domains.run d))))
  in
  run ();
  [ ("domains.spawn_join_ms", median_ns 31 run /. 1e6) ]

let dcell () =
  let batch = 1_000_000 in
  let c = Dcell.make ~name:"C_1" ~init:(S_core.enc_counter 0) in
  let v = S_core.enc_counter 1 in
  let per_op name f = Spans.with_span name (fun () -> median_ns 7 f /. float_of_int batch) in
  let read_ns =
    per_op "Dcell.read" (fun () ->
        for _ = 1 to batch do
          ignore (Sys.opaque_identity (Dcell.read c))
        done)
  in
  let write_ns =
    per_op "Dcell.write" (fun () ->
        for _ = 1 to batch do
          Dcell.write c v
        done)
  in
  [ ("dcell.read_ns", read_ns); ("dcell.write_ns", write_ns) ]

(* An idle sticky Help() daemon (n = 4, pid 1) stepped against a fixed
   in-memory register map, with no driver: the re-polling loop the
   domains driver spends most of its steps in. *)
let machine () =
  let n = 4 in
  let q = Quorum.make_relaxed ~n ~f:1 in
  let slot = function
    | S_core.E i -> i
    | S_core.R i -> n + i
    | S_core.Rjk (j, k) -> (2 * n) + (j * n) + k
    | S_core.C k -> (2 * n) + (n * n) + k
  in
  let mem =
    Array.init ((3 * n) + (n * n)) (fun i ->
        if i < 2 * n then S_core.enc_vopt None
        else if i < (2 * n) + (n * n) then S_core.enc_stamped None 0
        else S_core.enc_counter 0)
  in
  let st = ref (S_core.help_prog ~n ~q ~pid:1) and ev = ref Machine.Start in
  let steps = 200_000 in
  let batch () =
    for _ = 1 to steps do
      let st', acts = Machine.step !st !ev in
      st := st';
      List.iter
        (function
          | Machine.A_read r -> ev := Machine.Got mem.(slot r)
          | Machine.A_write (r, u) -> mem.(slot r) <- u
          | Machine.A_yield -> ev := Machine.Ack
          | Machine.A_note _ -> ()
          | Machine.A_done -> failwith "Help() returned")
        acts
    done
  in
  batch ();
  let w0 = Meter.alloc_words () in
  let ns = Spans.with_span "Machine.step" (fun () -> median_ns 5 batch) in
  let words = Meter.alloc_words () -. w0 in
  [
    ("machine.step_ns", ns /. float_of_int steps);
    ("machine.alloc_words_per_step", words /. float_of_int (5 * steps));
  ]

(* ---------------- History checkers ---------------- *)

(* Histories harvested once, through traced runs of both drivers and
   Trace_replay; each becomes a closure over the matching checker. *)
let harvest ~seed : (int * (unit -> (unit, string) result)) list =
  let of_trace (w : Diff.work) (info : Diff.trace_info) =
    let evs = Trace.events info.Diff.t_trace in
    let correct pid = not (List.mem pid (Diff.byzantine_pids w)) in
    let ops h = List.length (History.complete_entries h) in
    match w.Diff.proto with
    | Diff.Sticky ->
        let h = Trace_replay.sticky_history evs in
        (ops h, fun () -> Diff.check_sticky_history ~correct h)
    | Diff.Verifiable ->
        let h = Trace_replay.verifiable_history evs in
        (ops h, fun () -> Diff.check_verifiable_history ~correct h)
    | Diff.Testorset ->
        let h = Trace_replay.testorset_history evs in
        (ops h, fun () -> Diff.check_testorset_history ~correct h)
  in
  let traced name run works =
    Spans.with_span name (fun () ->
        Array.to_list
          (Array.map
             (fun w ->
               let r, info = run w in
               ignore
                 (judge (Diff.describe w)
                    (match (check_run w r, info.Diff.t_verdict) with
                    | (Error _ as e), _ | Ok (), (Error _ as e) -> e
                    | Ok (), Ok () when info.Diff.t_ops <> r.Diff.ops ->
                        Error "trace-derived history has a different op count"
                    | Ok (), Ok () -> Ok ()));
               of_trace w info)
             works))
  in
  traced "Diff.sim_traced" (fun w -> Diff.sim_traced w) (sim_window seed)
  @ traced "Parallel.run_traced" (fun w -> Parallel.run_traced w) (domains_rotation seed)

let checkers histories =
  let reps = 25 in
  let samples = ref [] in
  Spans.with_span "Diff.check_history" (fun () ->
      for _ = 1 to reps do
        List.iter
          (fun (_, check) ->
            let t0 = Meter.now_ns () in
            let r = check () in
            samples := (float_of_int (Meter.now_ns () - t0) /. 1e3) :: !samples;
            if Result.is_error r then ignore (judge "re-check of a harvested history" r))
          histories
      done);
  let small = List.length (List.filter (fun (ops, _) -> ops <= Diff.byzlin_op_cap) histories) in
  [
    ("check.us_p50", Meter.p50 !samples);
    ("check.us_p90", Meter.p90 !samples);
    ("check.byzlin_share", Meter.ratio small (List.length histories));
  ]

(* ---------------- Workload layers ---------------- *)

(* Each layer runs the workload's inputs untraced for [seconds] (at
   least one pass), then the same number of passes with the counting
   sink installed. The ratio of median pass times is the overhead of
   tracing. *)
let time_pass f =
  let t0 = Meter.now_ns () in
  f ();
  Meter.secs_since t0

let overhead ~untraced ~traced = (Meter.median traced /. Meter.median untraced) -. 1.

let domains_layer ~seed ~seconds =
  let works = domains_rotation seed in
  let call w = Spans.with_span "Parallel.run" (fun () -> Parallel.run w) in
  let steps = ref 0 and ops = ref 0 in
  let untraced = ref [] in
  let n =
    repeat_for seconds (fun () ->
        let t =
          time_pass (fun () ->
              Array.iter
                (fun w ->
                  let r = call w in
                  if check_domains w r then begin
                    steps := !steps + r.Diff.steps;
                    ops := !ops + r.Diff.ops
                  end)
                works)
        in
        untraced := t :: !untraced)
  in
  let setup = ref [] and tail = ref [] and op_ns = ref [] in
  let t_ops = ref 0 and reads = ref 0 and writes = ref 0 and top = ref 0 and help = ref 0 in
  let traced =
    Counting.with_sink (fun () ->
        List.init n (fun _ ->
            time_pass (fun () ->
                Array.iter
                  (fun w ->
                    let t_call = Meter.now_ns () in
                    let r = call w in
                    let t_ret = Meter.now_ns () in
                    let c = Counting.harvest () in
                    if check_domains w r then begin
                      setup := ms (c.Counting.t_first_domain_ns - t_call) :: !setup;
                      tail := ms (t_ret - c.Counting.t_last_op_close_ns) :: !tail;
                      op_ns := List.rev_append c.Counting.t_op_ns !op_ns;
                      t_ops := !t_ops + r.Diff.ops;
                      reads := !reads + c.Counting.t_reads;
                      writes := !writes + c.Counting.t_writes;
                      top := !top + c.Counting.t_top_reads;
                      help := !help + c.Counting.t_help_rounds
                    end)
                  works)))
  in
  let op_ms = List.map ms !op_ns in
  [
    ("domains.setup_ms", Meter.median !setup);
    ("domains.op_ms_p50", Meter.p50 op_ms);
    ("domains.op_ms_p90", Meter.p90 op_ms);
    ("domains.tail_ms", Meter.median !tail);
    ("domains.steps_per_op", Meter.ratio !steps !ops);
    ("domains.reads_per_op", Meter.ratio !reads !t_ops);
    ("domains.writes_per_op", Meter.ratio !writes !t_ops);
    ("domains.poll_read_frac", Meter.ratio !top !reads);
    ("domains.help_rounds_per_op", Meter.ratio !help !t_ops);
    ("obs.overhead_frac.domains-n4", overhead ~untraced:!untraced ~traced);
  ]

let sim_layer ~seed ~seconds =
  let inp = sim_inputs seed in
  let pass on_run () =
    Array.iteri
      (fun i w ->
        let r = Spans.with_span "Diff.sim" (fun () -> Diff.sim w) in
        if check_sim inp i r then on_run r)
      inp.works
  in
  let steps = ref 0 and ops = ref 0 in
  let untraced = ref [] in
  let w0 = Meter.alloc_words () in
  let n =
    repeat_for seconds (fun () ->
        let t =
          time_pass
            (pass (fun r ->
                 steps := !steps + r.Diff.steps;
                 ops := !ops + r.Diff.ops))
        in
        untraced := t :: !untraced)
  in
  let words = Meter.alloc_words () -. w0 in
  let t_ops = ref 0 and reads = ref 0 and writes = ref 0 in
  let traced =
    Counting.with_sink (fun () ->
        List.init n (fun _ ->
            let t = time_pass (pass (fun r -> t_ops := !t_ops + r.Diff.ops)) in
            let c = Counting.harvest () in
            reads := !reads + c.Counting.t_reads;
            writes := !writes + c.Counting.t_writes;
            t))
  in
  let busy_s = List.fold_left ( +. ) 0. !untraced in
  [
    ("sim.steps_per_op", Meter.ratio !steps !ops);
    ("sim.reads_per_op", Meter.ratio !reads !t_ops);
    ("sim.writes_per_op", Meter.ratio !writes !t_ops);
    ("sim.step_ns", busy_s *. 1e9 /. float_of_int !steps);
    ("sim.alloc_words_per_step", words /. float_of_int !steps);
    ("obs.overhead_frac.sim-diff", overhead ~untraced:!untraced ~traced);
  ]

let dpor_layer ~seconds =
  let untraced = ref [] in
  let n =
    repeat_for seconds (fun () ->
        let t =
          time_pass (fun () ->
              List.iter
                (fun ((_, cfg, _) as c) ->
                  ignore
                    (check_dpor c (Spans.with_span "Mcheck.explore" (fun () -> explore cfg))))
                dpor_configs)
        in
        untraced := t :: !untraced)
  in
  let scheds = ref 0 and blocked = ref 0 and accesses = ref 0 in
  let make_ns = ref 0 and check_ns = ref 0 and total_ns = ref 0 in
  let timed acc name f =
    let t0 = Meter.now_ns () in
    Fun.protect
      ~finally:(fun () -> acc := !acc + (Meter.now_ns () - t0))
      (fun () -> Spans.with_span name f)
  in
  let explore_one ((_, cfg, _) as c) =
    let i = Mcheck.instance cfg in
    let acc = ref 0 in
    let make p =
      acc := !acc + i.Mcheck.last_accesses ();
      timed make_ns "Mcheck.make" (fun () -> i.Mcheck.make p)
    in
    let check s = timed check_ns "Mcheck.check" (fun () -> i.Mcheck.check s) in
    let t_total = ref 0 in
    let r =
      Fun.protect ~finally:i.Mcheck.teardown (fun () ->
          timed t_total "Explore.dpor" (fun () ->
              violation_to_error (fun () ->
                  Explore.dpor ~make ~check ~max_steps ~max_runs ~max_preempts:0
                    ~note:(Mcheck.note cfg) ())))
    in
    acc := !acc + i.Mcheck.last_accesses ();
    if check_dpor c r then
      Result.iter
        (fun r ->
          scheds := !scheds + schedules r;
          blocked := !blocked + r.Explore.blocked;
          accesses := !accesses + !acc;
          total_ns := !total_ns + !t_total)
        r
  in
  let traced =
    Counting.with_sink (fun () ->
        List.init n (fun _ -> time_pass (fun () -> List.iter explore_one dpor_configs)))
  in
  let per_sched_us ns = float_of_int ns /. 1e3 /. float_of_int !scheds in
  [
    ("explore.schedules", float_of_int !scheds /. float_of_int n);
    ("explore.blocked_frac", Meter.ratio !blocked !scheds);
    ("mcheck.make_us", per_sched_us !make_ns);
    ("mcheck.check_us", per_sched_us !check_ns);
    ("explore.self_us", per_sched_us (!total_ns - !make_ns - !check_ns));
    ("mcheck.accesses_per_schedule", Meter.ratio !accesses !scheds);
    ("obs.overhead_frac.dpor-n4", overhead ~untraced:!untraced ~traced);
  ]

(* The whole split. The named workload gets a third of [seconds]
   untraced (and as many traced passes); the other two get one pass
   each, so every layer metric is present whichever workload is
   traced. *)
let run ~workload ~seed ~seconds =
  Spans.enable ();
  let budget name = if String.equal name workload then seconds /. 3. else 0. in
  let micro = Spans.with_span "micro" (fun () -> spawn_join () @ dcell () @ machine ()) in
  let histories = Spans.with_span "harvest" (fun () -> harvest ~seed) in
  let check = checkers histories in
  let d =
    Spans.with_span "domains-n4" (fun () ->
        domains_layer ~seed ~seconds:(budget "domains-n4"))
  in
  let s =
    Spans.with_span "sim-diff" (fun () -> sim_layer ~seed ~seconds:(budget "sim-diff"))
  in
  let x = Spans.with_span "dpor-n4" (fun () -> dpor_layer ~seconds:(budget "dpor-n4")) in
  micro @ check @ d @ s @ x
