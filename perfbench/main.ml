(* The benchmark's entry point.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   One closed-loop client makes one checked call at a time. With
   [--trace 0] it prints the end-to-end metrics of NAME, measured with
   no Obs sink installed; with [--trace 1] it prints the per-layer split
   (see layers.ml) and writes the benchmark's spans to
   .bench_out/spans-NAME-seedN.jsonl. The last line of standard output
   is one JSON object: {correct, attempted, failed, metrics}. *)

let setups = 15
let rss_passes = 8

(* Untraced, closed loop: whole passes over the workload's inputs until
   [seconds] have elapsed, at least [rss_passes] passes and [setups]
   timed set-ups, spread evenly over the run. *)
let end_to_end ~workload ~seed ~seconds =
  let setup_s = ref [] in
  let timed_setup () =
    let t0 = Meter.now_ns () in
    let wl = Workloads.setup workload ~seed in
    setup_s := Meter.secs_since t0 :: !setup_s;
    wl
  in
  let wl = ref (timed_setup ()) in
  let passes = ref [] and peak_rss = ref nan in
  let ops = ref 0 and words = ref 0. in
  let t_start = Meter.now_ns () in
  let rec loop k =
    let elapsed = Meter.secs_since t_start in
    let done_setups = List.length !setup_s in
    if done_setups < setups && elapsed >= float_of_int done_setups *. seconds /. float_of_int setups
    then wl := timed_setup ();
    let w0 = Meter.alloc_words () in
    let p0 = Meter.now_ns () in
    let run_ms = ref [] and p_ops = ref 0 and p_sched = ref 0 in
    for i = 0 to !wl.Workloads.size - 1 do
      let t0 = Meter.now_ns () in
      let o = !wl.Workloads.run i in
      run_ms := (float_of_int (Meter.now_ns () - t0) /. 1e6) :: !run_ms;
      p_ops := !p_ops + o.Workloads.ops;
      p_sched := !p_sched + o.Workloads.schedules
    done;
    let dt = Meter.secs_since p0 in
    words := !words +. (Meter.alloc_words () -. w0);
    ops := !ops + !p_ops;
    if k = rss_passes then peak_rss := Meter.peak_rss_mb ();
    passes :=
      ( dt,
        float_of_int !p_ops /. dt,
        float_of_int !p_sched /. dt,
        Meter.p50 !run_ms,
        Meter.p90 !run_ms )
      :: !passes;
    if k < rss_passes || List.length !setup_s < setups || Meter.secs_since t_start < seconds
    then loop (k + 1)
  in
  loop 1;
  let tally = Workloads.tally in
  let median f = Meter.median (List.map f !passes) in
  ( [
      ("setup_s", Meter.median !setup_s);
      ("ops_per_s", median (fun (_, r, _, _, _) -> r));
      ("run_ms_p50", median (fun (_, _, _, p50, _) -> p50));
      ("run_ms_p90", median (fun (_, _, _, _, p90) -> p90));
      ("schedules_per_s", median (fun (_, _, r, _, _) -> r));
      ("exhaust_s", median (fun (dt, _, _, _, _) -> dt));
      ( "pass_frac",
        1. -. Meter.ratio tally.Workloads.failed tally.Workloads.attempted );
      ("alloc_words_per_op", !words /. float_of_int !ops);
      ("peak_rss_mb", !peak_rss);
    ],
    (List.length !passes * !wl.Workloads.size, List.length !passes) )

let units =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("run_ms_p50", "ms");
    ("run_ms_p90", "ms");
    ("schedules_per_s", "1/s");
    ("exhaust_s", "s");
    ("pass_frac", "ratio");
    ("alloc_words_per_op", "words");
    ("peak_rss_mb", "MB");
    ("domains.spawn_join_ms", "ms");
    ("domains.setup_ms", "ms");
    ("domains.op_ms_p50", "ms");
    ("domains.op_ms_p90", "ms");
    ("domains.tail_ms", "ms");
    ("domains.steps_per_op", "count");
    ("domains.reads_per_op", "count");
    ("domains.writes_per_op", "count");
    ("domains.poll_read_frac", "ratio");
    ("domains.help_rounds_per_op", "count");
    ("dcell.read_ns", "ns");
    ("dcell.write_ns", "ns");
    ("machine.step_ns", "ns");
    ("machine.alloc_words_per_step", "words");
    ("check.us_p50", "us");
    ("check.us_p90", "us");
    ("check.byzlin_share", "ratio");
    ("sim.steps_per_op", "count");
    ("sim.reads_per_op", "count");
    ("sim.writes_per_op", "count");
    ("sim.step_ns", "ns");
    ("sim.alloc_words_per_step", "words");
    ("explore.schedules", "count");
    ("explore.blocked_frac", "ratio");
    ("mcheck.make_us", "us");
    ("mcheck.check_us", "us");
    ("explore.self_us", "us");
    ("mcheck.accesses_per_schedule", "count");
    ("obs.overhead_frac.domains-n4", "ratio");
    ("obs.overhead_frac.sim-diff", "ratio");
    ("obs.overhead_frac.dpor-n4", "ratio");
  ]

let unit_of name = List.assoc name units

let json_number v = if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let result_line metrics =
  let tally = Workloads.tally in
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) metrics in
  let correct = tally.Workloads.failed = 0 && tally.Workloads.attempted > 0 && finite in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct tally.Workloads.attempted tally.Workloads.failed
    (String.concat ", "
       (List.map
          (fun (name, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
              (if Float.is_finite v then json_number v else "0")
              (unit_of name))
          metrics))

let usage =
  "main.exe --workload (domains-n4|sim-diff|dpor-n4) --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_int seed, " input seed (default 1)");
      ("--seconds", Arg.Set_int seconds, " measuring time (default 10)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer split");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if (not (List.mem !workload Workloads.names)) || !seconds < 1 || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline usage;
    exit 2
  end;
  let seconds = float_of_int !seconds in
  let metrics =
    if !trace = 0 then begin
      let metrics, (runs, passes) = end_to_end ~workload:!workload ~seed:!seed ~seconds in
      Printf.printf "%s seed=%d: %d checked runs in %d passes, one closed-loop client\n"
        !workload !seed runs passes;
      metrics
    end
    else begin
      let metrics = Layers.run ~workload:!workload ~seed:!seed ~seconds in
      let dir = ".bench_out" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Printf.sprintf "%s/spans-%s-seed%d.jsonl" dir !workload !seed in
      Spans.write path;
      Printf.printf "spans written to %s\n%-28s %7s %12s %12s\n" path "span" "calls" "total_ms"
        "self_ms";
      List.iter
        (fun (name, n, tot, self) ->
          Printf.printf "%-28s %7d %12.3f %12.3f\n" name n (tot /. 1e6) (self /. 1e6))
        (Spans.summary ());
      metrics
    end
  in
  let tally = Workloads.tally in
  Printf.printf "%-34s %18s %s\n" "metric" "value" "unit";
  List.iter (fun (name, v) -> Printf.printf "%-34s %18.6g %s\n" name v (unit_of name)) metrics;
  Printf.printf "%-34s %18.6g ratio (%d failed of %d checked runs)\n" "fail_frac"
    (Meter.ratio tally.Workloads.failed tally.Workloads.attempted)
    tally.Workloads.failed tally.Workloads.attempted;
  print_endline (result_line metrics)
