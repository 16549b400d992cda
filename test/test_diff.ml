(* Differential conformance between the two drivers of the pure protocol
   cores: the deterministic effects-based simulator (driver #1) and the
   OCaml 5 domains backend (driver #2).

   Three layers of evidence:
   - the sim driver's histories for the golden workloads are
     byte-identical to the committed pre-refactor baselines
     (fixtures/diff/golden_sim.txt), pinning the pure-core extraction to
     the old inlined implementations, schedule for schedule;
   - every (seed, protocol) workload is accepted by the monitors +
     Byzantine-linearizability checkers on BOTH backends — the domains
     interleavings are real, so agreement is judged through the spec,
     not byte-for-byte;
   - the deliberately broken cores (Parallel.run ~broken:true) are
     rejected, so a green suite is evidence, not vacuity. The broken
     seeds are chosen with few enough operations that the exhaustive
     checker always runs: rejection is schedule-independent.

   The committed counterexample scenarios also replay through the
   (pure-core) sim driver with their recorded verdicts intact. *)

module Diff = Lnd_parallel.Diff
module Parallel = Lnd_parallel.Parallel
module Scenario = Lnd_fuzz.Scenario

let golden_path = "fixtures/diff/golden_sim.txt"

let test_golden_sim () =
  match Diff.check_golden golden_path with
  | [] -> ()
  | (i, e, g) :: rest ->
      Alcotest.failf
        "sim driver drifted from the pre-refactor golden baselines (%d \
         mismatching lines); first: line %d\n\
         expected: %s\n\
         got:      %s"
        (List.length rest + 1)
        i e g

let seeds =
  List.init Diff.golden_seed_count (fun i -> Diff.golden_seed_from + i)

let check_backend ~backend w = function
  | Ok () -> ()
  | Error m ->
      Alcotest.failf "%s driver rejected workload [%s]: %s" backend
        (Diff.describe w) m

(* One traced execution must tell the same story twice: the direct
   history (recorded by the driver) must be accepted, and the
   trace-derived one must agree with it (Diff.parity). *)
let check_parity ~backend w (r : Diff.run) (ti : Diff.trace_info) =
  check_backend ~backend w r.Diff.verdict;
  match Diff.parity r ti with
  | Ok () -> ()
  | Error m ->
      Alcotest.failf "%s trace parity failed for [%s]: %s" backend
        (Diff.describe w) m

(* Aggregate machine steps per completed operation the domains driver
   may spend over a sweep. Parked machines take no steps, so a driver
   that re-polled unchanged registers would blow far past this; summing
   over the seeds keeps the bound robust to real preemption. *)
let max_domains_steps_per_op = 1_000

(* The headline: the same seed-derived workloads — honest, Byzantine
   (scripted genomes) and mixed — through both drivers, every history
   accepted by the same spec-level checkers, and on each driver the
   trace-derived history agrees with the direct one. *)
let test_agreement proto () =
  let steps, ops =
    List.fold_left
      (fun (steps, ops) seed ->
        let w = Diff.generate ~proto seed in
        let s, st = Diff.sim_traced w in
        check_parity ~backend:"sim" w s st;
        let p, pt = Parallel.run_traced w in
        check_parity ~backend:"domains" w p pt;
        if p.Diff.ops <> s.Diff.ops then
          Alcotest.failf
            "backends completed different op counts for [%s]: sim=%d \
             domains=%d"
            (Diff.describe w) s.Diff.ops p.Diff.ops;
        (steps + p.Diff.steps, ops + p.Diff.ops))
      (0, 0) seeds
  in
  if steps > max_domains_steps_per_op * ops then
    Alcotest.failf
      "domains driver took %d steps for %d ops (%d/op > %d): idle machines \
       are re-polling"
      steps ops (steps / max ops 1) max_domains_steps_per_op

(* Broken-core fixtures: the same drivers, the same checkers, a core
   with its final decision step corrupted — the suite must go red. The
   chosen seeds keep the history under Diff.byzlin_op_cap, so the
   exhaustive checker runs and rejection does not depend on the (real,
   uncontrolled) domains interleaving. *)
let test_broken proto seed () =
  let w = Diff.generate ~proto seed in
  let ops = Diff.sim w in
  if ops.Diff.ops > Diff.byzlin_op_cap then
    Alcotest.failf
      "fixture seed %d grew past byzlin_op_cap (%d ops): pick another seed"
      seed ops.Diff.ops;
  check_backend ~backend:"domains" w (Parallel.run w).Diff.verdict;
  let b, bt = Parallel.run_traced ~broken:true w in
  (match b.Diff.verdict with
  | Error _ -> ()
  | Ok () ->
      Alcotest.failf
        "broken %s core was ACCEPTED on [%s]: the conformance suite cannot \
         detect divergence"
        (Diff.proto_name proto) (Diff.describe w));
  (* The spans render the value the core actually (falsely) returned, so
     the lie survives the round-trip and the trace checker rejects too. *)
  match bt.Diff.t_verdict with
  | Error _ -> ()
  | Ok () ->
      Alcotest.failf
        "broken %s core was accepted through the TRACE on [%s]: spans do not \
         carry the lying results"
        (Diff.proto_name proto) (Diff.describe w)

(* The committed counterexamples replay through the pure-core sim driver
   with their recorded expectations intact. *)
let test_scenario file () =
  let path = Filename.concat "fixtures/scenarios" file in
  match Scenario.load path with
  | Error e -> Alcotest.failf "%s: parse error: %s" file e
  | Ok sc -> (
      match Scenario.run sc with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "%s (%s): replay diverged on the pure-core driver: %s"
            file sc.Scenario.sc_name e)

let tests =
  [
    Alcotest.test_case "sim histories byte-identical to golden baselines"
      `Slow test_golden_sim;
    Alcotest.test_case "sticky: 60 seeds agree on sim + domains" `Slow
      (test_agreement Diff.Sticky);
    Alcotest.test_case "verifiable: 60 seeds agree on sim + domains" `Slow
      (test_agreement Diff.Verifiable);
    Alcotest.test_case "testorset: 60 seeds agree on sim + domains" `Slow
      (test_agreement Diff.Testorset);
    Alcotest.test_case "broken sticky core is rejected" `Slow
      (test_broken Diff.Sticky 1);
    Alcotest.test_case "broken verifiable core is rejected" `Slow
      (test_broken Diff.Verifiable 2);
    Alcotest.test_case "broken testorset core is rejected" `Slow
      (test_broken Diff.Testorset 5);
    Alcotest.test_case "weakened_retract_dpor.scn replays on pure cores" `Quick
      (test_scenario "weakened_retract_dpor.scn");
    Alcotest.test_case "weakened_synth.scn replays on pure cores" `Quick
      (test_scenario "weakened_synth.scn");
  ]
