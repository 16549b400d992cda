(* The model-checking harness end to end: DPOR exhausts the paper's
   smallest configuration (under park-on-yield + preemption bounding),
   finds the weakened-quorum stickiness violation, beats the naive DFS
   on the same config, and every counterexample survives the full
   serialise → parse → replay loop — including the scenario fixtures
   committed under test/fixtures/scenarios/, which the suite re-runs on
   every build. Plus the Space observer hook the harness counts
   accesses with, and the adversary synthesiser mutating an honest
   script into a violating one. *)

open Lnd_support
open Lnd_shm
module Explore = Lnd_runtime.Explore
module M = Lnd_fuzz.Mcheck
module Scenario = Lnd_fuzz.Scenario
module Synth = Lnd_fuzz.Synth

(* ---------------- Exhaustive coverage of the small configs ----------- *)

(* runs/blocked/pruned are pinned to BENCH_T15's DPOR rows: they guard
   the spawn order of Diff.system, which fixes fiber ids and so the
   explored schedule space. *)
let check_exhausts ~runs ~blocked cfg =
  let r = M.explore ~max_steps:600 ~max_preempts:0 cfg in
  Alcotest.(check bool) "exhausted" true r.Explore.exhausted;
  Alcotest.(check (list int))
    "runs/blocked/pruned" [ runs; blocked; 0 ]
    [ r.Explore.runs; r.Explore.blocked; r.Explore.pruned ]

let test_dpor_exhausts_default () =
  check_exhausts ~runs:260 ~blocked:95 M.default

let test_dpor_exhausts_verifiable () =
  check_exhausts ~runs:2306 ~blocked:564
    { M.default with M.model = M.Verifiable; reads = 2 }

let test_dpor_exhausts_testorset () =
  check_exhausts ~runs:260 ~blocked:95 { M.default with M.model = M.Testorset }

let test_dpor_beats_naive () =
  let budget = 1_000 in
  let naive =
    M.explore ~mode:`Naive ~max_steps:600 ~max_runs:budget M.default
  in
  Alcotest.(check bool) "naive DFS blows the budget" false
    naive.Explore.exhausted;
  let dpor =
    M.explore ~max_steps:600 ~max_runs:budget ~max_preempts:0 M.default
  in
  Alcotest.(check bool) "dpor exhausts within the same budget" true
    dpor.Explore.exhausted;
  Alcotest.(check bool) "dpor needs fewer runs" true
    (dpor.Explore.runs + dpor.Explore.blocked < budget)

(* ---------------- The weakened-quorum violation ---------------------- *)

let find_weakened_cx () =
  match
    M.explore ~max_steps:600 ~max_runs:50_000 ~max_preempts:1 M.weakened
  with
  | (_ : Explore.result) ->
      Alcotest.fail "expected a violation on the weakened config"
  | exception Explore.Violation cx -> cx

let test_dpor_finds_weakened_violation () =
  let cx = find_weakened_cx () in
  (match cx.Explore.cx_exn with
  | M.Property_violated _ -> ()
  | e -> Alcotest.failf "unexpected exception: %s" (Printexc.to_string e));
  match cx.Explore.cx_schedule with
  | Explore.Fids _ -> ()
  | s -> Alcotest.failf "want a Fids trail, got %a" Explore.pp_schedule s

let test_weakened_cx_replays () =
  let cx = find_weakened_cx () in
  match M.replay M.weakened cx.Explore.cx_schedule with
  | Error (M.Property_violated _) -> ()
  | Error e ->
      Alcotest.failf "replay raised something else: %s" (Printexc.to_string e)
  | Ok () -> Alcotest.fail "replay did not reproduce the violation"

(* ---------------- Scenario round-trip -------------------------------- *)

let test_scenario_roundtrip () =
  let cx = find_weakened_cx () in
  let sc = Scenario.of_violation ~name:"rt" M.weakened cx in
  let text = Scenario.to_string sc in
  (match Scenario.of_string text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok sc2 ->
      Alcotest.(check string) "print/parse/print fixpoint" text
        (Scenario.to_string sc2);
      Alcotest.(check string) "config survives" (M.note sc.Scenario.sc_cfg)
        (M.note sc2.Scenario.sc_cfg));
  match Scenario.run sc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "scenario run: %s" e

let test_scenario_rejects_garbage () =
  (match Scenario.of_string "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted empty input");
  (match Scenario.of_string "lnd-scenario v0\nname: x\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a bad magic line");
  match
    Scenario.of_string
      "lnd-scenario v1\nname: x\nexpect: violation\nfrobnicate: 3\nschedule: seed 1\n"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted an unknown key"

(* ---------------- Committed fixtures --------------------------------- *)

let test_fixture_scenarios_replay () =
  let dir = Filename.concat "fixtures" "scenarios" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".scn")
    |> List.sort compare
  in
  Alcotest.(check bool) "at least two committed scenarios" true
    (List.length files >= 2);
  List.iter
    (fun file ->
      match Scenario.load (Filename.concat dir file) with
      | Error e -> Alcotest.failf "%s: parse failed: %s" file e
      | Ok sc -> (
          match Scenario.run sc with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: %s" file e))
    files

(* ---------------- Adversary synthesis -------------------------------- *)

let test_synth_finds_violating_adversary () =
  (* honest genomes: the hill-climb has to mutate the scripts (and/or
     the seeds) before any run can violate *)
  let honest =
    { M.weakened with M.scripts = [ (2, [ 2; 2 ]); (3, [ 2; 2 ]) ] }
  in
  let o = Synth.hillclimb ~seed:11 ~name:"synth-weakened" honest in
  match o.Synth.found with
  | None ->
      Alcotest.failf "no violation after %d rounds (%d evals)"
        o.Synth.rounds_used o.Synth.evals
  | Some sc -> (
      Alcotest.(check bool) "scripts were mutated" true
        (sc.Scenario.sc_cfg.M.scripts <> honest.M.scripts
        || sc.Scenario.sc_cfg.M.scripts <> M.weakened.M.scripts);
      match Scenario.run sc with
      | Ok () -> ()
      | Error e -> Alcotest.failf "synthesised scenario: %s" e)

(* ---------------- Space observer ------------------------------------- *)

let test_space_observer_counts () =
  let space = Space.create ~n:2 in
  let r = Space.alloc space ~name:"x" ~owner:0 ~init:(Univ.inj Univ.int 0) () in
  let count = ref 0 in
  Space.set_observer space (Some (fun _ -> incr count));
  Space.write space ~by:0 r (Univ.inj Univ.int 1);
  ignore (Space.read space ~by:1 r);
  ignore (Space.read space ~by:0 r);
  Alcotest.(check int) "three observed accesses" 3 !count;
  Space.set_observer space None;
  ignore (Space.read space ~by:1 r);
  Alcotest.(check int) "detached observer sees nothing" 3 !count

let tests =
  [
    Alcotest.test_case "dpor exhausts the default sticky config" `Quick
      test_dpor_exhausts_default;
    Alcotest.test_case "dpor exhausts the verifiable config" `Quick
      test_dpor_exhausts_verifiable;
    Alcotest.test_case "dpor exhausts the test-or-set config" `Quick
      test_dpor_exhausts_testorset;
    Alcotest.test_case "dpor beats the naive DFS on the same budget" `Quick
      test_dpor_beats_naive;
    Alcotest.test_case "dpor finds the weakened-quorum violation" `Quick
      test_dpor_finds_weakened_violation;
    Alcotest.test_case "the counterexample replays deterministically" `Quick
      test_weakened_cx_replays;
    Alcotest.test_case "scenarios round-trip and re-violate" `Quick
      test_scenario_roundtrip;
    Alcotest.test_case "scenario parser rejects garbage" `Quick
      test_scenario_rejects_garbage;
    Alcotest.test_case "committed scenario fixtures replay" `Quick
      test_fixture_scenarios_replay;
    Alcotest.test_case "synthesis mutates an honest adversary into a violator"
      `Quick test_synth_finds_violating_adversary;
    Alcotest.test_case "space observer counts accesses" `Quick
      test_space_observer_counts;
  ]
