(* The lint engine against its known-bad fixtures — each fixture is
   flagged by exactly its intended rule at the intended line, a justified
   suppression silences a finding, a bare suppression is itself a
   finding — and the production tree lints clean end to end. *)

open Lnd_lint_core

(* Fixtures live outside the production path layout, so force every
   AST-level rule on explicitly instead of relying on path-derived
   contexts. *)
let strict =
  {
    Rules.rng_free = true;
    ordered_iter = true;
    quorum = true;
    seam = true;
    swallow = true;
    need_mli = false;
    durable = true;
    obs = true;
    verdict = true;
  }

let fixture name = Filename.concat "fixtures/lint" name

let lint ?(ctx = strict) name = Driver.lint_file ~ctx (fixture name)

let simplify (fs : Findings.t list) =
  List.sort Findings.compare fs
  |> List.map (fun (f : Findings.t) -> (f.Findings.rule, f.Findings.line))

let check name expected got =
  Alcotest.(check (list (pair string int))) name expected (simplify got)

let test_determinism () =
  check "randomness + unordered iteration flagged"
    [ ("determinism", 4); ("determinism", 7); ("determinism", 10) ]
    (lint "bad_determinism.ml")

let test_quorum () =
  check "every inline threshold shape flagged"
    [
      ("quorum-arithmetic", 4);
      ("quorum-arithmetic", 5);
      ("quorum-arithmetic", 6);
      ("quorum-arithmetic", 7);
    ]
    (lint "bad_quorum.ml")

let test_seam () =
  check "raw Net access flagged"
    [ ("transport-seam", 5); ("transport-seam", 6) ]
    (lint "bad_seam.ml")

let test_durable () =
  check "raw Disk access flagged"
    [ ("durable-seam", 5); ("durable-seam", 6); ("durable-seam", 8) ]
    (lint "bad_durable.ml")

let test_obs () =
  check "direct printing flagged"
    [
      ("obs-seam", 6);
      ("obs-seam", 7);
      ("obs-seam", 8);
      ("obs-seam", 9);
    ]
    (lint "bad_obs.ml")

let test_verdict () =
  check "search budget handled outside Verdict flagged"
    [ ("verdict-seam", 7); ("verdict-seam", 9) ]
    (lint "bad_verdict.ml")

let test_swallow () =
  check "catch-all handler flagged"
    [ ("exception-swallowing", 4) ]
    (lint "bad_swallow.ml")

(* The determinism contract the model checker is held to: schedule
   choices, sleep-set iteration, budgets and vector clocks must all be
   replay-stable — no ambient randomness, no wall clock, no bucket
   order. *)
let test_explore_fixture () =
  check "model-checker determinism violations flagged"
    [
      ("determinism", 5);
      ("determinism", 8);
      ("determinism", 10);
      ("determinism", 12);
    ]
    (lint "bad_explore.ml")

(* The rules the auditor is held to, all tripped in one fixture:
   hash-ordered ledger iteration, an inline witness threshold, and an
   accusation printed past the Obs sink. *)
let test_audit_fixture () =
  check "auditor contract violations flagged"
    [ ("determinism", 8); ("quorum-arithmetic", 10); ("obs-seam", 12) ]
    (lint "bad_audit.ml")

(* The parallel backend is held to the same silence contract as the
   protocol cores: a stray print in the domains driver or the merge
   path would break the byte-identical golden baselines. *)
let test_domains_fixture () =
  check "parallel-backend printing flagged"
    [
      ("obs-seam", 8);
      ("obs-seam", 9);
      ("obs-seam", 10);
      ("obs-seam", 11);
    ]
    (lint "bad_domains.ml")

let test_suppressed_ok () =
  check "justified [@lnd.allow] silences the finding" []
    (lint "suppressed_ok.ml")

let test_suppressed_bare () =
  check "bare [@lnd.allow] is itself the finding"
    [ ("suppression-hygiene", 8) ]
    (lint "suppressed_bare.ml")

let test_iface () =
  check "missing .mli flagged"
    [ ("interface-hygiene", 1) ]
    (lint ~ctx:{ strict with Rules.need_mli = true } "no_mli/bad_iface.ml")

let test_default_ctx () =
  let c = Rules.default_ctx ~path:"lib/msgpass/regemu.ml" in
  Alcotest.(check bool) "regemu: seam rule on" true c.Rules.seam;
  Alcotest.(check bool) "regemu: quorum rule on" true c.Rules.quorum;
  let t = Rules.default_ctx ~path:"lib/msgpass/faultnet.ml" in
  Alcotest.(check bool) "faultnet: seam-exempt (IS the transport)" false
    t.Rules.seam;
  let r = Rules.default_ctx ~path:"lib/support/rng.ml" in
  Alcotest.(check bool) "rng.ml: randomness allowed (IS the rng)" false
    r.Rules.rng_free;
  Alcotest.(check bool) "rng.ml: still needs an .mli" true r.Rules.need_mli;
  Alcotest.(check bool) "regemu: durable rule on" true c.Rules.durable;
  let d = Rules.default_ctx ~path:"lib/durable/wal.ml" in
  Alcotest.(check bool) "wal.ml: durable-exempt (IS the layer)" false
    d.Rules.durable;
  Alcotest.(check bool) "wal.ml: determinism still on" true d.Rules.rng_free;
  Alcotest.(check bool) "regemu: obs rule on" true c.Rules.obs;
  let o = Rules.default_ctx ~path:"lib/fuzz/chaos.ml" in
  Alcotest.(check bool) "chaos.ml: may print (harness, not protocol)" false
    o.Rules.obs;
  let a = Rules.default_ctx ~path:"lib/audit/audit.ml" in
  Alcotest.(check bool) "audit: ordered-iteration rule on" true
    a.Rules.ordered_iter;
  Alcotest.(check bool) "audit: quorum rule on" true a.Rules.quorum;
  Alcotest.(check bool) "audit: obs rule on" true a.Rules.obs;
  let e = Rules.default_ctx ~path:"lib/runtime/explore.ml" in
  Alcotest.(check bool) "explore: ordered-iteration rule on" true
    e.Rules.ordered_iter;
  Alcotest.(check bool) "explore: randomness still banned" true e.Rules.rng_free;
  Alcotest.(check bool) "explore: no seam rule (below the transport)" false
    e.Rules.seam;
  let dm = Rules.default_ctx ~path:"lib/runtime/domains.ml" in
  Alcotest.(check bool) "domains: obs rule on (Null sink must stay silent)"
    true dm.Rules.obs;
  let pl = Rules.default_ctx ~path:"lib/parallel/parallel.ml" in
  Alcotest.(check bool) "parallel: obs rule on" true pl.Rules.obs;
  Alcotest.(check bool) "parallel: ordered-iteration rule on" true
    pl.Rules.ordered_iter;
  let b = Rules.default_ctx ~path:"bin/lnd_cli.ml" in
  Alcotest.(check bool) "bin: no .mli demanded" false b.Rules.need_mli;
  Alcotest.(check bool) "bin: no seam rule" false b.Rules.seam;
  Alcotest.(check bool) "bin: no obs rule" false b.Rules.obs;
  Alcotest.(check bool) "bin: verdict rule on" true b.Rules.verdict;
  let h = Rules.default_ctx ~path:"lib/history/verdict.ml" in
  Alcotest.(check bool) "verdict.ml: verdict-exempt (IS the handler)" false
    h.Rules.verdict

(* The acceptance gate: the real tree, linted with the real contexts,
   has zero findings. Skipped when the sources are not reachable from
   the test cwd (e.g. a sandboxed runner). *)
let test_production_clean () =
  let root = "../../.." in
  if not (Sys.file_exists (Filename.concat root "lib")) then ()
  else
    match
      Driver.lint_paths
        (List.map (Filename.concat root) [ "lib"; "bin"; "bench"; "test" ])
    with
    | Error msg -> Alcotest.fail msg
    | Ok [] -> ()
    | Ok (f :: _ as fs) ->
        Alcotest.failf "production tree has %d lint finding(s), first: %s"
          (List.length fs)
          (Format.asprintf "%a" Findings.pp_human f)

let tests =
  [
    Alcotest.test_case "determinism fixture" `Quick test_determinism;
    Alcotest.test_case "quorum-arithmetic fixture" `Quick test_quorum;
    Alcotest.test_case "transport-seam fixture" `Quick test_seam;
    Alcotest.test_case "durable-seam fixture" `Quick test_durable;
    Alcotest.test_case "obs-seam fixture" `Quick test_obs;
    Alcotest.test_case "verdict-seam fixture" `Quick test_verdict;
    Alcotest.test_case "exception-swallowing fixture" `Quick test_swallow;
    Alcotest.test_case "model-checker determinism fixture" `Quick
      test_explore_fixture;
    Alcotest.test_case "auditor-contract fixture" `Quick test_audit_fixture;
    Alcotest.test_case "parallel-backend obs fixture" `Quick
      test_domains_fixture;
    Alcotest.test_case "justified suppression lints clean" `Quick
      test_suppressed_ok;
    Alcotest.test_case "bare suppression is flagged" `Quick
      test_suppressed_bare;
    Alcotest.test_case "interface-hygiene fixture" `Quick test_iface;
    Alcotest.test_case "path-derived rule contexts" `Quick test_default_ctx;
    Alcotest.test_case "production tree lints clean" `Quick
      test_production_clean;
  ]
