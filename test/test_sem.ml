(* The semantic (typedtree) analyses against their compiled known-bad
   fixtures: each seeded violation — unsynced speak, a send over a
   helper's dirty journal, an unsigned outbound claim, an unverified
   inbound claim, an impure [@lnd.pure] body — is flagged by exactly
   its intended rule at the intended line; justified [@lnd.allow]
   suppressions round-trip to silence; the combined lint+sem report and
   its SARIF form are stable; and the production tree analyzes clean
   end to end.

   Unlike the lint fixtures (parsed, never built), the sem fixtures are
   a real dune library: the tests read the .cmt files dune left in its
   objs directory, exactly the artefacts bin/lnd_sem.ml consumes. *)

open Lnd_lint_core
open Lnd_sem_core

let cmt name =
  Filename.concat "fixtures/sem/.lnd_sem_fixtures.objs/byte"
    ("lnd_sem_fixtures__" ^ name ^ ".cmt")

let analyze name =
  match Semdriver.load_cmt (cmt name) with
  | None -> Alcotest.failf "cannot read %s (was the fixture lib built?)" (cmt name)
  | Some (file, str) ->
      Semdriver.analyze_structure Semdriver.all_ctx
        ~file:(Filename.basename file)
        str

let simplify (fs : Findings.t list) =
  List.sort Findings.compare fs
  |> List.map (fun (f : Findings.t) -> (f.Findings.rule, f.Findings.line))

let check name expected got =
  Alcotest.(check (list (pair string int))) name expected (simplify got)

(* -------- analysis 1: sync-before-speak -------- *)

let test_ordering () =
  check
    "unsynced speak, dirty call into a speaking helper, and a \
     sync-on-one-branch all flagged; disciplined and suppressed sends \
     silent"
    [ ("sem-ordering", 10); ("sem-ordering", 25); ("sem-ordering", 32) ]
    (analyze "Sem_bad_ordering")

(* -------- analysis 2: signature discipline -------- *)

let test_sign () =
  check
    "unsigned outbound claim and hand-built signature record flagged; \
     the signed path silent"
    [ ("sem-sign", 18); ("sem-sign", 23) ]
    (analyze "Sem_bad_sign")

let test_verify () =
  check
    "unverified inbound claim flagged; direct and helper-mediated \
     verification both silent"
    [ ("sem-verify", 22) ]
    (analyze "Sem_bad_verify")

(* -------- analysis 3: [@lnd.pure] -------- *)

let test_pure () =
  check
    "non-local mutation, transport, scheduler and a laundered Wal call \
     all flagged; fresh-local mutation and the justified suppression \
     silent"
    [
      ("sem-pure", 12);
      ("sem-pure", 15);
      ("sem-pure", 18);
      ("sem-pure", 24);
    ]
    (analyze "Sem_bad_pure")

(* -------- path-derived contexts -------- *)

let test_default_ctx () =
  let c = Semdriver.default_ctx ~source:"lib/msgpass/regemu.ml" in
  Alcotest.(check bool) "msgpass: ordering on" true c.Semdriver.ordering;
  Alcotest.(check bool) "msgpass: signing on" true c.Semdriver.signing;
  let d = Semdriver.default_ctx ~source:"lib/durable/wal.ml" in
  Alcotest.(check bool) "durable: ordering on" true d.Semdriver.ordering;
  Alcotest.(check bool) "durable: signing off" false d.Semdriver.signing;
  let s = Semdriver.default_ctx ~source:"lib/sigbase/sig_verifiable.ml" in
  Alcotest.(check bool) "sigbase: signing on" true s.Semdriver.signing;
  Alcotest.(check bool) "sigbase: ordering off" false s.Semdriver.ordering;
  let y = Semdriver.default_ctx ~source:"lib/crypto/sigoracle.ml" in
  Alcotest.(check bool) "crypto: signing off (IS the oracle)" false
    y.Semdriver.signing;
  let b = Semdriver.default_ctx ~source:"lib/byz/forger.ml" in
  Alcotest.(check bool) "byz: signing off (adversaries are modelled lying)"
    false b.Semdriver.signing;
  Alcotest.(check bool) "everywhere: purity on" true y.Semdriver.purity

(* -------- shared suppression machinery over the sem namespace -------- *)

(* The lint hygiene pass knows the sem rules: naming one with a
   justification is accepted, naming an unknown rule or skipping the
   justification is itself a finding. (The in-band round-trips — a
   justified sem suppression actually silencing a sem finding — are
   exercised by the ordering and purity fixtures above.) *)
let test_sem_suppression_hygiene () =
  let fs =
    Driver.lint_file
      ~ctx:
        {
          Rules.rng_free = false;
          ordered_iter = true;
          quorum = false;
          seam = false;
          swallow = false;
          need_mli = false;
          durable = false;
          obs = false;
          verdict = false;
        }
      "fixtures/lint/suppressed_sem.ml"
  in
  check
    "unknown sem rule and justification-free sem suppression flagged; \
     the justified sem-rule suppression parses clean"
    [
      ("determinism", 8);
      ("suppression-hygiene", 9);
      ("determinism", 12);
      ("suppression-hygiene", 13);
      ("determinism", 16);
    ]
    fs

(* -------- one driver surface: combined sorted report + SARIF -------- *)

(* The two tools' findings merge into one deterministically-ordered
   report: golden-checked so the shared format cannot drift. *)
let test_combined_golden () =
  let lint =
    Driver.lint_file
      ~ctx:
        {
          Rules.rng_free = true;
          ordered_iter = true;
          quorum = false;
          seam = false;
          swallow = false;
          need_mli = false;
          durable = false;
          obs = false;
          verdict = false;
        }
      "fixtures/lint/bad_determinism.ml"
  in
  let sem = analyze "Sem_bad_verify" in
  let all = List.sort Findings.compare (lint @ sem) in
  let got = Format.asprintf "%a" (Findings.report ~json:false) all in
  let expected =
    "fixtures/lint/bad_determinism.ml:4:14: [determinism] direct Random.* \
     use; all randomness flows through Lnd_support.Rng \
     (lib/support/rng.ml) so runs replay from seeds\n\
     fixtures/lint/bad_determinism.ml:7:2: [determinism] unordered \
     Hashtbl.iter in protocol/fuzz code (bucket order is unspecified and \
     randomizable); use Lnd_support.Tables.iter_sorted or justify with \
     [@lnd.allow]\n\
     fixtures/lint/bad_determinism.ml:10:29: [determinism] Hashtbl.to_seq \
     enumerates in unspecified (randomizable) bucket order, exactly like \
     Hashtbl.iter; sort through Lnd_support.Tables or justify with \
     [@lnd.allow]\n\
     sem_bad_verify.ml:22:2: [sem-verify] unverified inbound claim: \
     signature-carrying data obtained from a read reaches this register \
     write with no Sigoracle.verify on the path; verify before trusting, \
     or justify with [@lnd.allow \"sem-verify: ...\"] (in `parrot`)\n\
     4 findings\n"
  in
  Alcotest.(check string) "combined human report is golden" expected got

let test_sarif () =
  let sem =
    analyze "Sem_bad_ordering" @ analyze "Sem_bad_pure"
    |> List.sort Findings.compare
  in
  let log = Findings.to_sarif ~tool:"lnd_sem" ~rules:Rules.sem_catalogue sem in
  Jsonchk.check ~what:"SARIF log" log;
  let has needle =
    let nl = String.length needle and hl = String.length log in
    let rec go i =
      if i + nl > hl then false
      else String.sub log i nl = needle || go (i + 1)
    in
    go 0
  in
  Alcotest.(check bool) "schema named" true
    (has "https://json.schemastore.org/sarif-2.1.0.json");
  Alcotest.(check bool) "version present" true (has "\"version\": \"2.1.0\"");
  Alcotest.(check bool) "driver named" true (has "\"name\": \"lnd_sem\"");
  Alcotest.(check bool) "rule metadata embedded" true
    (has "{\"id\": \"sem-ordering\"");
  Alcotest.(check bool) "result rule ids present" true
    (has "\"ruleId\": \"sem-pure\"");
  (* empty findings still yield a valid, empty-run log *)
  let empty = Findings.to_sarif ~tool:"lnd_lint" ~rules:Rules.catalogue [] in
  Jsonchk.check ~what:"empty SARIF log" empty

(* -------- acceptance gate: the production tree is sem-clean -------- *)

(* Mirrors test_lint's production sweep: every cmt under the build root
   whose source lives in lib/ analyzes clean under its default context
   — the same pipeline CI's blocking lnd_sem job runs. *)
let test_production_clean () =
  match Semdriver.analyze_paths ~build:".." [ "lib" ] with
  | Error msg -> Alcotest.fail msg
  | Ok [] -> ()
  | Ok (f :: _ as fs) ->
      Alcotest.failf "production tree has %d sem finding(s), first: %s"
        (List.length fs)
        (Format.asprintf "%a" Findings.pp_human f)

let tests =
  [
    Alcotest.test_case "sync-before-speak fixture" `Quick test_ordering;
    Alcotest.test_case "sign-before-send fixture" `Quick test_sign;
    Alcotest.test_case "verify-before-trust fixture" `Quick test_verify;
    Alcotest.test_case "[@lnd.pure] fixture" `Quick test_pure;
    Alcotest.test_case "path-derived analysis contexts" `Quick
      test_default_ctx;
    Alcotest.test_case "sem suppression hygiene" `Quick
      test_sem_suppression_hygiene;
    Alcotest.test_case "combined lint+sem report is golden" `Quick
      test_combined_golden;
    Alcotest.test_case "SARIF output is valid and stable" `Quick test_sarif;
    Alcotest.test_case "production tree analyzes clean" `Quick
      test_production_clean;
  ]
