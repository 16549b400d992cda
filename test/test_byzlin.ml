(* Unit tests for the Byzantine-linearizability checkers (Definition 7 via
   the free-interval completion of Definitions 73 / 140), on handcrafted
   histories of correct readers facing a faulty writer. *)

module History = Lnd_history.History
module Spec = Lnd_history.Spec
module Byzlin = Lnd_history.Byzlin
module Verdict = Lnd_history.Verdict
module V = Spec.Verifiable_spec
module S = Spec.Sticky_spec
module T = Spec.Testorset_spec

let ventry pid op inv ret rt : (V.op, V.res) History.entry =
  { History.pid; op; inv; ret = Some (ret, rt) }

let vh entries : (V.op, V.res) History.t = { History.entries }

let faulty_writer pid = pid <> 0
let all_correct _ = true

(* Faulty writer: readers read a value the writer never "wrote" in the
   correct-process history — justified by inserting writer ops. *)
let test_verifiable_faulty_reads () =
  let h =
    vh
      [
        ventry 1 V.Read 1 (V.Val "a") 2;
        ventry 2 V.Read 3 (V.Val "a") 4;
        ventry 3 V.Read 5 (V.Val "b") 6;
      ]
  in
  Alcotest.(check bool)
    "reads of faulty writer's values explainable" true
    (Byzlin.verifiable ~writer:0 ~correct:faulty_writer h)

(* Relay violation: VERIFY(v)=true strictly before VERIFY(v)=false cannot
   be explained by any insertion of writer operations. *)
let test_verifiable_relay_violation () =
  let h =
    vh
      [
        ventry 1 (V.Verify "x") 1 (V.Verified true) 2;
        ventry 2 (V.Verify "x") 3 (V.Verified false) 4;
      ]
  in
  Alcotest.(check bool)
    "true-then-false violates relay" false
    (Byzlin.verifiable ~writer:0 ~correct:faulty_writer h);
  (* the reverse order is fine: sign happens between them *)
  let h2 =
    vh
      [
        ventry 1 (V.Verify "x") 1 (V.Verified false) 2;
        ventry 2 (V.Verify "x") 3 (V.Verified true) 4;
      ]
  in
  Alcotest.(check bool)
    "false-then-true explainable" true
    (Byzlin.verifiable ~writer:0 ~correct:faulty_writer h2)

(* Concurrent verifies may disagree. *)
let test_verifiable_concurrent_disagreement () =
  let h =
    vh
      [
        ventry 1 (V.Verify "x") 1 (V.Verified true) 10;
        ventry 2 (V.Verify "x") 2 (V.Verified false) 9;
      ]
  in
  Alcotest.(check bool)
    "concurrent disagreement allowed" true
    (Byzlin.verifiable ~writer:0 ~correct:faulty_writer h)

(* With a CORRECT writer, no ops are inserted: a verify of a never-signed
   value returning true is a genuine violation. *)
let test_verifiable_correct_writer () =
  let h = vh [ ventry 1 (V.Verify "x") 1 (V.Verified true) 2 ] in
  Alcotest.(check bool)
    "unforgeable with correct writer" false
    (Byzlin.verifiable ~writer:0 ~correct:all_correct h);
  let h2 =
    vh
      [
        ventry 0 (V.Write "x") 1 V.Done 2;
        ventry 0 (V.Sign "x") 3 (V.Signed true) 4;
        ventry 1 (V.Verify "x") 5 (V.Verified true) 6;
      ]
  in
  Alcotest.(check bool)
    "signed value verifies" true
    (Byzlin.verifiable ~writer:0 ~correct:all_correct h2)

(* ---- sticky ---- *)

let sentry pid op inv ret rt : (S.op, S.res) History.entry =
  { History.pid; op; inv; ret = Some (ret, rt) }

let sh entries : (S.op, S.res) History.t = { History.entries }

let test_sticky_uniqueness_violation () =
  let h =
    sh
      [
        sentry 1 S.Read 1 (S.Val (Some "a")) 2;
        sentry 2 S.Read 3 (S.Val (Some "b")) 4;
      ]
  in
  Alcotest.(check bool)
    "two different non-bot reads rejected" false
    (Byzlin.sticky ~writer:0 ~correct:faulty_writer h)

let test_sticky_bot_after_value () =
  let h =
    sh
      [
        sentry 1 S.Read 1 (S.Val (Some "a")) 2;
        sentry 2 S.Read 3 (S.Val None) 4;
      ]
  in
  Alcotest.(check bool)
    "bot after value rejected" false
    (Byzlin.sticky ~writer:0 ~correct:faulty_writer h);
  let h2 =
    sh
      [
        sentry 1 S.Read 1 (S.Val None) 2;
        sentry 2 S.Read 3 (S.Val (Some "a")) 4;
      ]
  in
  Alcotest.(check bool)
    "value after bot explainable" true
    (Byzlin.sticky ~writer:0 ~correct:faulty_writer h2)

let test_sticky_concurrent_mixed () =
  (* concurrent reads: one sees bot, one sees the value — fine *)
  let h =
    sh
      [
        sentry 1 S.Read 1 (S.Val (Some "a")) 10;
        sentry 2 S.Read 2 (S.Val None) 9;
      ]
  in
  Alcotest.(check bool)
    "concurrent mixed reads fine" true
    (Byzlin.sticky ~writer:0 ~correct:faulty_writer h)

(* ---- test-or-set ---- *)

let tentry pid op inv ret rt : (T.op, T.res) History.entry =
  { History.pid; op; inv; ret = Some (ret, rt) }

let th entries : (T.op, T.res) History.t = { History.entries }

let test_testorset_relay () =
  let bad =
    th [ tentry 1 T.Test 1 (T.Bit 1) 2; tentry 2 T.Test 3 (T.Bit 0) 4 ]
  in
  Alcotest.(check bool)
    "1-then-0 rejected" false
    (Byzlin.testorset ~setter:0 ~correct:faulty_writer bad);
  let good =
    th [ tentry 1 T.Test 1 (T.Bit 0) 2; tentry 2 T.Test 3 (T.Bit 1) 4 ]
  in
  Alcotest.(check bool)
    "0-then-1 explainable" true
    (Byzlin.testorset ~setter:0 ~correct:faulty_writer good)

let test_testorset_correct_setter () =
  let h = th [ tentry 1 T.Test 1 (T.Bit 1) 2 ] in
  Alcotest.(check bool)
    "1 without set rejected when setter correct" false
    (Byzlin.testorset ~setter:0 ~correct:all_correct h)

(* ---------------- Verdict: monitors, op cap, then Byzlin ------------- *)

let verdict =
  Alcotest.testable
    (fun fmt r ->
      Format.pp_print_string fmt
        (match r with
        | Ok Verdict.Linearizable -> "Ok Linearizable"
        | Ok Verdict.Monitors_only -> "Ok Monitors_only"
        | Error m -> "Error " ^ m))
    ( = )

(* WRITE(a), then [reads] reads of a, one after another. *)
let sequential_sticky reads =
  sh
    (sentry 0 (S.Write "a") 1 S.Done 2
    :: List.init reads (fun i ->
           sentry (1 + (i mod 3)) S.Read ((2 * i) + 3) (S.Val (Some "a"))
             ((2 * i) + 4)))

let test_verdict_op_cap () =
  Alcotest.check verdict "14 ops: searched" (Ok Verdict.Linearizable)
    (Verdict.sticky ~correct:all_correct (sequential_sticky 13));
  Alcotest.check verdict "15 ops: over the cap" (Ok Verdict.Monitors_only)
    (Verdict.sticky ~correct:all_correct
       (sequential_sticky Verdict.op_cap))

(* Bit monotonicity has no monitor to hide behind, so it must hold at
   any size: TEST=1 strictly before TEST=0 is rejected past the cap. *)
let test_verdict_testorset_over_cap () =
  let h =
    th
      (tentry 0 T.Set 1 T.Done 2
      :: tentry 1 T.Test 3 (T.Bit 1) 4
      :: tentry 2 T.Test 5 (T.Bit 0) 6
      :: List.init Verdict.op_cap (fun i ->
             tentry 3 T.Test ((2 * i) + 7) (T.Bit 1) ((2 * i) + 8)))
  in
  match Verdict.testorset ~correct:all_correct h with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "TEST=1 then TEST=0 accepted over the cap"

let tests =
  [
    Alcotest.test_case "verifiable: faulty-writer reads" `Quick
      test_verifiable_faulty_reads;
    Alcotest.test_case "verifiable: relay violation" `Quick
      test_verifiable_relay_violation;
    Alcotest.test_case "verifiable: concurrent disagreement" `Quick
      test_verifiable_concurrent_disagreement;
    Alcotest.test_case "verifiable: correct writer" `Quick
      test_verifiable_correct_writer;
    Alcotest.test_case "sticky: uniqueness violation" `Quick
      test_sticky_uniqueness_violation;
    Alcotest.test_case "sticky: bot after value" `Quick
      test_sticky_bot_after_value;
    Alcotest.test_case "sticky: concurrent mixed" `Quick
      test_sticky_concurrent_mixed;
    Alcotest.test_case "test-or-set: relay" `Quick test_testorset_relay;
    Alcotest.test_case "test-or-set: correct setter" `Quick
      test_testorset_correct_setter;
    Alcotest.test_case "verdict: op cap boundary" `Quick test_verdict_op_cap;
    Alcotest.test_case "verdict: test-or-set monotonicity over the cap"
      `Quick test_verdict_testorset_over_cap;
  ]
