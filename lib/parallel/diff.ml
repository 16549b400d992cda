(* Differential conformance suite: one seed derives one workload (system
   size, Byzantine genome scripts, per-reader programs) that is executed
   by BOTH backends — the deterministic effects-based simulator (driver
   #1) and the OCaml 5 domains backend (driver #2, Parallel) — and each
   run is folded into a Lnd_history op history and judged by the same
   monitors + Byzantine-linearizability checkers.

   The suite asserts three things:
   - the sim run is accepted (monitors + Byzlin) and its history renders
     byte-identically to the committed pre-refactor golden baselines
     (test/fixtures/diff/golden_sim.txt), which pins the pure-core
     extraction to the old effects-based behaviour;
   - the domains run is accepted by the same checkers — real parallelism
     may produce a different (legal) interleaving, so histories are
     compared through the spec, not byte-for-byte;
   - a deliberately broken core (Parallel.run ~broken:true) makes the
     suite fail, so "green" is evidence, not vacuity.

   Workload generation is deterministic in (seed, protocol) and stays in
   the paper's safe zone (n >= 3f + 1, at most f actually-faulty pids,
   correct writer) so operations terminate on the free-running domains
   backend, not just under the step-bounded simulator. *)

open Lnd_support
module Sched = Lnd_runtime.Sched
module Policy = Lnd_runtime.Policy
module History = Lnd_history.History
module Verdict = Lnd_history.Verdict
module Trace_replay = Lnd_history.Trace_replay
module Obs = Lnd_obs.Obs
module Trace = Lnd_obs.Trace
module Byz_script = Lnd_byz.Byz_script

type proto = Sticky | Verifiable | Testorset

let proto_name = function
  | Sticky -> "sticky"
  | Verifiable -> "verifiable"
  | Testorset -> "testorset"

let proto_of_name = function
  | "sticky" -> Some Sticky
  | "verifiable" -> Some Verifiable
  | "testorset" -> Some Testorset
  | _ -> None

let all_protos = [ Sticky; Verifiable; Testorset ]

(* One client-program item; which constructors apply depends on the
   protocol (readers only Read on sticky, only Test on test-or-set). *)
type item = I_read | I_verify of Value.t | I_test

type work = {
  seed : int;
  proto : proto;
  n : int;
  f : int;
  tos_verifiable : bool; (* test-or-set backend: Observation 25 choice *)
  scripts : (int * int list) list; (* Byz_script genome per faulty pid *)
  script_value : Value.t; (* the value scripted adversaries claim *)
  writes : int; (* writer values (testorset: SETs) *)
  programs : (int * item list) list; (* per correct reader pid *)
}

let value_pool = [| "a"; "b"; "c" |]

(* Deterministic in (proto, seed); all structure is drawn up front so the
   two backends execute the *same* workload. *)
let generate ~(proto : proto) (seed : int) : work =
  let salt = match proto with Sticky -> 1 | Verifiable -> 2 | Testorset -> 3 in
  let rng = Rng.create ((seed * 7907) + salt) in
  let f = 1 + Rng.int rng 2 in
  let n = (3 * f) + 1 + Rng.int rng 2 in
  let nbyz = Rng.int rng (f + 1) in
  let byz = List.init nbyz (fun i -> n - 1 - i) in
  let script_value =
    match proto with
    | Testorset -> "1"
    | Sticky | Verifiable -> if Rng.bool rng then "a" else "x"
  in
  let scripts =
    List.map
      (fun pid ->
        let len = 2 + Rng.int rng 4 in
        (pid, List.init len (fun _ -> Rng.int rng 6)))
      byz
  in
  let writes = 1 + Rng.int rng 2 in
  let programs =
    List.filter_map
      (fun pid ->
        if pid = 0 || List.mem pid byz then None
        else
          let k = 1 + Rng.int rng 2 in
          Some
            ( pid,
              List.init k (fun _ ->
                  match proto with
                  | Sticky -> I_read
                  | Testorset -> I_test
                  | Verifiable ->
                      if Rng.int rng 4 = 0 then I_read
                      else I_verify (Rng.pick_arr rng value_pool)) ))
      (List.init n (fun i -> i))
  in
  {
    seed;
    proto;
    n;
    f;
    tos_verifiable = Rng.bool rng;
    scripts;
    script_value;
    writes;
    programs;
  }

let byzantine_pids (w : work) : int list = List.map fst w.scripts

let describe (w : work) : string =
  Printf.sprintf "seed=%d proto=%s n=%d f=%d%s byz=[%s] claim=%s writes=%d progs=[%s]"
    w.seed (proto_name w.proto) w.n w.f
    (match w.proto with
    | Testorset -> if w.tos_verifiable then "/verifiable" else "/sticky"
    | Sticky | Verifiable -> "")
    (String.concat ";"
       (List.map
          (fun (pid, g) ->
            Printf.sprintf "%d:%s" pid
              (String.concat "," (List.map string_of_int g)))
          w.scripts))
    w.script_value w.writes
    (String.concat ";"
       (List.map
          (fun (pid, prog) ->
            Printf.sprintf "%d:%s" pid
              (String.concat ""
                 (List.map
                    (function
                      | I_read -> "r"
                      | I_test -> "t"
                      | I_verify v -> "v(" ^ v ^ ")")
                    prog)))
          w.programs))

(* ---------------- Spec-level acceptance (shared by both backends) ----- *)

(* Lnd_history.Verdict with the verdict's kind dropped: both backends
   only ask whether the history was accepted. *)
let byzlin_op_cap = Verdict.op_cap

let check_sticky_history ~correct h =
  Result.map ignore (Verdict.sticky ~correct h)

let check_verifiable_history ~correct h =
  Result.map ignore (Verdict.verifiable ~correct h)

let check_testorset_history ~correct h =
  Result.map ignore (Verdict.testorset ~correct h)

(* ---------------- Canonical history rendering ---------------- *)

(* One stable token per operation instance, ordered by invocation time.
   The sim driver's rendering for a fixed seed is byte-identical across
   refactors of the protocol internals — that is the golden gate. *)

let render_entry ~op ~res (e : ('o, 'r) History.entry) : string =
  match e.ret with
  | Some (r, t) -> Printf.sprintf "p%d:%s[%d,%d]=%s" e.pid (op e.op) e.inv t (res r)
  | None -> Printf.sprintf "p%d:%s[%d,?)" e.pid (op e.op) e.inv

let render_sticky h : string =
  let module S = Lnd_history.Spec.Sticky_spec in
  String.concat " "
    (List.map
       (render_entry
          ~op:(function S.Write v -> "W(" ^ v ^ ")" | S.Read -> "R")
          ~res:(function
            | S.Done -> "done"
            | S.Val None -> "bot"
            | S.Val (Some v) -> v))
       (History.entries h))

let render_verifiable h : string =
  let module V = Lnd_history.Spec.Verifiable_spec in
  String.concat " "
    (List.map
       (render_entry
          ~op:(function
            | V.Write v -> "W(" ^ v ^ ")"
            | V.Read -> "R"
            | V.Sign v -> "S(" ^ v ^ ")"
            | V.Verify v -> "V(" ^ v ^ ")")
          ~res:(function
            | V.Done -> "done"
            | V.Val v -> v
            | V.Signed b -> "signed:" ^ string_of_bool b
            | V.Verified b -> string_of_bool b))
       (History.entries h))

let render_testorset h : string =
  let module T = Lnd_history.Spec.Testorset_spec in
  String.concat " "
    (List.map
       (render_entry
          ~op:(function T.Set -> "SET" | T.Test -> "TEST")
          ~res:(function T.Done -> "done" | T.Bit b -> string_of_int b))
       (History.entries h))

(* ---------------- Driver #1: the deterministic simulator ---------------- *)

type system = {
  sched : Sched.t;
  space : Lnd_shm.Space.t;
  correct : bool array;
  verdict : unit -> (unit, string) result;
  ops : unit -> int;
  rendered : unit -> string;
}

type run = {
  ops : int; (* completed operations in the history *)
  steps : int; (* scheduler steps (sim) or machine turns (domains) *)
  verdict : (unit, string) result;
  rendered : string; (* canonical history *)
}

let sim_max_steps = 8_000_000

let correct_failure ~(correct : bool array) sched : string option =
  match
    List.filter
      (fun ((fb : Sched.fiber), _) -> correct.(fb.Sched.pid))
      (Sched.failures sched)
  with
  | [] -> None
  | (fb, e) :: _ ->
      Some
        (Printf.sprintf "correct fiber %s failed: %s" fb.Sched.fname
           (Printexc.to_string e))

let settle ~correct sched (verdict : unit -> ('a, string) result) :
    ('a, string) result =
  match Sched.run ~max_steps:sim_max_steps sched with
  | Sched.Budget_exhausted -> Error "step budget exhausted"
  | Sched.Condition_met -> Error "unexpected stop"
  | Sched.Quiescent -> (
      match correct_failure ~correct sched with
      | Some m -> Error m
      | None -> verdict ())

let policy_of (w : work) = Policy.random ~seed:((w.seed * 31) + 17)

(* Spawn order is load-bearing (it fixes fiber ids, hence schedules and
   DPOR counts): help daemons (inside [make]), then [wire]'s scripts,
   writer and readers. *)
let system ?byzantine (w : work) (policy : Policy.t) : system =
  let byzantine = Option.value byzantine ~default:(byzantine_pids w) in
  let wire sched space (correct : bool array) h ~check ~render ~script
      ~writer ~prefix ~write item : system =
    List.iter
      (fun (pid, genome) ->
        ignore (script (Byz_script.make ~pid ~genome ~value:w.script_value)))
      w.scripts;
    if correct.(0) then
      ignore
        (Sched.spawn sched ~pid:0 ~name:writer (fun () ->
             for i = 0 to w.writes - 1 do
               write value_pool.(i mod Array.length value_pool)
             done));
    List.iter
      (fun (pid, prog) ->
        ignore
          (Sched.spawn sched ~pid ~name:(Printf.sprintf "%s%d" prefix pid)
             (fun () -> List.iter (item pid) prog)))
      w.programs;
    {
      sched;
      space;
      correct;
      verdict = (fun () -> check ~correct:(fun pid -> correct.(pid)) h);
      ops = (fun () -> List.length (History.complete_entries h));
      rendered = (fun () -> render h);
    }
  in
  let bad proto = invalid_arg ("Diff: " ^ proto ^ " program") in
  let n = w.n and f = w.f in
  match w.proto with
  | Sticky ->
      let module Sys = Lnd_sticky.System in
      let t = Sys.make ~policy ~byzantine ~n ~f () in
      wire t.sched t.space t.correct t.history ~check:check_sticky_history
        ~render:render_sticky
        ~script:(Byz_script.spawn_sticky t.sched t.regs)
        ~writer:"writer" ~prefix:"r"
        ~write:(Sys.op_write t) (fun pid -> function
        | I_read -> ignore (Sys.op_read t ~pid)
        | I_verify _ | I_test -> bad "sticky")
  | Verifiable ->
      let module Sys = Lnd_verifiable.System in
      let t = Sys.make ~policy ~byzantine ~n ~f () in
      wire t.sched t.space t.correct t.history ~check:check_verifiable_history
        ~render:render_verifiable
        ~script:(Byz_script.spawn_verifiable t.sched t.regs)
        ~writer:"writer" ~prefix:"r"
        ~write:(fun v ->
          Sys.op_write t v;
          ignore (Sys.op_sign t v))
        (fun pid -> function
        | I_read -> ignore (Sys.op_read t ~pid)
        | I_verify v -> ignore (Sys.op_verify t ~pid v)
        | I_test -> bad "verifiable")
  | Testorset ->
      let module Sys = Lnd_testorset.Testorset in
      let impl =
        if w.tos_verifiable then Sys.Verifiable_based else Sys.Sticky_based
      in
      let t = Sys.make ~policy ~byzantine ~impl ~n ~f () in
      let script =
        match t.backend with
        | Sys.B_sticky (regs, _, _) -> Byz_script.spawn_sticky t.sched regs
        | Sys.B_verifiable (regs, _, _) ->
            Byz_script.spawn_verifiable t.sched regs
      in
      wire t.sched t.space t.correct t.history ~check:check_testorset_history
        ~render:render_testorset ~script ~writer:"setter" ~prefix:"t"
        ~write:(fun _ -> Sys.op_set t)
        (fun pid -> function
        | I_test -> ignore (Sys.op_test t ~pid)
        | I_read | I_verify _ -> bad "testorset")

let sim (w : work) : run =
  let s = system w (policy_of w) in
  let verdict = settle ~correct:s.correct s.sched s.verdict in
  {
    ops = s.ops ();
    steps = Sched.steps s.sched;
    verdict;
    rendered = s.rendered ();
  }

(* ---------------- Golden baselines (sim driver) ---------------- *)

(* One line per (seed, protocol): workload description, verdict, and the
   canonical history. Generated once from the pre-refactor effects-based
   implementations and committed; the suite re-renders and compares
   byte-for-byte, so any drift in the sim driver's schedules, timestamps
   or results fails loudly. *)

let sim_line (w : work) : string =
  let r = sim w in
  Printf.sprintf "%s | %s ops=%d steps=%d | %s" (describe w)
    (match r.verdict with Ok () -> "ok" | Error m -> "FAIL(" ^ m ^ ")")
    r.ops r.steps r.rendered

let golden_lines ~from ~count : string list =
  List.concat_map
    (fun i ->
      let seed = from + i in
      List.map (fun proto -> sim_line (generate ~proto seed)) all_protos)
    (List.init count (fun i -> i))

let golden_seed_from = 1
let golden_seed_count = 60

let write_golden path =
  let oc = open_out path in
  List.iter
    (fun l -> output_string oc (l ^ "\n"))
    (golden_lines ~from:golden_seed_from ~count:golden_seed_count);
  close_out oc

(* Re-render the golden workloads with the current sim driver and diff
   against the committed fixture. Returns the mismatching line pairs
   (expected, got). *)
let check_golden path : (int * string * string) list =
  let ic = open_in path in
  let expected = ref [] in
  (try
     while true do
       expected := input_line ic :: !expected
     done
   with End_of_file -> close_in ic);
  let expected = List.rev !expected in
  let got = golden_lines ~from:golden_seed_from ~count:golden_seed_count in
  let rec pair i es gs acc =
    match (es, gs) with
    | [], [] -> List.rev acc
    | e :: es, g :: gs ->
        pair (i + 1) es gs (if String.equal e g then acc else (i, e, g) :: acc)
    | e :: es, [] -> pair (i + 1) es [] ((i, e, "<missing>") :: acc)
    | [], g :: gs -> pair (i + 1) [] gs ((i, "<missing>", g) :: acc)
  in
  pair 1 expected got []

(* ---------------- Trace parity (both drivers) ---------------- *)

(* Keep only operation spans. On the domains backend the help daemons'
   polling is bounded by park-on-yield but still depends on how the
   domains race, so their Shm_access volume is nondeterministic, while
   the spans the parity fold actually consumes are fixed by the
   workload. *)
let parity_keep (e : Obs.event) : bool =
  match e.kind with
  | Obs.Span_open _ | Obs.Span_close _ -> true
  | _ -> false

type trace_info = {
  t_ops : int;
  t_verdict : (unit, string) result;
  t_nesting : string option;
  t_dropped : int;
  t_events : int;
  t_trace : Trace.t;
}

let fold_trace (w : work) (tr : Trace.t) : trace_info =
  let byz = byzantine_pids w in
  let correct pid = not (List.mem pid byz) in
  let evs = Trace.events tr in
  let t_ops, t_verdict =
    match w.proto with
    | Sticky ->
        let h = Trace_replay.sticky_history evs in
        ( List.length (History.complete_entries h),
          check_sticky_history ~correct h )
    | Verifiable ->
        let h = Trace_replay.verifiable_history evs in
        ( List.length (History.complete_entries h),
          check_verifiable_history ~correct h )
    | Testorset ->
        let h = Trace_replay.testorset_history evs in
        ( List.length (History.complete_entries h),
          check_testorset_history ~correct h )
  in
  {
    t_ops;
    t_verdict;
    t_nesting = Trace.check tr;
    t_dropped = Trace.dropped tr;
    t_events = Trace.size tr;
    t_trace = tr;
  }

let sim_traced ?(keep = parity_keep) (w : work) : run * trace_info =
  let tr = Trace.create ~keep () in
  Obs.install (Trace.sink tr);
  let r = Fun.protect ~finally:Obs.uninstall (fun () -> sim w) in
  Trace.finish tr;
  (r, fold_trace w tr)
