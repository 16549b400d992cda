(* Differential conformance suite: one seed derives one workload (system
   size, Byzantine genome scripts, per-reader programs) whose machines
   are built once, as a plan, and executed by BOTH backends — the
   deterministic effects-based simulator (driver #1) and the OCaml 5
   domains backend (driver #2, Parallel) — and each run is folded into a
   Lnd_history op history and judged by the same monitors +
   Byzantine-linearizability checkers.

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
module Plan = Lnd_runtime.Plan
module Drive = Lnd_runtime.Drive
module Sticky = Lnd_sticky.Sticky
module Verifiable = Lnd_verifiable.Verifiable
module S_core = Lnd_sticky.Sticky_core
module V_core = Lnd_verifiable.Verifiable_core
module T_core = Lnd_testorset.Testorset_core
module B_core = Lnd_byz.Byz_script_core

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

(* ---------------- One plan, two executors ---------------- *)

type 'c plan = {
  correct : bool array;
  daemons : (int * 'c Plan.daemon) list;
  clients : (int * string * 'c Plan.job list) list;
  verdict : unit -> (unit, string) result;
  ops : unit -> int;
  rendered : unit -> string;
}

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

(* The value broken readers claim; never written by any workload, so the
   validity monitors reject it on sight. *)
let broken_value : Value.t = "zzz"

(* One recorded operation of [pid]: its history entry is pushed onto the
   pid's own slot at invocation and completed at response, so each slot
   is written by one process only (one domain, on the domains driver). *)
let record recs ~cell ~pid ~span op res prog : 'c Plan.job =
  let e = ref History.{ pid; op; inv = 0; ret = None } in
  let inv t =
    e := { !e with inv = t };
    recs.(pid) <- !e :: recs.(pid)
  in
  let ret t a = !e.History.ret <- Some (res a, t) in
  Plan.Job { prog; cell; span = Some span; inv; ret }

(* A register layout's daemons, over its own register names: Help() for
   a correct pid, and a genome script for a scripted one. *)
let daemons cell help script =
  let daemon label on_note prog = Plan.Daemon { label; prog; cell; on_note } in
  ( (fun pid ->
      daemon (Printf.sprintf "help%d" pid) (Drive.help_spans ()) (help ~pid)),
    fun ~value (pid, g) ->
      let genome = Array.of_list g in
      daemon (Printf.sprintf "byz-script%d" pid) ignore
        (script ~pid ~genome ~value) )

(* What every protocol shares: a help daemon per correct pid in
   ascending order, then the genome scripts; the writer's jobs if the
   writer is correct, then one client per program; and the verdict, op
   count and rendering over the per-pid history slots. *)
let assemble (type o r) (w : work) correct
    (recs : (o, r) History.entry list array) ~daemons:(help, script) ~check
    ~render ~writer ~prefix writes item : 'c plan =
  let client (pid, prog) =
    (pid, Printf.sprintf "%s%d" prefix pid, List.map (item pid) prog)
  in
  let history () = { History.entries = List.concat (Array.to_list recs) } in
  {
    correct;
    daemons =
      List.filter_map
        (fun pid -> if correct.(pid) then Some (pid, help pid) else None)
        (List.init w.n Fun.id)
      @ List.map
          (fun s -> (fst s, script ~value:w.script_value s))
          w.scripts;
    clients =
      (if correct.(0) then [ (0, writer, writes) ] else [])
      @ List.map client w.programs;
    verdict = (fun () -> check ~correct:(Array.get correct) (history ()));
    ops = (fun () -> List.length (History.complete_entries (history ())));
    rendered = (fun () -> render (history ()));
  }

let plan ?byzantine ?(broken = false) (w : work) mk : 'c plan =
  let n = w.n and f = w.f in
  let q = Quorum.make_relaxed ~n ~f in
  let correct = Array.make n true in
  List.iter
    (fun pid -> correct.(pid) <- false)
    (Option.value byzantine ~default:(byzantine_pids w));
  let values =
    List.init w.writes (fun i -> value_pool.(i mod Array.length value_pool))
  in
  (* The single corruption: a reader's final decision replaced, its
     register accesses and termination kept. *)
  let lie f prog =
    if broken then Machine.(let* a = prog in ret (f a)) else prog
  in
  let bad proto = invalid_arg ("Diff: " ^ proto ^ " program") in
  let done_ _ = "done" in
  match w.proto with
  | Sticky ->
      let module S = Lnd_history.Spec.Sticky_spec in
      let cell = Sticky.(cell_of (alloc_with mk { n; f })) in
      let recs = Array.make n [] in
      let job ~pid ~span op res p = record recs ~cell ~pid ~span op res p in
      let write v =
        job ~pid:0 ~span:("WRITE", Some v, done_) (S.Write v)
          (fun () -> S.Done)
          (fun () -> S_core.write_prog ~n ~q v)
      in
      let read ~pid ck =
        job ~pid
          ~span:("READ", None, function None, _ -> "⊥" | Some v, _ -> "v:" ^ v)
          S.Read
          (fun (v, ck') ->
            ck := ck';
            S.Val v)
          (fun () ->
            lie
              (fun (_, ck') -> (Some broken_value, ck'))
              (S_core.read_prog ~n ~q ~pid ~ck:!ck))
      in
      assemble w correct recs
        ~daemons:(daemons cell (S_core.help_prog ~n ~q) (B_core.sticky_prog ~n))
        ~check:check_sticky_history ~render:render_sticky ~writer:"writer"
        ~prefix:"r" (List.map write values) (fun pid ->
          let ck = ref 0 in
          function I_read -> read ~pid ck | I_verify _ | I_test -> bad "sticky")
  | Verifiable ->
      let module V = Lnd_history.Spec.Verifiable_spec in
      let cell = Verifiable.(cell_of (alloc_with mk { n; f })) in
      let recs = Array.make n [] in
      let job ~pid ~span op res p = record recs ~cell ~pid ~span op res p in
      let written = ref Value.Set.empty in
      let write v =
        [
          job ~pid:0 ~span:("WRITE", Some v, done_) (V.Write v)
            (fun () ->
              written := Value.Set.add v !written;
              V.Done)
            (fun () -> V_core.write_prog v);
          job ~pid:0 ~span:("SIGN", Some v, string_of_bool) (V.Sign v)
            (fun ok -> V.Signed ok)
            (fun () -> V_core.sign_prog ~written:!written v);
        ]
      in
      let item pid =
        let ck = ref 0 in
        function
        | I_read ->
            job ~pid ~span:("READ", None, fun v -> "v:" ^ v) V.Read
              (fun v -> V.Val v)
              (fun () -> lie (fun _ -> broken_value) V_core.read_prog)
        | I_verify v ->
            job ~pid
              ~span:("VERIFY", Some v, fun (ok, _) -> string_of_bool ok)
              (V.Verify v)
              (fun (ok, ck') ->
                ck := ck';
                V.Verified ok)
              (fun () ->
                lie
                  (fun (_, ck') -> (true, ck'))
                  (V_core.verify_prog ~n ~q ~pid ~ck:!ck v))
        | I_test -> bad "verifiable"
      in
      assemble w correct recs
        ~daemons:
          (daemons cell (V_core.help_prog ~n ~q) (B_core.verifiable_prog ~n))
        ~check:check_verifiable_history ~render:render_verifiable
        ~writer:"writer" ~prefix:"r"
        (List.concat_map write values) item
  | Testorset ->
      let module T = Lnd_history.Spec.Testorset_spec in
      let v = w.tos_verifiable in
      (* Only the register the construction uses is allocated. Its daemons
         (Help, scripted adversaries) run over its own names; SET and
         TEST over the composed namespace. *)
      let other _ = invalid_arg "Diff: register outside the construction" in
      let cell, daemons =
        if v then
          let c = Verifiable.(cell_of (alloc_with mk { n; f })) in
          ( (function T_core.Vreg r -> c r | T_core.Sreg r -> other r),
            daemons c (V_core.help_prog ~n ~q) (B_core.verifiable_prog ~n) )
        else
          let c = Sticky.(cell_of (alloc_with mk { n; f })) in
          ( (function T_core.Sreg r -> c r | T_core.Vreg r -> other r),
            daemons c (S_core.help_prog ~n ~q) (B_core.sticky_prog ~n) )
      in
      let recs = Array.make n [] in
      let job ~pid ~span op res p = record recs ~cell ~pid ~span op res p in
      let written = ref Value.Set.empty in
      let set _ =
        if v then
          job ~pid:0 ~span:("SET", None, done_) T.Set
            (fun (signed, written') ->
              written := written';
              if not signed then failwith "SET: sign failed for correct setter";
              T.Done)
            (fun () -> T_core.set_verifiable_prog ~written:!written)
        else
          job ~pid:0 ~span:("SET", None, done_) T.Set
            (fun () -> T.Done)
            (fun () -> T_core.set_sticky_prog ~n ~q)
      in
      let test ~pid ck =
        job ~pid
          ~span:("TEST", None, fun (bit, _) -> string_of_int bit)
          T.Test
          (fun (bit, ck') ->
            ck := ck';
            T.Bit bit)
          (fun () ->
            (* bit 2 is outside the spec's alphabet: no linearization
               can ever produce it *)
            lie
              (fun (_, ck') -> (2, ck'))
              ((if v then T_core.test_verifiable_prog
                else T_core.test_sticky_prog)
                 ~n ~q ~pid ~ck:!ck))
      in
      assemble w correct recs ~daemons ~check:check_testorset_history
        ~render:render_testorset ~writer:"setter" ~prefix:"t"
        (List.map set values) (fun pid ->
          let ck = ref 0 in
          function
          | I_test -> test ~pid ck | I_read | I_verify _ -> bad "testorset")

(* ---------------- Driver #1: the deterministic simulator ---------------- *)

(* A fresh Space and Sched, then the plan over shared-memory cells: its
   daemons as daemon fibers, each client as one fiber running its jobs,
   spawned in plan order. The order is load-bearing: it fixes fiber ids,
   hence schedules and DPOR counts. *)
let system ?byzantine (w : work) (policy : Policy.t) : system =
  let space = Lnd_shm.Space.create ~n:w.n in
  let sched = Sched.create ~space ~choose:policy in
  let p = plan ?byzantine w (Lnd_runtime.Cell.shm_allocator space) in
  let spawn ~daemon pid name body =
    ignore (Sched.spawn sched ~pid ~name ~daemon body)
  in
  List.iter
    (fun (pid, (Plan.Daemon { label; _ } as d)) ->
      spawn ~daemon:true pid label (fun () -> Drive.daemon d))
    p.daemons;
  List.iter
    (fun (pid, name, jobs) ->
      spawn ~daemon:false pid name (fun () -> List.iter Drive.job jobs))
    p.clients;
  let ({ correct; verdict; ops; rendered; _ } : _ plan) = p in
  { sched; space; correct; verdict; ops; rendered }

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
  let judge check h =
    (List.length (History.complete_entries h), check ~correct h)
  in
  let t_ops, t_verdict =
    match w.proto with
    | Sticky -> judge check_sticky_history (Trace_replay.sticky_history evs)
    | Verifiable ->
        judge check_verifiable_history (Trace_replay.verifiable_history evs)
    | Testorset ->
        judge check_testorset_history (Trace_replay.testorset_history evs)
  in
  {
    t_ops;
    t_verdict;
    t_nesting = Trace.check tr;
    t_dropped = Trace.dropped tr;
    t_events = Trace.size tr;
    t_trace = tr;
  }

let parity (r : run) (ti : trace_info) : (unit, string) result =
  let problems =
    Option.to_list (Option.map (( ^ ) "ill-nested: ") ti.t_nesting)
    @ (if ti.t_dropped > 0 then [ Printf.sprintf "dropped=%d" ti.t_dropped ]
       else [])
    @ (if ti.t_ops <> r.ops then
         [ Printf.sprintf "trace ops=%d direct ops=%d" ti.t_ops r.ops ]
       else [])
    @
    match (r.verdict, ti.t_verdict) with
    | Ok (), Error m -> [ "trace verdict: " ^ m ]
    | _ -> []
  in
  if problems = [] then Ok () else Error (String.concat "; " problems)

let sim_traced ?(keep = parity_keep) (w : work) : run * trace_info =
  let tr = Trace.create ~keep () in
  Obs.install (Trace.sink tr);
  let r = Fun.protect ~finally:Obs.uninstall (fun () -> sim w) in
  Trace.finish tr;
  (r, fold_trace w tr)
