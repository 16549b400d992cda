(* Model-checking harness: paper configurations as explorable systems.

   Mcheck turns one declarative [config] — protocol, (n, f), which pids
   are actually Byzantine (possibly more than the declared f: the
   deliberately weakened configurations), their Byz_script genomes and
   the correct clients' programs — into the (make, check) pair the
   Lnd_runtime.Explore engines drive. The config compiles once to a
   Diff.work, and [make] builds a fresh deterministic system for every
   explored schedule through Diff.system, the builder the differential
   suite's sim driver uses; [check] runs at quiescence and raises
   [Property_violated] when the run breaks a paper property:

   - no correct fiber crashed;
   - the protocol's Lnd_history.Verdict: the observational monitors
     (uniqueness/validity for sticky, whose uniqueness half includes
     stickiness — Observation 18; relay/validity/unforgeability for
     verifiable; bit monotonicity for test-or-set — Definition 20), then
     Byzantine linearizability of the recorded history (Theorems 14,
     19, Observation 25) via the exhaustive Lnd_history.Byzlin checker;
   - blame soundness: with [audit = true] every run also streams its
     events through the forensic auditor, and an accusation against a
     correct pid is itself a violation (zero false blame must hold on
     every schedule, not just the sampled ones).

   The per-run event trace (audit mode) and a Space-observer access
   counter are exposed so the synthesiser can derive fitness metrics
   and the T15 benchmark can report work per schedule. *)

open Lnd_support
module Sched = Lnd_runtime.Sched
module Policy = Lnd_runtime.Policy
module Explore = Lnd_runtime.Explore
module Space = Lnd_shm.Space
module Obs = Lnd_obs.Obs
module Trace = Lnd_obs.Trace
module Audit = Lnd_audit.Audit
module Diff = Lnd_parallel.Diff

type model = Diff.proto = Sticky | Verifiable | Testorset

let model_name = Diff.proto_name
let model_of_name = Diff.proto_of_name

type config = {
  model : model;
  n : int;
  f : int; (* declared f: fixes every quorum threshold *)
  byzantine : int list; (* actually faulty pids; may exceed f *)
  scripts : (int * int list) list; (* Byz_script genome per scripted pid *)
  script_value : Value.t; (* the value scripted adversaries claim *)
  readers : int list; (* pids running a client read program *)
  reads : int; (* operations per reader *)
  writes : int; (* writer operations (testorset: SETs) *)
  audit : bool; (* stream every run through trace + auditor *)
}

exception Property_violated of string

let violated fmt = Printf.ksprintf (fun m -> raise (Property_violated m)) fmt

let note (c : config) : string =
  Printf.sprintf "%s n=%d f=%d byz=[%s]%s readers=[%s] reads=%d writes=%d"
    (model_name c.model) c.n c.f
    (String.concat "," (List.map string_of_int c.byzantine))
    (match c.scripts with
    | [] -> ""
    | ss ->
        " scripts="
        ^ String.concat "+"
            (List.map
               (fun (pid, g) ->
                 Printf.sprintf "%d:[%s]" pid
                   (String.concat "," (List.map string_of_int g)))
               ss))
    (String.concat "," (List.map string_of_int c.readers))
    c.reads c.writes

(* The default exploration target: the smallest paper configuration,
   n = 3f + 1 = 4 with one naysaying colluder. *)
let default : config =
  {
    model = Sticky;
    n = 4;
    f = 1;
    byzantine = [ 3 ];
    scripts = [ (3, [ 2; 2; 0 ]) ];
    script_value = "a";
    readers = [ 1 ];
    reads = 1;
    writes = 1;
    audit = false;
  }

(* The deliberately weakened configuration for adversary synthesis:
   two actual colluders against quorums sized for f = 1, so a schedule
   plus a support-then-retract script pair can drive a correct reader
   to ⊥ after another correct read returned the value. *)
let weakened : config =
  {
    default with
    byzantine = [ 2; 3 ];
    scripts = [ (2, [ 2; 2; 2; 0 ]); (3, [ 2; 2; 2; 0 ]) ];
    readers = [ 1 ];
    reads = 2;
  }

(* ---------------- Instances ---------------- *)

type instance = {
  cfg : config;
  make : Policy.t -> Sched.t;
  check : Sched.t -> unit;
  last_events : unit -> Obs.event list;
      (* the last run's event trace; empty unless [audit] *)
  last_accesses : unit -> int; (* register accesses in the last run *)
  teardown : unit -> unit; (* detach the Obs sink, if any was installed *)
}

(* The config as a Diff workload. Each correct reader runs [reads]
   items: READs on sticky, TESTs on test-or-set (the sticky
   construction, adversaries claiming "1"), and VERIFY("a")/READ
   alternately on verifiable. Byzantine readers run nothing. *)
let work_of (c : config) : Diff.work =
  List.iter
    (fun pid ->
      if pid <= 0 || pid >= c.n then invalid_arg "Mcheck: bad reader pid")
    c.readers;
  let item i : Diff.item =
    match c.model with
    | Sticky -> I_read
    | Testorset -> I_test
    | Verifiable -> if i mod 2 = 0 then I_verify "a" else I_read
  in
  {
    seed = 0;
    proto = c.model;
    n = c.n;
    f = c.f;
    tos_verifiable = false;
    scripts = c.scripts;
    script_value = (if c.model = Testorset then "1" else c.script_value);
    writes = c.writes;
    programs =
      List.filter_map
        (fun pid ->
          if List.mem pid c.byzantine then None
          else Some (pid, List.init c.reads item))
        c.readers;
  }

let instance (c : config) : instance =
  if c.n < 2 then invalid_arg "Mcheck: n must be >= 2";
  List.iter
    (fun (pid, _) ->
      if not (List.mem pid c.byzantine) then
        invalid_arg "Mcheck: scripted pid must be listed as byzantine")
    c.scripts;
  let w = work_of c in
  let state = ref None in
  let accesses = ref 0 in
  let installed = ref false in
  let make policy =
    accesses := 0;
    let s = Diff.system ~byzantine:c.byzantine w policy in
    Space.set_observer s.space (Some (fun _ -> incr accesses));
    let trace, audit =
      if not c.audit then (None, None)
      else begin
        let tr = Trace.create () in
        let au =
          Audit.create ~q:(Quorum.make_relaxed ~n:c.n ~f:c.f) ()
        in
        Obs.install (Obs.fanout [ Trace.sink tr; Audit.sink au ]);
        installed := true;
        (Some tr, Some au)
      end
    in
    state := Some (s, trace, audit);
    s.sched
  in
  let check _sched =
    match !state with
    | None -> ()
    | Some ((s : Diff.system), _, audit) -> (
        Option.iter (violated "%s")
          (Diff.correct_failure ~correct:s.correct s.sched);
        Result.iter_error (violated "%s") (s.verdict ());
        match audit with
        | None -> ()
        | Some au ->
            List.iter
              (fun pid ->
                if s.correct.(pid) then
                  violated "auditor blamed correct pid %d" pid)
              (Audit.accused (Audit.finalize au)))
  in
  {
    cfg = c;
    make;
    check;
    last_events =
      (fun () ->
        match !state with
        | Some (_, Some tr, _) -> Trace.events tr
        | _ -> []);
    last_accesses = (fun () -> !accesses);
    teardown = (fun () -> if !installed then Obs.uninstall ());
  }

(* ---------------- Exploration entry points ---------------- *)

let explore ?(mode = `Dpor) ?max_steps ?max_runs ?max_preempts (c : config) :
    Explore.result =
  let i = instance c in
  Fun.protect ~finally:i.teardown (fun () ->
      match mode with
      | `Dpor ->
          Explore.dpor ~make:i.make ~check:i.check ?max_steps ?max_runs
            ?max_preempts ~note:(note c) ()
      | `Naive ->
          Explore.exhaustive ~make:i.make ~check:i.check ?max_steps ?max_runs
            ~note:(note c) ())

let swarm ?max_steps ~seeds (c : config) : Explore.result =
  let i = instance c in
  Fun.protect ~finally:i.teardown (fun () ->
      Explore.swarm ~make:i.make ~check:i.check ?max_steps ~note:(note c)
        ~seeds ())

let replay ?max_steps (c : config) (s : Explore.schedule) :
    (unit, exn) result =
  let i = instance c in
  Fun.protect ~finally:i.teardown (fun () ->
      Explore.replay ~make:i.make ~check:i.check ?max_steps s)
