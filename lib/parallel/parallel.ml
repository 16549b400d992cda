(* Driver #2: the OCaml 5 domains backend.

   Executes the same Diff.work workloads as the simulator, but on
   Lnd_runtime.Domains: one domain per process over mutex-protected
   register cells, real preemption, and a global atomic clock stamping
   the operation history. The machines are those of Diff.plan — the very
   plan the simulator's executor (Diff.system) spawns as fibers — built
   over Dcells; this module only allocates the cells and groups the
   plan's machines by process, so any verdict disagreement between the
   backends indicts a driver, not a second wiring of the protocol.

   [~broken:true] builds the plan with its readers' final decision step
   corrupted (a reader that reports a value it never adopted, a verifier
   that always accepts, a tester that returns an impossible bit). The
   corruption is pure and termination-preserving, and the conformance
   suite uses it to prove the checkers actually reject divergent
   behaviour (green = evidence, not vacuity). *)

module Domains = Lnd_runtime.Domains
module Dcell = Lnd_runtime.Domains.Dcell
module Obs = Lnd_obs.Obs
module Trace = Lnd_obs.Trace

let dcell ~name ~owner:_ ?single_reader:_ ~init () = Dcell.make ~name ~init

let run ?(broken = false) (w : Diff.work) : Diff.run =
  let p = Diff.plan ~broken w dcell in
  let d = Domains.create () in
  for pid = 0 to w.Diff.n - 1 do
    let mine (q, x) = if q = pid then Some x else None in
    let daemons = List.filter_map mine p.Diff.daemons in
    let jobs =
      List.concat_map (fun (q, _, js) -> if q = pid then js else []) p.clients
    in
    if not (List.is_empty daemons && List.is_empty jobs) then
      Domains.add_process d ~pid ~correct:p.correct.(pid) ~daemons jobs
  done;
  let outcome = Domains.run d in
  {
    Diff.ops = p.ops ();
    steps = Result.value outcome ~default:0;
    verdict = Result.bind outcome (fun _ -> p.verdict ());
    rendered = p.rendered ();
  }

(* Run with a per-domain arena sink installed: every domain records into
   its own preallocated buffer, the arenas merge on the run's unique
   fetch-and-add stamps, and the merged trace folds — through
   Trace_replay — into a second, independently derived history judged by
   the same checkers as the direct one. Operation spans bracket the
   recorded [inv, ret] intervals, so the trace verdict must agree
   whenever the direct verdict is Ok. *)
let run_traced ?(broken = false) ?(keep = Diff.parity_keep) (w : Diff.work) :
    Diff.run * Diff.trace_info =
  let tr = Trace.create ~keep () in
  Obs.install (Trace.sink tr);
  let r = Fun.protect ~finally:Obs.uninstall (fun () -> run ~broken w) in
  Trace.finish tr;
  (r, Diff.fold_trace w tr)
