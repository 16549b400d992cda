(** Driver #2: the OCaml 5 domains backend.

    Executes {!Diff.work} workloads on {!Lnd_runtime.Domains} — one
    domain per process, mutex-protected registers, real preemption — by
    running the machines of {!Diff.plan}, the same plan the simulator's
    {!Diff.system} spawns, over domain cells. The run folds into a
    {!Lnd_history.History.t} stamped by the backend's atomic clock and
    is judged by the spec-level checkers of {!Diff}. *)

val run : ?broken:bool -> Diff.work -> Diff.run
(** Execute a workload on the domains backend. [Diff.run.steps] counts
    machine steps across all domains (0 on [Error]). An [Error] run's
    [rendered] history still shows the operations it had invoked, the
    unfinished ones as [pN:OP[inv,?)]. [~broken:true] builds the plan
    with corrupted readers (see {!Diff.plan}): the conformance suite
    uses it to prove the checkers reject divergent behaviour. *)

val run_traced :
  ?broken:bool ->
  ?keep:(Lnd_obs.Obs.event -> bool) ->
  Diff.work ->
  Diff.run * Diff.trace_info
(** [run] with a per-domain arena sink installed for the duration:
    domains record into preallocated per-domain buffers, the arenas
    merge deterministically on the run's unique fetch-and-add clock
    stamps, and the merged trace folds (via
    {!Lnd_history.Trace_replay}) into a second, independently derived
    history judged by the same checkers — see {!Diff.fold_trace}.
    [keep] defaults to {!Diff.parity_keep} (operation spans only).
    Operation spans bracket the recorded [[inv, ret]] intervals, so on
    an [Ok] direct verdict the trace verdict is [Ok] too. *)
