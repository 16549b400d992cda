(** Differential conformance suite between the two protocol drivers.

    A [work] value — derived deterministically from a (protocol, seed)
    pair — fully describes one workload: system size, which pids run
    scripted Byzantine adversaries (and their {!Lnd_byz.Byz_script}
    genomes), how many values the writer writes, and each correct
    reader's explicit operation program. Its machines are built once,
    by {!plan}, and executed by the deterministic effects-based
    simulator (driver #1, {!system}) and by the OCaml 5 domains backend
    (driver #2, {!Parallel}); each run folds into a
    {!Lnd_history.History.t} and is judged by the same monitors +
    Byzantine-linearizability checkers.

    The sim driver additionally renders each history to a canonical
    one-line string and compares it byte-for-byte against the committed
    pre-refactor golden baselines
    ([test/fixtures/diff/golden_sim.txt]). *)

open Lnd_support

type proto = Sticky | Verifiable | Testorset

val proto_name : proto -> string
val proto_of_name : string -> proto option
val all_protos : proto list

type item = I_read | I_verify of Value.t | I_test

type work = {
  seed : int;
  proto : proto;
  n : int;
  f : int;
  tos_verifiable : bool;
      (** test-or-set backend: which Observation 25 construction *)
  scripts : (int * int list) list;
      (** Byz_script genome per actually-faulty pid *)
  script_value : Value.t;  (** the value scripted adversaries claim *)
  writes : int;  (** writer values (testorset: SETs) *)
  programs : (int * item list) list;  (** per correct reader pid *)
}

val value_pool : Value.t array
(** The values the (correct) writer writes, in order, cycling. *)

val generate : proto:proto -> int -> work
(** Deterministic in (proto, seed). Always n >= 3f + 1 with at most f
    actually-faulty pids and a correct writer (pid 0), so every correct
    operation terminates on both backends. *)

val byzantine_pids : work -> int list
val describe : work -> string

(** {2 Spec-level acceptance (shared by both backends)}

    {!Lnd_history.Verdict} with the kind of acceptance dropped. *)

val byzlin_op_cap : int
(** {!Lnd_history.Verdict.op_cap}. *)

val check_sticky_history :
  correct:(int -> bool) ->
  (Lnd_history.Spec.Sticky_spec.op, Lnd_history.Spec.Sticky_spec.res)
  Lnd_history.History.t ->
  (unit, string) result

val check_verifiable_history :
  correct:(int -> bool) ->
  (Lnd_history.Spec.Verifiable_spec.op, Lnd_history.Spec.Verifiable_spec.res)
  Lnd_history.History.t ->
  (unit, string) result

val check_testorset_history :
  correct:(int -> bool) ->
  (Lnd_history.Spec.Testorset_spec.op, Lnd_history.Spec.Testorset_spec.res)
  Lnd_history.History.t ->
  (unit, string) result

(** {2 Canonical history rendering} *)

val render_sticky :
  (Lnd_history.Spec.Sticky_spec.op, Lnd_history.Spec.Sticky_spec.res)
  Lnd_history.History.t ->
  string

val render_verifiable :
  (Lnd_history.Spec.Verifiable_spec.op, Lnd_history.Spec.Verifiable_spec.res)
  Lnd_history.History.t ->
  string

val render_testorset :
  (Lnd_history.Spec.Testorset_spec.op, Lnd_history.Spec.Testorset_spec.res)
  Lnd_history.History.t ->
  string

(** {2 One plan, two executors}

    A workload's machines are built once, by {!plan}, over any cell
    type; {!system} runs them as simulator fibers and
    [Parallel.run] on one OCaml 5 domain per process. *)

type 'c plan = {
  correct : bool array;  (** indexed by pid *)
  daemons : (int * 'c Lnd_runtime.Plan.daemon) list;
      (** (pid, daemon): help daemons of the correct pids in ascending
          order ([help<pid>]), then one genome script per scripted pid
          ([byz-script<pid>]) *)
  clients : (int * string * 'c Lnd_runtime.Plan.job list) list;
      (** (pid, name, jobs): the writer ([writer], test-or-set
          [setter]) if pid 0 is correct, then one client per program
          ([r<pid>], test-or-set [t<pid>]) *)
  verdict : unit -> (unit, string) result;
      (** the protocol's checker over the history so far *)
  ops : unit -> int;  (** completed operations so far *)
  rendered : unit -> string;
      (** canonical history so far; an invoked, unfinished operation
          renders as [pN:OP[inv,?)] *)
}

val plan :
  ?byzantine:int list -> ?broken:bool -> work ->
  (name:string -> owner:int -> ?single_reader:int ->
   init:Lnd_support.Univ.t -> unit -> 'c) ->
  'c plan
(** The workload's machines over the register layout the allocator
    builds ([Sticky]/[Verifiable.alloc_with]; test-or-set allocates
    only the register its construction uses, and its daemons run over
    that register's names). [byzantine] (default
    {!byzantine_pids}) may add pids that run nothing, i.e. crash-silent
    ones. Jobs record their history entry at invocation into their
    process's own slot and complete it at response. [broken] (default
    [false]) corrupts every reader's final decision, keeping its
    register accesses and termination: a sticky or verifiable READ
    returns a never-written value, VERIFY always accepts, TEST returns
    the impossible bit 2. *)

(** {2 Driver #1: the deterministic simulator} *)

type system = {
  sched : Lnd_runtime.Sched.t;
  space : Lnd_shm.Space.t;
  correct : bool array;  (** indexed by pid *)
  verdict : unit -> (unit, string) result;
      (** the protocol's checker over the history so far *)
  ops : unit -> int;  (** completed operations so far *)
  rendered : unit -> string;  (** canonical history so far *)
}

type run = {
  ops : int;  (** completed operations in the history *)
  steps : int;  (** scheduler steps (sim) or machine turns (domains) *)
  verdict : (unit, string) result;
  rendered : string;  (** canonical history *)
}

val system :
  ?byzantine:int list -> work -> Lnd_runtime.Policy.t -> system
(** A fresh, not yet run simulated system: a new Space and Sched, then
    the {!plan} over shared-memory cells, spawned in plan order — help
    daemons, genome scripts (both daemon fibers named by their labels),
    the writer, then the readers, each client one fiber running its
    jobs under {!Lnd_runtime.Drive.job}. The order is load-bearing: it
    fixes fiber ids, hence schedules and DPOR counts. [byzantine] as
    for {!plan}: extra pids are crash-silent. *)

val correct_failure :
  correct:bool array -> Lnd_runtime.Sched.t -> string option
(** The first fiber of a correct pid that raised, rendered. *)

val settle :
  correct:bool array ->
  Lnd_runtime.Sched.t ->
  (unit -> ('a, string) result) ->
  ('a, string) result
(** Run the scheduler to quiescence (8M-step budget); a budget
    exhaustion, an early stop or a {!correct_failure} is an [Error],
    otherwise the verdict thunk decides. *)

val sim : work -> run
(** {!system} under [Policy.random] seeded from the work, then
    {!settle}. *)

val sim_line : work -> string
(** [describe] + verdict + canonical history: one golden-baseline line. *)

(** {2 Trace parity}

    A traced run derives a {e second}, independent history from the
    recorded operation spans ({!Lnd_history.Trace_replay}) and judges it
    with the same checkers as the direct one. Operation spans bracket
    the recorded [[inv, ret]] intervals on both backends, so the
    trace-derived precedence order is a subset of the direct history's
    and a direct [Ok] forces a trace [Ok]. *)

val parity_keep : Lnd_obs.Obs.event -> bool
(** Keep only operation spans: on the domains backend the help daemons'
    polling is bounded by park-on-yield but still depends on how the
    domains race, so their [Shm_access] volume is nondeterministic,
    while span volume is fixed by the workload. *)

type trace_info = {
  t_ops : int;  (** completed operations in the trace-derived history *)
  t_verdict : (unit, string) result;  (** same checkers as {!run} *)
  t_nesting : string option;  (** {!Lnd_obs.Trace.check} verdict *)
  t_dropped : int;  (** arena-overflow drops (0 = trace complete) *)
  t_events : int;  (** merged events, including synthesized closes *)
  t_trace : Lnd_obs.Trace.t;  (** the finished trace, for export *)
}

val fold_trace : work -> Lnd_obs.Trace.t -> trace_info
(** Fold a finished trace of [work] into the spec history of its
    protocol and judge it. Call {!Lnd_obs.Trace.finish} first. *)

val parity : run -> trace_info -> (unit, string) result
(** The trace-parity judgement: the trace is well-nested and complete,
    folds to the direct history's op count, and is accepted whenever
    the direct history was. [Error] lists every failed check. *)

val sim_traced : ?keep:(Lnd_obs.Obs.event -> bool) -> work -> run * trace_info
(** {!sim} with an arena sink installed for the duration ([keep]
    defaults to {!parity_keep}); the golden-baseline path stays
    untraced. *)

(** {2 Golden baselines (sim driver)} *)

val golden_seed_from : int
val golden_seed_count : int

val golden_lines : from:int -> count:int -> string list
(** [sim_line] over seeds [from .. from+count-1] times {!all_protos}. *)

val write_golden : string -> unit

val check_golden : string -> (int * string * string) list
(** Mismatching (line number, expected, got) triples against the
    committed fixture; [[]] means byte-identical. *)
