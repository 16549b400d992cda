(** Model-checking harness: paper configurations as explorable systems.

    One declarative {!config} — protocol, (n, f), the actually-faulty
    pids (possibly more than the declared [f]: the deliberately
    weakened configurations), their {!Lnd_byz.Byz_script} genomes and
    the correct clients' programs — becomes the (make, check) pair the
    {!Lnd_runtime.Explore} engines drive. [check] runs at quiescence
    and raises {!Property_violated} when a run breaks a paper
    property: a correct fiber crashed, an observational monitor fired,
    stickiness was broken (a correct read of v ≠ ⊥ followed by a
    correct read of ⊥; Observation 18 / Definition 20), the recorded
    history is not Byzantine linearizable, or — with [audit = true] —
    the forensic auditor blamed a correct pid. *)

open Lnd_support
module Sched = Lnd_runtime.Sched
module Policy = Lnd_runtime.Policy
module Explore = Lnd_runtime.Explore

type model = Lnd_parallel.Diff.proto = Sticky | Verifiable | Testorset

val model_name : model -> string
val model_of_name : string -> model option

type config = {
  model : model;
  n : int;
  f : int;  (** declared f: fixes every quorum threshold *)
  byzantine : int list;  (** actually faulty pids; may exceed [f] *)
  scripts : (int * int list) list;
      (** {!Lnd_byz.Byz_script} genome per scripted pid; a Byzantine
          pid without a script simply crashes (takes no steps) *)
  script_value : Value.t;
      (** the value scripted adversaries claim; test-or-set always
          claims "1" *)
  readers : int list;
      (** pids running a client program; Byzantine ones run nothing *)
  reads : int;
      (** operations per reader: READs (sticky), TESTs (test-or-set),
          VERIFY("a") and READ alternately (verifiable) *)
  writes : int;  (** writer operations (testorset: SETs) *)
  audit : bool;  (** stream every run through trace + auditor *)
}

exception Property_violated of string

val note : config -> string
(** One-line rendering, used as the counterexample note. *)

val default : config
(** The smallest paper configuration: sticky, n = 4, f = 1, one
    honest-then-naysaying colluder, one reader, one write. *)

val weakened : config
(** The deliberately weakened synthesis target: two actual colluders
    against quorums sized for f = 1 (support-then-retract scripts can
    break stickiness on the right schedule). *)

type instance = {
  cfg : config;
  make : Policy.t -> Sched.t;  (** fresh deterministic system per run *)
  check : Sched.t -> unit;  (** raises {!Property_violated} *)
  last_events : unit -> Lnd_obs.Obs.event list;
      (** the last run's event trace; empty unless [audit] *)
  last_accesses : unit -> int;
      (** register accesses in the last run (Space observer) *)
  teardown : unit -> unit;
      (** detach the Obs sink, if one was installed *)
}

val instance : config -> instance

val explore :
  ?mode:[ `Dpor | `Naive ] ->
  ?max_steps:int ->
  ?max_runs:int ->
  ?max_preempts:int ->
  config ->
  Explore.result
(** Systematic exploration of the configuration (default: DPOR).
    Raises {!Explore.Violation} whose [cx_exn] is the
    {!Property_violated}. *)

val swarm : ?max_steps:int -> seeds:int list -> config -> Explore.result
(** Seeded-random sampling of the configuration's schedules. *)

val replay :
  ?max_steps:int -> config -> Explore.schedule -> (unit, exn) result
(** Re-execute one schedule against a fresh instance of the
    configuration and re-run the check. *)
