(** Scenario fuzzer: one integer seed derives a full Byzantine scenario
    (register type, system size, adversary strategy, reader programs,
    schedule), runs it to quiescence, and checks every applicable paper
    property — the streaming monitors plus full Byzantine linearizability
    when the history is small enough for the exhaustive checker. Any
    failure is replayable from its seed alone. *)

type target = Verifiable | Sticky

type adversary =
  | No_adversary
  | Crash
  | Denying_writer
  | Equivocating_writer
  | Sign_without_write (** verifiable only *)
  | False_witnesses
  | Naysayers
  | Flipfloppers
  | Garbage
  | Stale_replayers
  | Selective (** verifiable only *)

val adversary_name : adversary -> string

type scenario = {
  seed : int;
  target : target;
  n : int;
  f : int;
  adversary : adversary;
  reader_ops : int; (** operations per correct reader *)
  writer_values : int; (** values the correct writer writes/signs *)
}

val pp_scenario : Format.formatter -> scenario -> unit

val generate : int -> scenario
(** Deterministic in the seed. *)

val byzantine_pids : scenario -> int list

type report = {
  scenario : scenario;
  steps : int;
  operations : int;
  checked_linearizability : bool;
      (** false when {!Lnd_history.Verdict} answered [Monitors_only]:
          the history was too large for the exhaustive search *)
}

type outcome = (report, string) result

val run : scenario -> outcome
val run_seed : int -> outcome
