(** Driver #2: OCaml 5 domains.

    Runs the same pure {!Lnd_support.Machine} programs the simulator
    drives, but with real preemption: one domain per process, shared
    registers as mutex-protected cells ({!Dcell}), and a global atomic
    logical clock stamping operation intervals for the history. Within a
    domain the process's machines (current operation + background
    daemons) interleave cooperatively at Yield points; across domains
    the interleaving is whatever the hardware produces.

    Idle machines park: a pass that ends in a yield with no register
    written anywhere since the pass began leaves its machine parked
    until the run's write epoch moves (see {!Lnd_support.Machine.yield}),
    and a domain whose machines are all parked sleeps instead of
    re-polling. See DESIGN.md, "Pure cores and drivers". *)

open Lnd_support

(** Mutex-protected shared register. *)
module Dcell : sig
  type t

  val make : name:string -> init:Univ.t -> t
  val name : t -> string
  val read : t -> Univ.t
  val write : t -> Univ.t -> unit
end

type t

val create : ?step_budget:int -> unit -> t
(** [step_budget] bounds Machine steps per domain, turning a run that
    diverges while writing into [Error] instead of a hang. Parked
    machines take no steps; a run that can no longer write at all is
    caught as a livelock by {!run}, not by the budget. *)

val add_process :
  t ->
  pid:int ->
  ?correct:bool ->
  ?daemons:Dcell.t Plan.daemon list ->
  Dcell.t Plan.job list ->
  unit
(** Register process [pid]'s daemons and its jobs (run in order, each
    told its invocation stamp before it starts and its response stamp
    when it returns). The job's span, if any, is opened {e before} the
    invocation tick and closed {e after} the response tick, so the
    traced interval brackets [[inv, ret]] and trace-derived precedence
    is a subset of the direct history's. [correct] (default [true])
    makes the process's machines critical: a machine of a
    [~correct:false] process may fail without failing the run. *)

val run : t -> (int, string) result
(** Spawns one domain per registered process, joins them all. [Ok steps]
    (total machine steps across domains) once every job completed.
    [Error _] when:
    - a correct machine raised ("correct machine <label> failed: ...");
    - a domain's step budget ran out ("p<pid>: domain step budget
      exhausted (stepping <label>)");
    - every live domain is blocked with every machine parked on the
      current write epoch, so nothing can ever write again ("livelock at
      write epoch <e>: every machine parked (p1: p1-op, help1; p2:
      help2)"), reported as soon as the last domain blocks;
    - jobs were left incomplete.

    Jobs invoked but unfinished on [Error] have seen [inv] and not
    [ret]. *)
