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

type clock = int Atomic.t

val tick : clock -> int
(** Next logical timestamp (atomic fetch-and-add). *)

type job
(** One client operation: a lazily-built machine program plus a [finish]
    callback receiving the invocation/response timestamps and the
    result. Jobs of one process run sequentially, in order. *)

val job :
  ?span:string * string option ->
  ?render:('a -> string) ->
  ?on_note:(Machine.note -> unit) ->
  cell:('reg -> Dcell.t) ->
  finish:(inv:int -> ret:int -> 'a -> unit) ->
  (unit -> ('reg, 'a) Machine.prog) ->
  job
(** [span] names the Obs operation span (name, optional argument) the
    job runs under when a sink is installed; it is opened {e before} the
    invocation tick and closed — with [render result] — {e after} the
    response tick, so the traced interval brackets [[inv, ret]] and
    trace-derived precedence is a subset of the direct history's.
    [on_note] receives the core's protocol annotations in program order
    (default: ignore), mirroring {!Drive.run}. *)

type daemon
(** A background machine (help loop, scripted adversary). Daemons are
    abandoned once every job of the whole run has completed.
    [critical:false] marks machines whose failure must not fail the run
    (Byzantine processes, mirroring the simulator's treatment). *)

val daemon :
  label:string ->
  ?critical:bool ->
  ?on_note:(Machine.note -> unit) ->
  cell:('reg -> Dcell.t) ->
  ('reg, unit) Machine.prog ->
  daemon

type t

val create : ?step_budget:int -> unit -> t
(** [step_budget] bounds Machine steps per domain, turning a run that
    diverges while writing into [Error] instead of a hang. Parked
    machines take no steps; a run that can no longer write at all is
    caught as a livelock by {!run}, not by the budget. *)

val now : t -> int

val clock : t -> clock
(** The run's logical clock. A traced run installs
    [Obs.install ~clock:(fun () -> tick (clock t))] so every event gets
    a {e unique} stamp from the same fetch-and-add counter that stamps
    operation intervals: the merged multi-domain trace is then totally
    ordered by [at], independent of how the domains raced. *)

val add_process : t -> pid:int -> ?daemons:daemon list -> job list -> unit

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
    - jobs were left incomplete. *)
