(** Driver #1: run a pure protocol core ({!Lnd_support.Machine}) on the
    deterministic effects-based simulator.

    One [A_read]/[A_write] action is one {!Cell.read}/{!Cell.write} (one
    scheduler step each, in program order); one [A_yield] is one
    {!Sched.yield}. A core driven here performs exactly the effect
    sequence of the inlined implementation it was extracted from. *)

open Lnd_support

val run :
  ?on_note:(Machine.note -> unit) ->
  cell:('reg -> Cell.t) ->
  ('reg, 'a) Machine.prog ->
  'a
(** Must be invoked from within a fiber. [on_note] receives protocol
    annotations in program order (default: ignore); protocol drivers map
    them to Obs spans. *)

val job : Cell.t Plan.job -> unit
(** Run one plan job to completion in the calling fiber: invocation and
    response stamped by {!Sched.tick}, the job's Obs span (when a sink
    is installed) opened after the invocation and closed before the
    response. *)

val daemon : Cell.t Plan.daemon -> unit
(** Run a plan daemon in the calling fiber; it never returns. *)

val help_spans : unit -> Machine.note -> unit
(** A fresh [on_note] handler for one help daemon, on either driver:
    one Obs [HELP] span per round that actually serves askers, opened on
    [Serving askers] and closed on [Served]. Silent under the Null
    sink. *)
