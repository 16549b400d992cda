(** Pure protocol state machines.

    A protocol core is a resumable program over abstract register names
    with no scheduler, transport, or Obs calls inside. The residual
    program is the machine state, and {!step} exposes the uniform
    [state -> event -> state * action list] shape; drivers interpret the
    actions against a concrete substrate (the deterministic simulator,
    or the OCaml 5 domains backend). See DESIGN.md, "Pure cores and
    drivers". *)

type note = Serving of int list | Served
    (** Protocol-level annotations: a helper starts serving the listed
        askers / finished serving them. The sim driver maps these to the
        HELP Obs spans the inlined implementations used to emit. *)

type ('reg, 'a) prog =
  | Ret of 'a
  | Read of 'reg * (Univ.t -> ('reg, 'a) prog)
  | Write of 'reg * Univ.t * (unit -> ('reg, 'a) prog)
  | Yield of (unit -> ('reg, 'a) prog)
  | Note of note * (unit -> ('reg, 'a) prog)

(** {2 Combinators} *)

val ret : 'a -> ('reg, 'a) prog
val read : 'reg -> ('reg, Univ.t) prog
val write : 'reg -> Univ.t -> ('reg, unit) prog

val yield : ('reg, unit) prog
(** A voluntary scheduling point that means "nothing to do until some
    register changes": every core yields only at the end of a poll pass
    whose outcome depends on register contents alone, so the same pass
    repeated over unchanged registers would read the same values and
    yield again. A driver may therefore park a machine whose last pass
    ended in a yield with no register written by anyone since the pass
    began, until the next write (Sched's park-on-yield mode; the domains
    driver always). A program that yields to wait for anything other
    than a register write would starve under such a driver. *)

val note : note -> ('reg, unit) prog
val bind : ('reg, 'a) prog -> ('a -> ('reg, 'b) prog) -> ('reg, 'b) prog
val ( let* ) : ('reg, 'a) prog -> ('a -> ('reg, 'b) prog) -> ('reg, 'b) prog

val map_reg : ('r1 -> 'r2) -> ('r1, 'a) prog -> ('r2, 'a) prog
(** Rename registers — used to compose cores (test-or-set runs a sticky
    or verifiable core under an injected register namespace). *)

(** {2 The step function} *)

type 'reg action =
  | A_write of 'reg * Univ.t
  | A_note of note
  | A_read of 'reg  (** blocking: answer with [Got value] *)
  | A_yield  (** blocking: answer with [Ack] after rescheduling *)
  | A_done  (** the program returned; {!result} is now [Some _] *)

type event = Start | Got of Univ.t | Ack

exception Protocol_error of string
(** A driver delivered an event the state cannot consume (answered a
    yield with a value, resumed a finished machine, ...). *)

val step : ('reg, 'a) prog -> event -> ('reg, 'a) prog * 'reg action list
(** [step st ev] consumes the pending event and runs the machine to its
    next blocking point. The action list is zero or more non-blocking
    actions ([A_write]/[A_note]), in program order, followed by exactly
    one blocking action ([A_read r] — answer with [Got v]; [A_yield] —
    answer with [Ack]; or [A_done]). The first call uses [Start]. *)

val result : ('reg, 'a) prog -> 'a option
(** [Some a] once the machine has returned. *)
