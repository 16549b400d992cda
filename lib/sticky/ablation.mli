(** Ablations for Algorithm 2, straight from the Section 7.1 prose.
    Each is one of {!Sticky_core}'s programs with a part taken out, run
    by {!Lnd_runtime.Drive}. Both variants exhibit their predicted
    failures in test suite A2/A3 and bench table T8. *)

open Lnd_support

val write_nowait : Sticky.writer -> Value.t -> unit
(** WRITE without the lines 3-5 witness wait. The paper's remark: without
    the wait, "a process may invoke a READ after a WRITE(v) completes and
    get back ⊥" — measured in 20/20 adversarial schedules. *)

val help_lax : Sticky.regs -> pid:int -> unit
(** Help with Algorithm 1's LAX witness policy (witness the writer's
    current value on sight, no echo quorum). An equivocating writer can
    then split the correct witnesses between two values, and READs can no
    longer assemble an n-f quorum. *)
