(** Test-or-set (Definition 20) as a pure state machine: both
    Observation 25 constructions, composed from {!Lnd_sticky.Sticky_core}
    / {!Lnd_verifiable.Verifiable_core} under one register namespace via
    [Machine.map_reg]. Help() is the underlying register's own. Both
    drivers of the differential suite run these SET/TEST programs from
    the one plan [Lnd_parallel.Diff.plan] builds; the {!Testorset}
    facade reaches the same cores through the sticky/verifiable sim
    drivers. *)

open Lnd_support

val one : Value.t
(** The value standing for the set bit. *)

type reg =
  | Sreg of Lnd_sticky.Sticky_core.reg
  | Vreg of Lnd_verifiable.Verifiable_core.reg

val sreg : Lnd_sticky.Sticky_core.reg -> reg
val vreg : Lnd_verifiable.Verifiable_core.reg -> reg

(** {2 From a sticky register} *)

val set_sticky_prog : n:int -> q:Quorum.t -> (reg, unit) Machine.prog

val test_sticky_prog :
  n:int -> q:Quorum.t -> pid:int -> ck:int -> (reg, int * int) Machine.prog
(** Returns (bit, new round counter); the driver owns the tester's
    persistent [ck]. *)

(** {2 From a verifiable register} *)

val set_verifiable_prog :
  written:Value.Set.t -> (reg, bool * Value.Set.t) Machine.prog
(** SET = WRITE(1); SIGN(1). Returns (signed, the setter's updated local
    written-set). *)

val test_verifiable_prog :
  n:int -> q:Quorum.t -> pid:int -> ck:int -> (reg, int * int) Machine.prog
