(** Ablation: the Section 5.1 strawman VERIFY.

    The paper motivates Algorithm 1's round structure by showing why the
    obvious approach fails; this one-shot verify implements that
    strawman. It always terminates — but the test suite (A1) exhibits a
    schedule where one call returns TRUE and a later one returns FALSE for
    the same value: the relay violation Algorithm 1 exists to prevent. *)

open Lnd_support

val naive_verify_all : Verifiable.regs -> Value.t -> bool
(** Read every witness register once; TRUE iff at least f+1 contain
    the value. *)
