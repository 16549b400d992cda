(* Ablation: the Section 5.1 strawman VERIFY.

   The paper motivates Algorithm 1's round structure by showing why the
   obvious approach fails: "q can ask all processes whether they are now
   willing to be witnesses of v, and then wait for 2f+1 processes to
   reply: if at least 2f+1 reply Yes then TRUE; if strictly less than f+1
   reply Yes then FALSE" — and a reader caught between f and 2f+1 Yes
   votes is stuck, because answering either way can break the relay
   property (Observation 13).

   [naive_verify_all] implements that strawman directly over the witness
   registers: one pass over every R_j (no rounds, no set_1/set_0
   bookkeeping), then yes-count >= f+1. It always terminates — but the
   test suite demonstrates a schedule where it returns TRUE and a later
   call returns FALSE for the same value: the relay violation Algorithm 1
   exists to prevent. *)

open Lnd_support
open Lnd_runtime
open Machine

let[@lnd.pure] naive_verify_prog ~(q : Quorum.t) (v : Value.t) :
    (Verifiable_core.reg, bool) prog =
  let* sets =
    Verifiable_core.read_all ~n:(Quorum.n q)
      (fun j -> Verifiable_core.R j)
      Verifiable_core.dec_vset
  in
  let yes =
    Array.fold_left (fun c s -> if Value.Set.mem v s then c + 1 else c) 0 sets
  in
  ret (Quorum.has_one_correct q yes)

let naive_verify_all (rg : Verifiable.regs) (v : Value.t) : bool =
  Drive.run ~cell:(Verifiable.cell_of rg) (naive_verify_prog ~q:rg.Verifiable.q v)
