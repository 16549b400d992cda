(* Test-or-set (Definition 20) as a pure state machine: the two
   Observation 25 constructions, expressed by composing the underlying
   register cores under a shared register namespace (Machine.map_reg).

   - From a sticky register R: SET = WRITE(1); TEST = READ, returning 1
     iff the read returns 1.
   - From a verifiable register R (v0 = 0): SET = WRITE(1); SIGN(1);
     TEST = VERIFY(1), returning 1 iff the verify returns true.

   Help() is the underlying register's own (Sticky_core/Verifiable_core
   help_prog over that register's names): a test-or-set adds no helping.
   Both drivers of the differential suite run SET and TEST as the
   composed programs below, from the one plan Lnd_parallel.Diff builds;
   the effects-era Testorset facade reaches the same cores through the
   sticky/verifiable sim drivers, emitting their nested
   READ/VERIFY/WRITE/SIGN spans too. All execute identical access
   sequences. *)

open Lnd_support
open Machine
module S_core = Lnd_sticky.Sticky_core
module V_core = Lnd_verifiable.Verifiable_core

let one : Value.t = "1"

(* One namespace over both backends' registers; a concrete instance maps
   only the half its construction uses. *)
type reg = Sreg of S_core.reg | Vreg of V_core.reg

let[@lnd.pure] sreg r = Sreg r
let[@lnd.pure] vreg r = Vreg r

(* ---------------- From a sticky register ---------------- *)

let[@lnd.pure] set_sticky_prog ~n ~(q : Quorum.t) : (reg, unit) prog =
  map_reg sreg (S_core.write_prog ~n ~q one)

(* Returns (bit, new round counter); the driver owns the tester's
   persistent [ck]. *)
let[@lnd.pure] test_sticky_prog ~n ~(q : Quorum.t) ~pid ~ck :
    (reg, int * int) prog =
  let* res, ck = map_reg sreg (S_core.read_prog ~n ~q ~pid ~ck) in
  let bit =
    match res with Some v when Value.equal v one -> 1 | Some _ | None -> 0
  in
  ret (bit, ck)

(* ---------------- From a verifiable register ---------------- *)

(* SET = WRITE(1); SIGN(1). Returns (signed, the setter's updated local
   written-set); a correct setter's SIGN always succeeds. *)
let[@lnd.pure] set_verifiable_prog ~(written : Value.Set.t) :
    (reg, bool * Value.Set.t) prog =
  let* () = map_reg vreg (V_core.write_prog one) in
  let written = Value.Set.add one written in
  let* signed = map_reg vreg (V_core.sign_prog ~written one) in
  ret (signed, written)

let[@lnd.pure] test_verifiable_prog ~n ~(q : Quorum.t) ~pid ~ck :
    (reg, int * int) prog =
  let* ok, ck = map_reg vreg (V_core.verify_prog ~n ~q ~pid ~ck one) in
  ret ((if ok then 1 else 0), ck)
