(* Algorithm 1 — signature-free SWMR multivalued verifiable register,
   writable by process p0 (the paper's p1) and readable by p1..p(n-1),
   for n >= 3f + 1.

   Register layout (one [regs] per verifiable register instance):
     rstar        R*    SWMR, owner p0, holds the current value (init v0)
     r.(i)        R_i   SWMR, owner p_i, set of values p_i witnesses
     rjk.(j).(k)  R_jk  SWSR, owner p_j, reader p_k (k >= 1),
                        holds ⟨witness set, timestamp⟩
     c.(k)        C_k   SWMR, owner p_k (k >= 1), round counter

   Every correct process must run [help] as a background fiber; operations
   are called from the owner process's operation fiber. All register reads
   decode defensively: ill-typed contents written by a Byzantine owner are
   treated as the register's initial value.

   The protocol itself lives in Verifiable_core as pure state-machine
   programs; this module owns the register layout and drives those
   programs on the deterministic simulator (Lnd_runtime.Drive), emitting
   the Obs spans around them. *)

open Lnd_support
open Lnd_runtime
module Obs = Lnd_obs.Obs

type config = { n : int; f : int }

let[@lnd.pure] check_config { n; f } =
  if f < 0 || n < 2 then invalid_arg "Verifiable: need n >= 2, f >= 0"

(* [alloc] does not insist on n > 3f: the optimality experiments of
   Section 8 deliberately instantiate the algorithm outside its safe zone
   (n <= 3f) to exhibit the impossibility of Theorem 23. *)

(* The layout is polymorphic in the cell type: Cell.t on the simulator,
   Domains.Dcell.t on the domains driver. *)
type 'c layout = {
  cfg : config;
  q : Quorum.t;
  rstar : 'c;
  r : 'c array;
  rjk : 'c array array; (* rjk.(j).(k); row k = 0 unused *)
  c : 'c array; (* c.(0) unused *)
}

type regs = Cell.t layout

module VSet = Value.Set

(* Allocate the register layout through an arbitrary cell allocator: the
   shared-memory one (the base model), an emulated one (Section 9) or
   the domains driver's. *)
let alloc_with
    (mk :
      name:string -> owner:int -> ?single_reader:int -> init:Univ.t -> unit -> 'c)
    (cfg : config) : 'c layout =
  check_config cfg;
  let n = cfg.n in
  (* [make_relaxed]: Section 8 deliberately instantiates n <= 3f. *)
  let q = Quorum.make_relaxed ~n:cfg.n ~f:cfg.f in
  let rstar = mk ~name:"R*" ~owner:0 ~init:(Univ.inj Codecs.value Value.v0) () in
  let r =
    Array.init n (fun i ->
        mk
          ~name:(Printf.sprintf "R_%d" i)
          ~owner:i
          ~init:(Univ.inj Codecs.vset VSet.empty)
          ())
  in
  let rjk =
    Array.init n (fun j ->
        Array.init n (fun k ->
            if k = 0 then r.(0) (* placeholder, never used *)
            else
              mk
                ~name:(Printf.sprintf "R_{%d,%d}" j k)
                ~owner:j ~single_reader:k
                ~init:(Univ.inj Codecs.vset_stamped (VSet.empty, 0))
                ()))
  in
  let c =
    Array.init n (fun k ->
        if k = 0 then rstar (* placeholder, never used *)
        else
          mk
            ~name:(Printf.sprintf "C_%d" k)
            ~owner:k
            ~init:(Univ.inj Codecs.counter 0)
            ())
  in
  { cfg; q; rstar; r; rjk; c }

let alloc space (cfg : config) : regs = alloc_with (Cell.shm_allocator space) cfg

(* Map the core's abstract register names onto this layout. *)
let cell_of (rg : 'c layout) : Verifiable_core.reg -> 'c = function
  | Verifiable_core.Rstar -> rg.rstar
  | Verifiable_core.R i -> rg.r.(i)
  | Verifiable_core.Rjk (j, k) -> rg.rjk.(j).(k)
  | Verifiable_core.C k -> rg.c.(k)

(* ---------------- Writer (p0) ---------------- *)

type writer = { w_regs : regs; mutable written : VSet.t (* the local set r* *) }

let writer (rg : regs) : writer = { w_regs = rg; written = VSet.empty }

(* WRITE(v): lines 1-3. *)
let write (w : writer) (v : Value.t) : unit =
  let sp =
    if Obs.enabled () then Obs.span_open ~name:"WRITE" ~arg:v () else 0
  in
  Drive.run ~cell:(cell_of w.w_regs) (Verifiable_core.write_prog v);
  w.written <- VSet.add v w.written;
  if Obs.enabled () then Obs.span_close ~result:"done" ~name:"WRITE" sp

(* SIGN(v): lines 4-8. Returns true for SUCCESS, false for FAIL. *)
let sign (w : writer) (v : Value.t) : bool =
  let sp =
    if Obs.enabled () then Obs.span_open ~name:"SIGN" ~arg:v () else 0
  in
  let res =
    Drive.run ~cell:(cell_of w.w_regs)
      (Verifiable_core.sign_prog ~written:w.written v)
  in
  if Obs.enabled () then
    Obs.span_close ~result:(string_of_bool res) ~name:"SIGN" sp;
  res

(* ---------------- Readers (p1 .. p(n-1)) ---------------- *)

type reader = { rd_regs : regs; rd_pid : int; mutable ck : int }

let reader (rg : regs) ~pid : reader =
  if pid <= 0 || pid >= rg.cfg.n then invalid_arg "Verifiable.reader: bad pid";
  { rd_regs = rg; rd_pid = pid; ck = 0 }

(* READ(): lines 9-10. *)
let read (rd : reader) : Value.t =
  let sp = if Obs.enabled () then Obs.span_open ~name:"READ" () else 0 in
  let v = Drive.run ~cell:(cell_of rd.rd_regs) Verifiable_core.read_prog in
  if Obs.enabled () then Obs.span_close ~result:("v:" ^ v) ~name:"READ" sp;
  v

(* VERIFY(v): lines 11-24. Terminates for any correct reader when n > 3f
   (Theorem 40); outside that bound it may loop, so callers running
   deliberately-broken configurations should bound scheduler steps. *)
let verify (rd : reader) (v : Value.t) : bool =
  let rg = rd.rd_regs in
  let sp =
    if Obs.enabled () then Obs.span_open ~name:"VERIFY" ~arg:v () else 0
  in
  let res, ck =
    Drive.run ~cell:(cell_of rg)
      (Verifiable_core.verify_prog ~n:rg.cfg.n ~q:rg.q ~pid:rd.rd_pid
         ~ck:rd.ck v)
  in
  rd.ck <- ck;
  if Obs.enabled () then
    Obs.span_close ~result:(string_of_bool res) ~name:"VERIFY" sp;
  res

(* ---------------- Help() — lines 25-36 ---------------- *)

(* Run forever as a daemon fiber of process [pid]; assists all ongoing
   VERIFY operations by maintaining the witness set R_pid and answering
   askers through R_{pid,k}. *)
let help (rg : regs) ~pid : unit =
  Drive.run ~on_note:(Drive.help_spans ()) ~cell:(cell_of rg)
    (Verifiable_core.help_prog ~n:rg.cfg.n ~q:rg.q ~pid)
