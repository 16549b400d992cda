(* Algorithm 2 — signature-free SWMR sticky register, writable by p0 (the
   paper's p1) and readable by p1..p(n-1), for n >= 3f + 1.

   Register layout:
     e.(i)        E_i   SWMR, owner p_i: "echo" register  (init ⊥)
     r.(i)        R_i   SWMR, owner p_i: "witness" register (init ⊥)
     rjk.(j).(k)  R_jk  SWSR, owner p_j, reader p_k (k >= 1):
                        ⟨witnessed value or ⊥, timestamp⟩
     c.(k)        C_k   SWMR, owner p_k (k >= 1): round counter

   Once any correct process reads v ≠ ⊥, every later read returns v, even
   if the writer is Byzantine (Observation 18). Correct processes must run
   [help] in the background.

   The protocol itself lives in Sticky_core as pure state-machine
   programs; this module owns the register layout and drives those
   programs on the deterministic simulator (Lnd_runtime.Drive), emitting
   the Obs spans around them. *)

open Lnd_support
open Lnd_runtime
module Obs = Lnd_obs.Obs

type config = { n : int; f : int }

let[@lnd.pure] check_config { n; f } =
  if f < 0 || n < 2 then invalid_arg "Sticky: need n >= 2, f >= 0"

(* The layout is polymorphic in the cell type: Cell.t on the simulator,
   Domains.Dcell.t on the domains driver. *)
type 'c layout = {
  cfg : config;
  q : Quorum.t;
  e : 'c array;
  r : 'c array;
  rjk : 'c array array; (* rjk.(j).(k); column k = 0 unused *)
  c : 'c array; (* c.(0) unused *)
}

type regs = Cell.t layout

(* Allocate the register layout through an arbitrary cell allocator: the
   shared-memory one (the base model), an emulated one (Section 9) or
   the domains driver's. [Quorum.make_relaxed]: the Section 8
   experiments instantiate the algorithm outside its safe zone (n <= 3f)
   on purpose. *)
let alloc_with
    (mk :
      name:string -> owner:int -> ?single_reader:int -> init:Univ.t -> unit -> 'c)
    (cfg : config) : 'c layout =
  check_config cfg;
  let n = cfg.n in
  let q = Quorum.make_relaxed ~n:cfg.n ~f:cfg.f in
  let vopt_init = Univ.inj Codecs.value_opt None in
  let e =
    Array.init n (fun i ->
        mk ~name:(Printf.sprintf "E_%d" i) ~owner:i ~init:vopt_init ())
  in
  let r =
    Array.init n (fun i ->
        mk ~name:(Printf.sprintf "R_%d" i) ~owner:i ~init:vopt_init ())
  in
  let rjk =
    Array.init n (fun j ->
        Array.init n (fun k ->
            if k = 0 then e.(0) (* placeholder, never used *)
            else
              mk
                ~name:(Printf.sprintf "R_{%d,%d}" j k)
                ~owner:j ~single_reader:k
                ~init:(Univ.inj Codecs.vopt_stamped (None, 0))
                ()))
  in
  let c =
    Array.init n (fun k ->
        if k = 0 then e.(0) (* placeholder, never used *)
        else
          mk
            ~name:(Printf.sprintf "C_%d" k)
            ~owner:k
            ~init:(Univ.inj Codecs.counter 0)
            ())
  in
  { cfg; q; e; r; rjk; c }

let alloc space (cfg : config) : regs = alloc_with (Cell.shm_allocator space) cfg

(* Map the core's abstract register names onto this layout (shared by
   every sim-side driver of Sticky_core programs, including the scripted
   adversaries in Lnd_byz). *)
let cell_of (rg : 'c layout) : Sticky_core.reg -> 'c = function
  | Sticky_core.E i -> rg.e.(i)
  | Sticky_core.R i -> rg.r.(i)
  | Sticky_core.Rjk (j, k) -> rg.rjk.(j).(k)
  | Sticky_core.C k -> rg.c.(k)

(* ---------------- Writer (p0): WRITE(v), lines 1-6 ---------------- *)

type writer = { w_regs : regs }

let writer (rg : regs) : writer = { w_regs = rg }

let write (w : writer) (v : Value.t) : unit =
  let rg = w.w_regs in
  let sp =
    if Obs.enabled () then Obs.span_open ~name:"WRITE" ~arg:v () else 0
  in
  Drive.run ~cell:(cell_of rg) (Sticky_core.write_prog ~n:rg.cfg.n ~q:rg.q v);
  if Obs.enabled () then Obs.span_close ~result:"done" ~name:"WRITE" sp

(* ---------------- Readers: READ(), lines 7-22 ---------------- *)

type reader = { rd_regs : regs; rd_pid : int; mutable ck : int }

let reader (rg : regs) ~pid : reader =
  if pid <= 0 || pid >= rg.cfg.n then invalid_arg "Sticky.reader: bad pid";
  { rd_regs = rg; rd_pid = pid; ck = 0 }

let read (rd : reader) : Value.t option =
  let rg = rd.rd_regs in
  let sp = if Obs.enabled () then Obs.span_open ~name:"READ" () else 0 in
  let result, ck =
    Drive.run ~cell:(cell_of rg)
      (Sticky_core.read_prog ~n:rg.cfg.n ~q:rg.q ~pid:rd.rd_pid ~ck:rd.ck)
  in
  rd.ck <- ck;
  if Obs.enabled () then
    Obs.span_close
      ~result:(match result with None -> "⊥" | Some v -> "v:" ^ v)
      ~name:"READ" sp;
  result

(* ---------------- Help() — lines 23-40 ---------------- *)

let help (rg : regs) ~pid : unit =
  Drive.run ~on_note:(Drive.help_spans ()) ~cell:(cell_of rg)
    (Sticky_core.help_prog ~n:rg.cfg.n ~q:rg.q ~pid)
