(** Algorithm 1 — signature-free SWMR multivalued verifiable register,
    writable by process p0 (the paper's p1) and readable by p1..p(n-1),
    for n >= 3f + 1 (Theorem 14).

    Register layout (one {!regs} per verifiable-register instance):
    {ul
    {- [rstar] — R*, SWMR, owner p0: the current value (init {!Lnd_support.Value.v0});}
    {- [r.(i)] — R_i, SWMR, owner p_i: the set of values p_i witnesses;}
    {- [rjk.(j).(k)] — R_jk, SWSR, owner p_j, reader p_k (k >= 1):
       ⟨witness set, timestamp⟩ mailboxes;}
    {- [c.(k)] — C_k, SWMR, owner p_k (k >= 1): round counter.}}

    Every correct process must run {!help} as a background (daemon)
    fiber; operations are called from fibers of the owning process. All
    register reads decode defensively: ill-typed contents written by a
    Byzantine owner are treated as the register's initial value.

    The [regs] record is transparent so that adversaries
    ([Lnd_byz.Byz_verifiable]) and scenario harnesses can aim at specific
    registers — Byzantine code is ordinary fiber code here. *)

open Lnd_support
open Lnd_runtime

type config = { n : int; f : int }

type 'c layout = {
  cfg : config;
  q : Quorum.t;  (** the thresholds derived from [cfg] (central arithmetic) *)
  rstar : 'c;
  r : 'c array;
  rjk : 'c array array; (** [rjk.(j).(k)]; column k = 0 unused *)
  c : 'c array; (** [c.(0)] unused *)
}
(** The register layout over any cell type. *)

type regs = Cell.t layout
(** The layout on the simulator. *)

module VSet = Value.Set

val alloc_with :
  (name:string -> owner:int -> ?single_reader:int -> init:Univ.t -> unit -> 'c) ->
  config ->
  'c layout
(** Allocate the register layout through an arbitrary cell allocator, in
    the order R*, R, R_{j,k}, C: the shared-memory one (the base model),
    an emulated one (Section 9), a regular-register one (E13), or the
    domains driver's [Dcell.make]. [alloc_with] deliberately does not
    insist on n > 3f: the Section 8 optimality experiments instantiate
    the algorithm outside its safe zone on purpose. *)

val alloc : Lnd_shm.Space.t -> config -> regs
(** [alloc_with (Cell.shm_allocator space)]. *)

val cell_of : 'c layout -> Verifiable_core.reg -> 'c
(** Map the pure core's abstract register names onto this layout (used
    by every driver that runs {!Verifiable_core} programs over these
    cells). *)

(** {2 Writer (p0)} *)

type writer = {
  w_regs : regs;
  mutable written : VSet.t; (** the local set r* of lines 2/4 *)
}

val writer : regs -> writer

val write : writer -> Value.t -> unit
(** WRITE(v): lines 1-3. *)

val sign : writer -> Value.t -> bool
(** SIGN(v): lines 4-8. [true] = SUCCESS, [false] = FAIL (v was never
    written by this writer). *)

(** {2 Readers (p1 .. p(n-1))} *)

type reader = { rd_regs : regs; rd_pid : int; mutable ck : int }
(** Keep ONE reader handle per (process, register) for the process's
    lifetime: the round counter [ck] must be monotone across all of that
    reader's operations. *)

val reader : regs -> pid:int -> reader

val read : reader -> Value.t
(** READ(): lines 9-10. *)

val verify : reader -> Value.t -> bool
(** VERIFY(v): lines 11-24. Terminates for any correct reader when
    n > 3f (Theorem 40); outside that bound it may loop, so callers
    running deliberately-broken configurations should bound scheduler
    steps. *)

(** {2 Background helper} *)

val help : regs -> pid:int -> unit
(** Help(): lines 25-36. Runs forever; spawn as a daemon fiber of
    process [pid]. Maintains the witness set R_pid and answers ongoing
    VERIFY operations through the R_pid,k mailboxes. *)
