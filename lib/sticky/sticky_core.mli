(** Algorithm 2 as a pure state machine.

    Programs over abstract register names ({!reg}); no scheduler, Obs or
    transport calls. {!Sticky} drives them on the simulator,
    [Lnd_parallel] on OCaml 5 domains. The register-access order is
    load-bearing (golden baselines + DPOR counts pin it). *)

open Lnd_support

type reg =
  | E of int  (** echo register E_i, owner p_i *)
  | R of int  (** witness register R_i, owner p_i *)
  | Rjk of int * int  (** R_{j,k}: owner p_j, single reader p_k (k >= 1) *)
  | C of int  (** round counter C_k, owner p_k (k >= 1) *)

(** {2 Decoders/encoders (defensive: ill-typed content reads as the
    initial value)} *)

val dec_vopt : Univ.t -> Value.t option
val dec_stamped : Univ.t -> Value.t option * int
val dec_counter : Univ.t -> int
val enc_vopt : Value.t option -> Univ.t
val enc_stamped : Value.t option -> int -> Univ.t
val enc_counter : int -> Univ.t

(** {2 The protocol programs} *)

val write_prog : n:int -> q:Quorum.t -> Value.t -> (reg, unit) Machine.prog
(** WRITE(v), lines 1-6 (a second write is a no-op). *)

val announce : Value.t -> (reg, bool) Machine.prog
(** Lines 1-2 alone: write [v] to E_0 unless it already holds a value;
    [true] iff it wrote. *)

val read_prog :
  n:int -> q:Quorum.t -> pid:int -> ck:int ->
  (reg, Value.t option * int) Machine.prog
(** READ(), lines 7-22. Returns (result, new round counter); the driver
    owns the reader's persistent [ck]. *)

val help_prog : n:int -> q:Quorum.t -> pid:int -> (reg, unit) Machine.prog
(** Help(), lines 23-40; never returns. Emits [Serving askers]/[Served]
    notes around each round that answers askers. *)

(** {2 Help's parts (shared with the §7.1 ablation)} *)

val help_with :
  n:int ->
  pid:int ->
  witness:(reg, unit) Machine.prog ->
  amplify:(reg, unit) Machine.prog ->
  (reg, unit) Machine.prog
(** Help's loop — echo (lines 25-27), [witness], poll the counters
    (lines 31-32), and in a round with askers [amplify] then answer them
    (lines 37-40). {!help_prog} is [help_with] with lines 28-30 as
    [witness] and lines 34-36 as [amplify]. *)

val adopt : pid:int -> (reg, Value.t option) Machine.prog -> (reg, unit) Machine.prog
(** [adopt ~pid pick]: while R_pid is ⊥, write the value [pick] finds
    into it — the shape of both of Help's witness steps. *)
