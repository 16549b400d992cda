(** The one judgement every driver and checker applies to a recorded
    history: the paper's observational monitors first, then Byzantine
    linearizability (Definition 7) by exhaustive search.

    The search is exponential, so it is skipped for histories with more
    than {!op_cap} completed operations, and abandoned when its own node
    budget trips ({!Spec.Search_too_large}, handled here and nowhere
    else). Either way the history is judged by the monitors alone and
    the verdict says so. *)

type t =
  | Linearizable  (** monitors passed and the search found a witness *)
  | Monitors_only  (** monitors passed; the search was not decisive *)

val op_cap : int
(** Histories above this many completed operations skip the search. *)

val sticky :
  correct:(int -> bool) ->
  (Spec.Sticky_spec.op, Spec.Sticky_spec.res) History.t ->
  (t, string) result
(** Uniqueness and validity (Observations 16, 18), then Theorem 19. *)

val verifiable :
  correct:(int -> bool) ->
  (Spec.Verifiable_spec.op, Spec.Verifiable_spec.res) History.t ->
  (t, string) result
(** Relay, validity and unforgeability (Observations 11-13), then
    Theorem 14. *)

val testorset :
  correct:(int -> bool) ->
  (Spec.Testorset_spec.op, Spec.Testorset_spec.res) History.t ->
  (t, string) result
(** Bit monotonicity over the correct sub-history (a completed TEST=1
    is never followed by a TEST=0; Definition 20), then Observation 25.
    Monotonicity is checked at any size. *)
