(** The protocol-aware lint rules.

    Each rule encodes a repo-wide discipline that the type checker cannot
    enforce:

    {ul
    {- [determinism] — no ambient randomness ([Random.*]) or wall-clock
       reads ([Sys.time], [Unix.gettimeofday]) outside the sanctioned
       seeded generator ([lib/support/rng.ml]); no unordered
       [Hashtbl.iter]/[Hashtbl.fold]/[Hashtbl.to_seq]/[to_seq_keys]/
       [to_seq_values] in protocol or fuzz code (bucket order is
       unspecified and randomizable via [OCAMLRUNPARAM=R], which would
       break seed-replayability).}
    {- [quorum-arithmetic] — no inline Byzantine threshold formulas
       ([n - f], [2*f + 1], [3*f + 1], [f + 1]) in the protocol
       libraries; they must go through [Lnd_support.Quorum] so each
       threshold has exactly one audited definition.}
    {- [transport-seam] — protocol code sends and receives only through
       the [Transport] record seam, never through [Net.*] directly
       (the transport-layer files themselves are exempt).}
    {- [durable-seam] — protocol code never constructs or touches
       [Lnd_durable.Disk] directly; persistence flows through the [Wal]
       append/sync/snapshot API, which owns the checksummed framing and
       crash semantics ([lib/durable] itself is exempt — it IS the
       layer).}
    {- [obs-seam] — protocol code never prints to the std streams
       directly ([print_*], [Printf.printf]/[eprintf],
       [Format.printf]/[eprintf]); diagnostics are typed events emitted
       through the [Lnd_obs.Obs] sink, so the default Null sink keeps
       runs silent and byte-identical.}
    {- [verdict-seam] — [Spec.Search_too_large] is named only under
       [lib/history/]: the exhaustive search's budget has one handler,
       [Lnd_history.Verdict], so no checker can quietly turn "could not
       decide" into "pass" on its own.}
    {- [exception-swallowing] — no [try ... with _ ->]: a catch-all
       silently absorbs assertion failures and scheduler-kill exceptions.}
    {- [interface-hygiene] — every [lib/**/*.ml] has an [.mli]
       (checked by the driver, which knows the filesystem).}
    {- [suppression-hygiene] — every [[\@lnd.allow]] suppression names a
       known rule AND carries a justification:
       [[\@lnd.allow "rule: why this is sound"]].}}

    A finding is suppressed when it falls inside the source span of an
    expression or [let]-binding carrying [[\@lnd.allow "rule: ..."]] for
    its rule, or when the file carries a floating
    [[\@\@\@lnd.allow "rule: ..."]]. *)

type ctx = {
  rng_free : bool;  (** randomness / wall-clock ban active *)
  ordered_iter : bool;  (** [Hashtbl.iter]/[fold] ban active *)
  quorum : bool;  (** inline-threshold ban active *)
  seam : bool;  (** [Net.*] ban active *)
  swallow : bool;  (** catch-all ban active *)
  need_mli : bool;  (** the file must have a sibling [.mli] *)
  durable : bool;  (** [Disk.*] ban active *)
  obs : bool;  (** direct-printing ban active *)
  verdict : bool;  (** [Search_too_large] ban active *)
}

val catalogue : (string * string) list
(** [(rule name, one-line description)] — the registry, also rendered by
    the driver's [--rules] flag and quoted in DESIGN.md. *)

val sem_catalogue : (string * string) list
(** The typedtree-level rules enforced by [lnd_sem] ([lib/sem]):
    [sem-ordering], [sem-sign], [sem-verify], [sem-pure]. Registered
    here so their [[\@lnd.allow]] suppressions pass suppression-hygiene
    and the two drivers share one rule namespace. *)

val rule_names : string list
(** Every known rule name — [catalogue] plus [sem_catalogue] — the set
    suppression-hygiene accepts. *)

val allow_payload : Parsetree.attribute -> string option option
(** Decode one attribute: [None] = not an [[\@lnd.allow]] at all,
    [Some None] = an [[\@lnd.allow]] with a malformed (non-string)
    payload, [Some (Some s)] = the payload string. Shared with the
    typedtree pass, which reads the same attributes off the
    [Typedtree]. *)

val parse_allow : string -> string * string
(** Split an [[\@lnd.allow]] payload into (rule, justification) at the
    first colon; both sides trimmed, empty justification when no colon
    is present. *)

val default_ctx : path:string -> ctx
(** The path-derived context used by the driver: protocol directories
    ([lib/sticky], [lib/verifiable], [lib/msgpass], [lib/broadcast],
    [lib/byz], [lib/fuzz]) get the full discipline; the transport-layer
    files ([net.ml], [faultnet.ml], [rlink.ml], [transport.ml]) are
    exempt from [transport-seam]; [lib/support/rng.ml] is exempt from the
    randomness ban and [lib/support/quorum.ml] from the threshold ban
    (they ARE the sanctioned homes); [lib/history] is exempt from
    [verdict-seam] (it owns the search); everything under [lib/] needs an
    [.mli]. Tests override this to force rules on for fixtures. *)

val run :
  ctx -> file:string -> has_mli:bool -> Parsetree.structure -> Findings.t list
(** Run every AST-level rule over one parsed file, apply suppressions,
    and return the surviving findings (unsorted). *)
