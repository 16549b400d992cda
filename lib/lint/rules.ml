(* The protocol-aware rules, as one Ast_iterator pass per file.

   The walk accumulates raw findings and [@lnd.allow] suppression spans
   side by side, then filters: a finding survives unless an enclosing
   expression/binding (or the whole file, for floating [@@@lnd.allow])
   allows its rule. Spans are compared by byte offset, which is robust
   against any pretty-printing concerns — we only ever look at locations
   the parser produced for this exact source text. *)

open Parsetree

type ctx = {
  rng_free : bool;
  ordered_iter : bool;
  quorum : bool;
  seam : bool;
  swallow : bool;
  need_mli : bool;
  durable : bool;
  obs : bool;
  verdict : bool;
}

let catalogue =
  [
    ( "determinism",
      "no Random.*/Sys.time/Unix.gettimeofday outside lib/support/rng.ml; \
       no unordered Hashtbl.iter/fold/to_seq* in protocol, fuzz or \
       runtime code (the scheduler and the Explore model checker replay \
       schedules step-for-step; bucket order would diverge them)" );
    ( "quorum-arithmetic",
      "no inline n-f / f+1 / 2*f+1 / 3*f+1 in protocol libraries; \
       thresholds come from Lnd_support.Quorum" );
    ( "transport-seam",
      "protocol code talks through the Transport record, never Net.* \
       directly" );
    ( "durable-seam",
      "protocol code never constructs or touches Lnd_durable.Disk \
       directly; persistence flows through the Wal append/sync/snapshot \
       API (which owns the checksummed framing and crash semantics)" );
    ( "obs-seam",
      "protocol code never prints to the std streams directly \
       (print_* / Printf.printf / Format.eprintf); diagnostics flow \
       through the Lnd_obs.Obs sink, which stays silent and free under \
       the default Null sink" );
    ( "verdict-seam",
      "Spec.Search_too_large is named only under lib/history/: the \
       search budget has one handler, Lnd_history.Verdict, and every \
       checker judges histories through it" );
    ("exception-swallowing", "no catch-all `try ... with _ ->`");
    ("interface-hygiene", "every lib/**/*.ml has a sibling .mli");
    ( "suppression-hygiene",
      "[@lnd.allow] must name a known rule and justify itself: \
       \"rule: why this is sound\"" );
    ("parse-error", "the file must parse (driver-level)");
  ]

(* The typedtree-level rules enforced by lnd_sem (lib/sem). They live in
   the same namespace so [@lnd.allow "sem-...: justification"] passes
   suppression-hygiene here, and so the two drivers present one combined
   rule catalogue. *)
let sem_catalogue =
  [
    ( "sem-ordering",
      "journal, sync, only then speak: on every intraprocedural path, a \
       Wal.append must reach a Wal.sync/snapshot barrier before any \
       Transport send exposes the journalled state (interprocedural via \
       per-function effect summaries)" );
    ( "sem-sign",
      "sign before send: a locally fabricated signature-carrying claim \
       (cert, signature record) may not reach a send or register write \
       unless Sigoracle.sign was called first on that path; \
       constructing a signature record outside lib/crypto is always a \
       finding" );
    ( "sem-verify",
      "verify before trust: signature-carrying data obtained from a \
       register read or transport poll may not flow into register state \
       or a send unless Sigoracle.verify (or a verify-calling helper) \
       appears on the path before the sink" );
    ( "sem-pure",
      "[@lnd.pure] bodies are effect-free: no mutation of non-local \
       state, no Effect.perform, no scheduler/Transport/Wal/Obs calls, \
       no ambient randomness or printing; local callees must be \
       transitively pure" );
  ]

let rule_names = List.map fst catalogue @ List.map fst sem_catalogue

(* ---------------- Path classification ---------------- *)

let norm path = String.map (fun c -> if c = '\\' then '/' else c) path

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let in_dir dir p =
  String.starts_with ~prefix:(dir ^ "/") p || contains ~needle:("/" ^ dir ^ "/") p

let protocol_dirs =
  [
    "lib/sticky";
    "lib/verifiable";
    "lib/msgpass";
    "lib/broadcast";
    "lib/byz";
    "lib/fuzz";
    "lib/durable";
    "lib/audit";
  ]

(* The determinism rule's unordered-iteration arm additionally covers
   the runtime: Sched replays recorded fiber trails and Explore proves
   schedule-space exhaustion by replaying prefixes step-for-step, so an
   unspecified (and randomizable) Hashtbl bucket order anywhere in that
   machinery silently breaks counterexample replay. lib/parallel rides
   along: its sim driver renders the byte-identical golden baselines,
   so its iteration order is equally load-bearing. *)
let ordered_iter_dirs = "lib/runtime" :: "lib/parallel" :: protocol_dirs

let quorum_dirs =
  [ "lib/sticky"; "lib/verifiable"; "lib/msgpass"; "lib/audit" ]

(* lib/runtime and lib/parallel ride along: the domains driver and the
   differential suite run with the Null sink in tests, so a stray
   print_* there would break the byte-identical golden baselines just
   as surely as one in a protocol core. *)
let obs_dirs =
  [
    "lib/sticky";
    "lib/verifiable";
    "lib/msgpass";
    "lib/broadcast";
    "lib/audit";
    "lib/runtime";
    "lib/parallel";
  ]

(* The files that ARE the transport: they implement the stack below the
   seam, so of course they touch Net. *)
let transport_layer_files =
  [
    "lib/msgpass/net.ml";
    "lib/msgpass/faultnet.ml";
    "lib/msgpass/rlink.ml";
    "lib/msgpass/transport.ml";
  ]

let default_ctx ~path =
  let p = norm path in
  let protocol = List.exists (fun d -> in_dir d p) protocol_dirs in
  let transport_layer =
    List.exists (fun t -> String.ends_with ~suffix:t p) transport_layer_files
  in
  {
    rng_free = not (String.ends_with ~suffix:"lib/support/rng.ml" p);
    ordered_iter = List.exists (fun d -> in_dir d p) ordered_iter_dirs;
    quorum = List.exists (fun d -> in_dir d p) quorum_dirs;
    seam = protocol && not transport_layer;
    swallow = true;
    need_mli = in_dir "lib" p;
    (* lib/durable IS the durable layer (Wal sits on Disk by design) *)
    durable = protocol && not (in_dir "lib/durable" p);
    obs = List.exists (fun d -> in_dir d p) obs_dirs;
    verdict = not (in_dir "lib/history" p);
  }

(* ---------------- Suppressions ---------------- *)

type span = { sp_rule : string; sp_start : int; sp_end : int }

let allow_payload (attr : attribute) : string option option =
  (* [Some (Some s)] = string payload, [Some None] = malformed payload,
     [None] = not an [@lnd.allow] at all. *)
  if attr.attr_name.txt <> "lnd.allow" then None
  else
    match attr.attr_payload with
    | PStr
        [
          {
            pstr_desc =
              Pstr_eval
                ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
            _;
          };
        ] ->
        Some (Some s)
    | _ -> Some None

let parse_allow (s : string) : string * string =
  match String.index_opt s ':' with
  | None -> (String.trim s, "")
  | Some i ->
      ( String.trim (String.sub s 0 i),
        String.trim (String.sub s (i + 1) (String.length s - i - 1)) )

(* ---------------- The per-file pass ---------------- *)

let run (ctx : ctx) ~file ~has_mli (str : structure) : Findings.t list =
  let raw : (int * Findings.t) list ref = ref [] in
  let spans : span list ref = ref [] in
  let file_allows : string list ref = ref [] in
  let add ~(loc : Location.t) rule msg =
    let p = loc.Location.loc_start in
    raw :=
      ( p.Lexing.pos_cnum,
        {
          Findings.rule;
          file;
          line = p.Lexing.pos_lnum;
          col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
          msg;
        } )
      :: !raw
  in
  (* Record one [@lnd.allow] and police its shape. [span = None] means a
     floating attribute: the whole file. *)
  let note_allow ~(span : Location.t option) (attr : attribute) =
    match allow_payload attr with
    | None -> ()
    | Some None ->
        add ~loc:attr.attr_loc "suppression-hygiene"
          "[@lnd.allow] payload must be a string literal \
           \"rule: justification\""
    | Some (Some s) ->
        let rule, justification = parse_allow s in
        if not (List.mem rule rule_names) then
          add ~loc:attr.attr_loc "suppression-hygiene"
            (Printf.sprintf "[@lnd.allow] names unknown rule %S" rule);
        if justification = "" then
          add ~loc:attr.attr_loc "suppression-hygiene"
            (Printf.sprintf
               "suppression of %S carries no justification (want \
                \"%s: why this is sound\")"
               rule rule);
        (match span with
        | None -> file_allows := rule :: !file_allows
        | Some l ->
            spans :=
              {
                sp_rule = rule;
                sp_start = l.Location.loc_start.Lexing.pos_cnum;
                sp_end = l.Location.loc_end.Lexing.pos_cnum;
              }
              :: !spans)
  in
  (* -------- determinism + transport-seam: banned identifiers -------- *)
  let check_ident ~loc (id : Longident.t) =
    match id with
    | Ldot (Lident "Random", _) when ctx.rng_free ->
        add ~loc "determinism"
          "direct Random.* use; all randomness flows through \
           Lnd_support.Rng (lib/support/rng.ml) so runs replay from seeds"
    | Ldot (Lident "Sys", "time") when ctx.rng_free ->
        add ~loc "determinism"
          "wall-clock read (Sys.time); the simulator's only clock is the \
           scheduler's logical clock"
    | Ldot (Lident "Unix", ("time" | "gettimeofday")) when ctx.rng_free ->
        add ~loc "determinism"
          "wall-clock read (Unix.*); the simulator's only clock is the \
           scheduler's logical clock"
    | Ldot (Lident "Hashtbl", (("iter" | "fold") as op))
      when ctx.ordered_iter ->
        add ~loc "determinism"
          (Printf.sprintf
             "unordered Hashtbl.%s in protocol/fuzz code (bucket order is \
              unspecified and randomizable); use \
              Lnd_support.Tables.%s_sorted or justify with [@lnd.allow]"
             op
             (if op = "iter" then "iter" else "fold"))
    | Ldot (Lident "Hashtbl", (("to_seq" | "to_seq_keys" | "to_seq_values") as op))
      when ctx.ordered_iter ->
        add ~loc "determinism"
          (Printf.sprintf
             "Hashtbl.%s enumerates in unspecified (randomizable) bucket \
              order, exactly like Hashtbl.iter; sort through \
              Lnd_support.Tables or justify with [@lnd.allow]"
             op)
    | (Ldot (Lident "Net", _) | Ldot (Ldot (_, "Net"), _)) when ctx.seam ->
        add ~loc "transport-seam"
          "direct Net access in protocol code; send and receive through \
           the Transport record seam so the same code runs over Net, \
           Faultnet and Rlink"
    | (Ldot (Lident "Disk", _) | Ldot (Ldot (_, "Disk"), _))
      when ctx.durable ->
        add ~loc "durable-seam"
          "direct Disk access in protocol code; journal through the Wal \
           append/sync/snapshot API, which owns the checksummed framing \
           and crash semantics"
    | Lident
        (( "print_string" | "print_endline" | "print_newline" | "print_int"
         | "print_char" | "print_float" | "prerr_string" | "prerr_endline" )
         as fn)
      when ctx.obs ->
        add ~loc "obs-seam"
          (Printf.sprintf
             "direct %s in protocol code; emit a typed event through the \
              Lnd_obs.Obs sink instead — the default Null sink keeps runs \
              silent, replayable and byte-identical"
             fn)
    | Ldot (Lident (("Printf" | "Format") as m), (("printf" | "eprintf") as fn))
      when ctx.obs ->
        add ~loc "obs-seam"
          (Printf.sprintf
             "direct %s.%s in protocol code; emit a typed event through \
              the Lnd_obs.Obs sink instead — the default Null sink keeps \
              runs silent, replayable and byte-identical"
             m fn)
    | _ -> ()
  in
  (* -------- verdict-seam: the search budget outside lib/history -------- *)
  let check_constr ~loc (id : Longident.t) =
    match id with
    | (Lident "Search_too_large" | Ldot (_, "Search_too_large"))
      when ctx.verdict ->
        add ~loc "verdict-seam"
          "Search_too_large handled outside lib/history; judge the \
           history through Lnd_history.Verdict, which owns the one \
           handler and reports Monitors_only"
    | _ -> ()
  in
  (* -------- quorum-arithmetic: inline threshold formulas -------- *)
  let last_name (e : expression) : string option =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
        match Longident.flatten txt with
        | [] -> None
        | l -> Some (List.nth l (List.length l - 1)))
    | Pexp_field (_, { txt; _ }) -> (
        match Longident.flatten txt with
        | [] -> None
        | l -> Some (List.nth l (List.length l - 1)))
    | _ -> None
  in
  let is_f_like e =
    match last_name e with
    | Some s -> s = "f" || String.ends_with ~suffix:"_f" s
    | None -> false
  in
  let is_int_const k e =
    match e.pexp_desc with
    | Pexp_constant (Pconst_integer (s, None)) -> s = string_of_int k
    | _ -> false
  in
  let check_quorum ~loc (e : expression) =
    if ctx.quorum then
      match e.pexp_desc with
      | Pexp_apply
          ({ pexp_desc = Pexp_ident { txt = Lident op; _ }; _ },
           [ (Nolabel, a); (Nolabel, b) ]) -> (
          match op with
          | "-" when is_f_like b ->
              add ~loc "quorum-arithmetic"
                "inline availability threshold (… - f); use \
                 Quorum.availability / Quorum.has_availability"
          | "*" when (is_int_const 2 a && is_f_like b)
                     || (is_int_const 2 b && is_f_like a) ->
              add ~loc "quorum-arithmetic"
                "inline Byzantine quorum (2*f …); use Quorum.byz_quorum / \
                 Quorum.has_byz_quorum"
          | "*" when (is_int_const 3 a && is_f_like b)
                     || (is_int_const 3 b && is_f_like a) ->
              add ~loc "quorum-arithmetic"
                "inline minimal system size (3*f …); use Quorum.min_system"
          | "+" when (is_f_like a && is_int_const 1 b)
                     || (is_f_like b && is_int_const 1 a) ->
              add ~loc "quorum-arithmetic"
                "inline one-correct threshold (f + 1); use \
                 Quorum.one_correct / Quorum.has_one_correct"
          | _ -> ())
      | _ -> ()
  in
  (* -------- the iterator -------- *)
  let super = Ast_iterator.default_iterator in
  let expr it (e : expression) =
    List.iter (note_allow ~span:(Some e.pexp_loc)) e.pexp_attributes;
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> check_ident ~loc txt
    | Pexp_construct ({ txt; loc }, _) -> check_constr ~loc txt
    | Pexp_try (_, cases) when ctx.swallow ->
        List.iter
          (fun c ->
            match c.pc_lhs.ppat_desc with
            | Ppat_any ->
                add ~loc:c.pc_lhs.ppat_loc "exception-swallowing"
                  "catch-all `with _ ->` swallows assertion failures and \
                   scheduler-kill exceptions; match the specific \
                   exceptions you mean to handle"
            | _ -> ())
          cases
    | _ -> ());
    check_quorum ~loc:e.pexp_loc e;
    super.expr it e
  in
  let pat it (p : pattern) =
    (match p.ppat_desc with
    | Ppat_construct ({ txt; loc }, _) -> check_constr ~loc txt
    | _ -> ());
    super.pat it p
  in
  let value_binding it (vb : value_binding) =
    List.iter (note_allow ~span:(Some vb.pvb_loc)) vb.pvb_attributes;
    super.value_binding it vb
  in
  let structure_item it (si : structure_item) =
    (match si.pstr_desc with
    | Pstr_attribute attr -> note_allow ~span:None attr
    | _ -> ());
    super.structure_item it si
  in
  let it = { super with expr; pat; value_binding; structure_item } in
  it.structure it str;
  if ctx.need_mli && not has_mli then
    raw :=
      ( 0,
        {
          Findings.rule = "interface-hygiene";
          file;
          line = 1;
          col = 0;
          msg =
            "no .mli: every library module declares its interface (the \
             transparent-record idiom included — transparency is a \
             deliberate, documented choice, not an accident of omission)";
        } )
      :: !raw;
  let suppressed (off, (fd : Findings.t)) =
    List.mem fd.rule !file_allows
    || List.exists
         (fun s ->
           s.sp_rule = fd.rule && s.sp_start <= off && off <= s.sp_end)
         !spans
  in
  !raw |> List.filter (fun r -> not (suppressed r)) |> List.map snd
