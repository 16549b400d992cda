(* A domain-safe counting Obs sink for the traced run.

   It stores no events: the help daemons' Shm_access stream is unbounded
   on the domains driver. Each domain counts into its own record, held in
   Domain.DLS and registered once in a global list; [harvest] runs after
   the driver has joined its domains, sums the records and starts a new
   epoch, so the next run's domains register fresh records.

   Reads are attributed by ambient span: span 0 is a daemon polling at
   top level, outside any operation or HELP span. Only span events are
   wall-stamped, and with the monotonic clock: Domains.run replaces the
   Obs clock with its logical tick. *)

module Obs = Lnd_obs.Obs

type counts = {
  epoch : int;
  mutable reads : int;
  mutable writes : int;
  mutable top_reads : int;
  mutable help_rounds : int;
  mutable first_domain_ns : int;
  mutable last_op_close_ns : int;
  opened : (int, int) Hashtbl.t; (* operation span id -> open time *)
  mutable op_ns : int list;
}

let epoch = Atomic.make 0
let lock = Mutex.create ()
let registry : counts list ref = ref []

let fresh () =
  let c =
    {
      epoch = Atomic.get epoch;
      reads = 0;
      writes = 0;
      top_reads = 0;
      help_rounds = 0;
      first_domain_ns = max_int;
      last_op_close_ns = min_int;
      opened = Hashtbl.create 8;
      op_ns = [];
    }
  in
  Mutex.protect lock (fun () -> registry := c :: !registry);
  c

let key = Domain.DLS.new_key fresh

let mine () =
  let c = Domain.DLS.get key in
  if c.epoch = Atomic.get epoch then c
  else begin
    let c = fresh () in
    Domain.DLS.set key c;
    c
  end

let is_op = function
  | "WRITE" | "READ" | "SIGN" | "VERIFY" | "SET" | "TEST" -> true
  | _ -> false

let emit (e : Obs.event) =
  match e.Obs.kind with
  | Obs.Shm_access { access = `Read; _ } ->
      let c = mine () in
      c.reads <- c.reads + 1;
      if e.Obs.span = 0 then c.top_reads <- c.top_reads + 1
  | Obs.Shm_access { access = `Write; _ } ->
      let c = mine () in
      c.writes <- c.writes + 1
  | Obs.Span_open { name = "domain"; _ } ->
      let c = mine () in
      c.first_domain_ns <- min c.first_domain_ns (Meter.now_ns ())
  | Obs.Span_open { name = "HELP"; _ } ->
      let c = mine () in
      c.help_rounds <- c.help_rounds + 1
  | Obs.Span_open { name; _ } when is_op name ->
      Hashtbl.replace (mine ()).opened e.Obs.span (Meter.now_ns ())
  | Obs.Span_close { name; _ } when is_op name -> (
      let c = mine () in
      let t = Meter.now_ns () in
      match Hashtbl.find_opt c.opened e.Obs.span with
      | Some t0 ->
          Hashtbl.remove c.opened e.Obs.span;
          c.op_ns <- (t - t0) :: c.op_ns;
          c.last_op_close_ns <- max c.last_op_close_ns t
      | None -> ())
  | _ -> ()

let sink : Obs.sink = { Obs.emit }

type totals = {
  t_reads : int;
  t_writes : int;
  t_top_reads : int;
  t_help_rounds : int;
  t_first_domain_ns : int;  (** [max_int] if no domain span was seen *)
  t_last_op_close_ns : int;  (** [min_int] if no operation closed *)
  t_op_ns : int list;
}

(* Sum and forget every record; call only once the emitting domains have
   joined. *)
let harvest () : totals =
  Mutex.protect lock (fun () ->
      let cs = !registry in
      registry := [];
      Atomic.incr epoch;
      List.fold_left
        (fun t c ->
          {
            t_reads = t.t_reads + c.reads;
            t_writes = t.t_writes + c.writes;
            t_top_reads = t.t_top_reads + c.top_reads;
            t_help_rounds = t.t_help_rounds + c.help_rounds;
            t_first_domain_ns = min t.t_first_domain_ns c.first_domain_ns;
            t_last_op_close_ns = max t.t_last_op_close_ns c.last_op_close_ns;
            t_op_ns = List.rev_append c.op_ns t.t_op_ns;
          })
        {
          t_reads = 0;
          t_writes = 0;
          t_top_reads = 0;
          t_help_rounds = 0;
          t_first_domain_ns = max_int;
          t_last_op_close_ns = min_int;
          t_op_ns = [];
        }
        cs)

(* Install the sink for [f]; the previous harvest epoch is discarded so
   counts start from zero. *)
let with_sink f =
  ignore (harvest ());
  Obs.install sink;
  Fun.protect ~finally:Obs.uninstall f
