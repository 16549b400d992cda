(* Driver #2: OCaml 5 domains.

   The same pure Machine programs the simulator drives (Drive.run) are
   executed here with real preemption: one domain per process, shared
   registers as plain mutex-protected cells, and a global atomic logical
   clock stamping operation invocations/responses for the history.

   Within a domain, the process's machines — the current client
   operation plus its background daemons (help, scripted adversaries) —
   are interleaved cooperatively at their Yield points, mirroring the
   per-process fiber structure of the simulator. Across domains there is
   no schedule at all: interleavings are whatever the hardware and the
   OS produce, which is exactly what the differential conformance suite
   wants to confront the cores with.

   Park-on-yield: every core's yield ends a read-only poll pass, so a
   yielding machine has nothing to do until some register changes
   (Machine.yield). The run keeps one write epoch, bumped after every
   register write; a pass that ends in a yield with the epoch unchanged
   since the pass began parks its machine until the epoch moves — the
   stutter argument Sched's park-on-yield mode makes for the explorers.
   A domain whose machines are all parked blocks on a condition variable
   instead of re-polling. When every live domain is blocked on the
   current epoch nothing can ever write again: the run returns a
   livelock [Error] naming the parked machines.

   Termination discipline: client operations ("jobs") run to completion
   in program order; daemons are abandoned once every job in the whole
   run has completed (they are just values — nothing to clean up). A
   per-domain step budget turns a run that diverges while writing into
   an [Error] instead of a hang. *)

open Lnd_support
module Obs = Lnd_obs.Obs

(* ---------------- Shared registers ---------------- *)

module Dcell = struct
  type t = { name : string; m : Mutex.t; mutable v : Univ.t }

  let make ~name ~init : t = { name; m = Mutex.create (); v = init }
  let name (c : t) = c.name

  (* Shm_access probes fire after the mutex is released: the event is a
     record of the access, not part of the critical section, and the
     per-domain arena sink must never run under a cell lock. *)
  let read (c : t) : Univ.t =
    Mutex.lock c.m;
    let v = c.v in
    Mutex.unlock c.m;
    if Obs.enabled () then
      Obs.emit (Obs.Shm_access { access = `Read; reg = c.name; value = v });
    v

  let write (c : t) (u : Univ.t) : unit =
    Mutex.lock c.m;
    c.v <- u;
    Mutex.unlock c.m;
    if Obs.enabled () then
      Obs.emit (Obs.Shm_access { access = `Write; reg = c.name; value = u })
end

(* ---------------- Logical clock ---------------- *)

type clock = int Atomic.t

let tick (c : clock) : int = Atomic.fetch_and_add c 1

(* ---------------- Machines ---------------- *)

(* A machine in flight. [ospan] is the machine's ambient Obs span, saved
   across turns the way Sched saves it across fiber switches: jobs start
   under their operation span, daemons at top level, and note callbacks
   (HELP rounds) may push/pop spans in between. [parked_at] is the write
   epoch the machine last parked on (-1: never); the machine is parked
   while that is still the current epoch. *)
type runnable =
  | Run : {
      label : string;
      critical : bool;
      mutable st : ('reg, 'a) Machine.prog;
      mutable ev : Machine.event;
      cell : 'reg -> Dcell.t;
      onote : Machine.note -> unit;
      mutable ospan : int;
      fin : 'a -> unit;
      mutable dead : bool;
      mutable parked_at : int;
    }
      -> runnable

(* [critical] is the process's correctness: a machine of a Byzantine
   process may fail without failing the run, matching the simulator's
   treatment of Byzantine fibers. *)
type proc = {
  pid : int;
  critical : bool;
  jobs : Dcell.t Plan.job list;
  daemons : Dcell.t Plan.daemon list;
}

type t = {
  clock : clock;
  step_budget : int;
  mutable procs : proc list; (* newest first; sorted at [run] *)
}

let default_step_budget = 50_000_000

let create ?(step_budget = default_step_budget) () : t =
  { clock = Atomic.make 1; step_budget; procs = [] }

let add_process (t : t) ~pid ?(correct = true) ?(daemons = []) jobs : unit =
  if List.exists (fun p -> p.pid = pid) t.procs then
    invalid_arg "Domains.add_process: duplicate pid";
  t.procs <- { pid; critical = correct; jobs; daemons } :: t.procs

exception Abort of string

(* ---------------- Park state ---------------- *)

(* One per run. [epoch] counts register writes; [waiters] counts domains
   inside [block], so a writer takes the lock only when someone may be
   sleeping. The fields below [cond] are guarded by [lock]: [live]
   counts domains that have not exited, [snap.(i)] is the epoch domain
   [i] blocked on (-1 while it runs), and [describe.(i)] lists domain
   [i]'s parked machines for the livelock message. *)
type park = {
  epoch : int Atomic.t;
  waiters : int Atomic.t;
  lock : Mutex.t;
  cond : Condition.t;
  mutable live : int;
  snap : int array;
  describe : (unit -> string) array;
}

let wake (ps : park) : unit =
  Mutex.lock ps.lock;
  Condition.broadcast ps.cond;
  Mutex.unlock ps.lock

(* Bump the epoch, then read [waiters]; [block] raises [waiters], then
   reads the epoch under the lock. Both are sequentially consistent
   atomics, so either the writer sees the waiter and broadcasts, or the
   waiter sees the new epoch and never sleeps. *)
let bump (ps : park) : unit =
  Atomic.incr ps.epoch;
  if Atomic.get ps.waiters > 0 then wake ps

let parked_on e (Run m) = m.dead || m.parked_at = e

(* Under [ps.lock]: every live domain is blocked, each on epoch [e]. *)
let livelocked (ps : park) e : bool =
  Array.fold_left (fun k s -> if s = e then k + 1 else k) 0 ps.snap = ps.live

let livelock_message (ps : park) e : string =
  let parked =
    Array.to_list ps.describe
    |> List.map (fun d -> d ())
    |> List.filter (fun s -> s <> "")
  in
  Printf.sprintf "livelock at write epoch %d: every machine parked (%s)" e
    (String.concat "; " parked)

(* Sleep until the epoch moves past [e], the last job completes, or the
   run aborts. The domain that finds every live domain blocked on [e]
   declares the livelock. *)
let block (ps : park) ~idx ~e ~(remaining : int Atomic.t)
    ~(aborted : string option Atomic.t) : unit =
  Mutex.lock ps.lock;
  Atomic.incr ps.waiters;
  ps.snap.(idx) <- e;
  while
    Atomic.get ps.epoch = e
    && Atomic.get remaining > 0
    && Option.is_none (Atomic.get aborted)
  do
    if livelocked ps e then begin
      ignore
        (Atomic.compare_and_set aborted None (Some (livelock_message ps e)));
      Condition.broadcast ps.cond
    end
    else Condition.wait ps.cond ps.lock
  done;
  ps.snap.(idx) <- -1;
  Atomic.decr ps.waiters;
  Mutex.unlock ps.lock

(* A domain exits: wake the blocked ones to recount live domains for the
   livelock check. *)
let leave (ps : park) () : unit =
  Mutex.lock ps.lock;
  ps.live <- ps.live - 1;
  Condition.broadcast ps.cond;
  Mutex.unlock ps.lock

(* ---------------- The per-domain loop ---------------- *)

(* Advance one machine to its next Yield (one "turn"), answering reads
   inline: on the domains backend a register read never blocks, so the
   only preemption points *within* a domain are the cores' explicit
   yields — between domains, every shared access races for real. The
   epoch is recorded at the start of the pass: a write that lands
   between the pass's reads and its yield moves it, so the machine polls
   again instead of parking on a state it never saw. *)
let turn (ps : park) ~steps ~budget ~pid (Run m) :
    [ `Yielded | `Parked | `Done | `Dead ] =
  if m.dead then `Dead
  else if Atomic.get ps.epoch = m.parked_at then `Parked
  else begin
    let start = Atomic.get ps.epoch in
    (* The ambient span follows the machine across turns, the way Sched
       carries it across fiber switches: restore before stepping, save
       after (note callbacks may have pushed/popped HELP spans). *)
    if Obs.enabled () then Obs.set_ambient ~span:m.ospan ~pid;
    let save () = if Obs.enabled () then m.ospan <- Obs.ambient () in
    try
      let rec go () =
        incr steps;
        if !steps > budget then
          raise
            (Abort
               (Printf.sprintf
                  "p%d: domain step budget exhausted (stepping %s)" pid
                  m.label));
        let st, acts = Machine.step m.st m.ev in
        m.st <- st;
        let out = ref `Continue in
        List.iter
          (fun a ->
            match a with
            | Machine.A_write (r, u) ->
                Dcell.write (m.cell r) u;
                bump ps
            | Machine.A_note n -> m.onote n
            | Machine.A_read r -> m.ev <- Machine.Got (Dcell.read (m.cell r))
            | Machine.A_yield ->
                m.ev <- Machine.Ack;
                out := `Yielded
            | Machine.A_done ->
                m.fin (Option.get (Machine.result m.st));
                out := `Done)
          acts;
        match !out with `Continue -> go () | (`Yielded | `Done) as r -> r
      in
      let r = go () in
      save ();
      (match r with
      | `Yielded when Atomic.get ps.epoch = start -> m.parked_at <- start
      | `Yielded | `Done -> ());
      (r :> [ `Yielded | `Parked | `Done | `Dead ])
    with
    | Abort _ as e -> raise e
    | e ->
        m.dead <- true;
        save ();
        if m.critical then
          raise
            (Abort
               (Printf.sprintf "correct machine %s failed: %s" m.label
                  (Printexc.to_string e)))
        else `Dead
  end

let run (t : t) : (int, string) result =
  (* Traced runs stamp every event through the same fetch-and-add clock
     that stamps operation intervals: stamps are unique across domains,
     so the per-domain arenas merge into one total order no matter how
     the domains raced. *)
  if Obs.enabled () then Obs.set_clock (fun () -> tick t.clock);
  let procs = List.sort (fun a b -> compare a.pid b.pid) t.procs in
  let total_jobs =
    List.fold_left (fun acc p -> acc + List.length p.jobs) 0 procs
  in
  let remaining = Atomic.make total_jobs in
  let aborted : string option Atomic.t = Atomic.make None in
  let steps_total = Atomic.make 0 in
  let nprocs = List.length procs in
  let ps =
    {
      epoch = Atomic.make 0;
      waiters = Atomic.make 0;
      lock = Mutex.create ();
      cond = Condition.create ();
      live = nprocs;
      snap = Array.make nprocs (-1);
      describe = Array.make nprocs (fun () -> "");
    }
  in
  let body idx (p : proc) () =
    let steps = ref 0 in
    (* Per-domain root span: every operation span of this process nests
       under it, so a merged multi-domain trace keeps one subtree per
       domain. Daemons stay at top level (parent 0), mirroring the
       simulator's daemon fibers — they are abandoned at teardown and
       their dangling spans are abort-closed by Trace.finish. *)
    let dspan =
      if Obs.enabled () then begin
        Obs.set_ambient ~span:0 ~pid:p.pid;
        Obs.span_open ~pid:p.pid ~name:"domain"
          ~arg:(Printf.sprintf "p%d" p.pid) ()
      end
      else 0
    in
    let daemons =
      List.map
        (fun (Plan.Daemon d) ->
          Run
            {
              label = d.label;
              critical = p.critical;
              st = d.prog;
              ev = Machine.Start;
              cell = d.cell;
              onote = d.on_note;
              ospan = 0;
              fin = (fun () -> ());
              dead = false;
              parked_at = -1;
            })
        p.daemons
    in
    let jobs = ref p.jobs in
    let current : runnable option ref = ref None in
    let has_current () = match !current with Some _ -> true | None -> false in
    let has_jobs () = match !jobs with [] -> false | _ :: _ -> true in
    let has_daemons = match daemons with [] -> false | _ :: _ -> true in
    (* Read by the livelock detector only while this domain is blocked. *)
    ps.describe.(idx) <-
      (fun () ->
        let labels =
          Option.to_list !current @ daemons
          |> List.filter_map (fun (Run m) ->
                 if m.dead then None else Some m.label)
        in
        if labels = [] then ""
        else Printf.sprintf "p%d: %s" p.pid (String.concat ", " labels));
    (* Work is left, and every machine doing it is parked on [e]. *)
    let idle e =
      List.for_all (parked_on e) daemons
      &&
      match !current with
      | Some r -> parked_on e r
      | None -> has_daemons && not (has_jobs ())
    in
    (try
       let continue () =
         (match Atomic.get aborted with Some _ -> false | None -> true)
         && (has_current () || has_jobs ()
            || (has_daemons && Atomic.get remaining > 0))
       in
       while continue () do
         (match (!current, !jobs) with
         | None, Plan.Job j :: rest ->
             jobs := rest;
             let span = if Obs.enabled () then j.span else None in
             (* The operation span must BRACKET the [inv, ret] interval:
                open before the inv tick, close after the ret tick. The
                trace-derived precedence order is then a subset of the
                direct history's, so folding the trace back into a
                history can never add precedence pairs the checkers
                didn't already judge. *)
             let ospan =
               match span with
               | Some (name, arg, _) ->
                   Obs.set_ambient ~span:dspan ~pid:p.pid;
                   Obs.span_open ~pid:p.pid ~name ?arg ()
               | None -> dspan
             in
             (* Recorded at invocation, so a run that fails mid-operation
                still shows the operation, unfinished. *)
             j.inv (tick t.clock);
             current :=
               Some
                 (Run
                    {
                      label = Printf.sprintf "p%d-op" p.pid;
                      critical = p.critical;
                      st = j.prog ();
                      ev = Machine.Start;
                      cell = j.cell;
                      onote = ignore;
                      ospan;
                      fin =
                        (fun a ->
                          j.ret (tick t.clock) a;
                          Option.iter
                            (fun (name, _, render) ->
                              Obs.span_close ~pid:p.pid ~result:(render a)
                                ~name ospan)
                            span;
                          if Atomic.fetch_and_add remaining (-1) = 1 then
                            wake ps);
                      dead = false;
                      parked_at = -1;
                    })
         | _ -> ());
         (match !current with
         | Some r -> (
             match turn ps ~steps ~budget:t.step_budget ~pid:p.pid r with
             | `Done | `Dead -> current := None
             | `Yielded | `Parked -> ())
         | None -> ());
         List.iter
           (fun d ->
             ignore (turn ps ~steps ~budget:t.step_budget ~pid:p.pid d))
           daemons;
         let e = Atomic.get ps.epoch in
         if idle e then block ps ~idx ~e ~remaining ~aborted
       done
     with Abort m -> ignore (Atomic.compare_and_set aborted None (Some m)));
    (* Close the domain root span on a clean exit; an aborted run leaves
       it (and any open operation span) dangling for Trace.finish to
       abort-close, so the incomplete run is visible in the trace. *)
    (match !current with
    | None when dspan <> 0 && Atomic.get aborted = None ->
        Obs.span_close ~pid:p.pid ~name:"domain" dspan
    | _ -> ());
    ignore (Atomic.fetch_and_add steps_total !steps)
  in
  let spawned =
    List.mapi
      (fun idx p ->
        Domain.spawn (fun () -> Fun.protect ~finally:(leave ps) (body idx p)))
      procs
  in
  List.iter Domain.join spawned;
  match Atomic.get aborted with
  | Some m -> Error m
  | None ->
      if Atomic.get remaining > 0 then
        Error "domains run ended with incomplete operations"
      else Ok (Atomic.get steps_total)
