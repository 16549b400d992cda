(* Driver #1: interpret a pure protocol core (Lnd_support.Machine) on the
   deterministic effects-based simulator.

   The driver is a strict event loop over Machine.step: every A_read /
   A_write becomes exactly one Cell.read / Cell.write (one scheduler step
   each, in program order) and every A_yield one Sched.yield, so a core
   driven here performs the same effect sequence — and therefore the same
   schedules, logical clocks, traces and DPOR exploration — as the
   pre-refactor inlined implementation it was extracted from. Notes are
   handed to the caller (protocol drivers map them to Obs HELP spans);
   they are not scheduler steps, exactly like the Obs calls they
   replace. *)

open Lnd_support

let run ?(on_note : Machine.note -> unit = fun _ -> ())
    ~(cell : 'reg -> Cell.t) (p : ('reg, 'a) Machine.prog) : 'a =
  let state = ref p in
  let ev = ref Machine.Start in
  let result = ref None in
  while !result = None do
    let st, acts = Machine.step !state !ev in
    state := st;
    List.iter
      (fun (a : 'reg Machine.action) ->
        match a with
        | Machine.A_write (r, u) -> Cell.write (cell r) u
        | Machine.A_note n -> on_note n
        | Machine.A_read r -> ev := Machine.Got (Cell.read (cell r))
        | Machine.A_yield ->
            Sched.yield ();
            ev := Machine.Ack
        | Machine.A_done -> result := Machine.result !state)
      acts
  done;
  Option.get !result

(* One plan job, run to completion in the calling fiber: stamped by the
   scheduler's clock, its span (if any) inside the [inv, ret] interval,
   as the register modules' own recorded operations do. *)
let job (Plan.Job j) : unit =
  j.inv (Sched.tick ());
  let span = if Lnd_obs.Obs.enabled () then j.span else None in
  let sp =
    match span with
    | Some (name, arg, _) -> Lnd_obs.Obs.span_open ~name ?arg ()
    | None -> 0
  in
  let a = run ~cell:j.cell (j.prog ()) in
  Option.iter
    (fun (name, _, render) ->
      Lnd_obs.Obs.span_close ~result:(render a) ~name sp)
    span;
  j.ret (Sched.tick ()) a

let daemon (Plan.Daemon d) : unit = run ~on_note:d.on_note ~cell:d.cell d.prog

(* One HELP span per round actually serving askers, so a trace shows
   helping work without one span per idle poll; the cores mark those
   rounds with Serving/Served notes. One closure per daemon, since the
   span id must survive from Serving to Served. *)
let help_spans () : Machine.note -> unit =
  let sp = ref 0 in
  function
  | Machine.Serving askers ->
      if Lnd_obs.Obs.enabled () then
        sp :=
          Lnd_obs.Obs.span_open ~name:"HELP"
            ~arg:(String.concat "," (List.map string_of_int askers))
            ()
  | Machine.Served ->
      if Lnd_obs.Obs.enabled () then
        Lnd_obs.Obs.span_close ~result:"done" ~name:"HELP" !sp
