(** The machines of one protocol run, as data both drivers execute.

    A plan is built once per run over the driver's cell type ['c]
    ({!Cell.t} on the simulator, {!Domains.Dcell.t} on domains) and
    handed to an executor: {!Drive.job}/{!Drive.daemon} inside simulator
    fibers, {!Domains.add_process} on real domains. Each machine is a
    pure {!Lnd_support.Machine} program over its own register names,
    mapped onto cells by [cell]. *)

open Lnd_support

type 'c job =
  | Job : {
      prog : unit -> ('reg, 'a) Machine.prog;
          (** built at invocation, so it may read state left by earlier
              jobs (a reader's round counter) *)
      cell : 'reg -> 'c;
      span : (string * string option * ('a -> string)) option;
          (** Obs operation span: name, argument, result rendering *)
      inv : int -> unit;  (** told the invocation stamp when invoked *)
      ret : int -> 'a -> unit;  (** told the response stamp and result *)
    }
      -> 'c job
(** One client operation. Jobs of one process run sequentially, in
    order. *)

type 'c daemon =
  | Daemon : {
      label : string;
      prog : ('reg, unit) Machine.prog;
      cell : 'reg -> 'c;
      on_note : Machine.note -> unit;
    }
      -> 'c daemon
(** A background machine (help loop, scripted adversary), abandoned once
    every job of the run has completed. Whether its failure fails the
    run is the executor's call, from whether its process is correct. *)
