(* The machines of one protocol run, as data: client operations ("jobs")
   and background daemons, each a pure Machine program over its own
   register names, mapped onto the executing driver's cell type. The
   simulator runs them inside fibers (Drive.job / Drive.daemon), the
   domains driver on one domain per process (Domains.add_process), so a
   protocol's wiring is written once for both. *)

open Lnd_support

type 'c job =
  | Job : {
      prog : unit -> ('reg, 'a) Machine.prog;
      cell : 'reg -> 'c;
      span : (string * string option * ('a -> string)) option;
      inv : int -> unit;
      ret : int -> 'a -> unit;
    }
      -> 'c job

type 'c daemon =
  | Daemon : {
      label : string;
      prog : ('reg, unit) Machine.prog;
      cell : 'reg -> 'c;
      on_note : Machine.note -> unit;
    }
      -> 'c daemon
