(* The one shape every Byzantine responder has, as a pure program.

   After the [start] writes, each round: [step] acts on the process's own
   registers, then every
   asker k whose round counter C_k moved past the last value answered is
   sent [reply]'s payload through R_{pid,k}; a round that answered nobody
   ends in a yield. The last counter served per asker is threaded
   functionally, as the honest Help programs thread theirs, and the
   policy's own state ['s] rides along through [step] and [reply]. *)

open Lnd_support
open Machine

type 'reg layout = { counter : int -> 'reg; mailbox : int -> int -> 'reg }

let sticky : Lnd_sticky.Sticky_core.reg layout =
  {
    counter = (fun k -> Lnd_sticky.Sticky_core.C k);
    mailbox = (fun j k -> Lnd_sticky.Sticky_core.Rjk (j, k));
  }

let verifiable : Lnd_verifiable.Verifiable_core.reg layout =
  {
    counter = (fun k -> Lnd_verifiable.Verifiable_core.C k);
    mailbox = (fun j k -> Lnd_verifiable.Verifiable_core.Rjk (j, k));
  }

module PidMap = Map.Make (Int)

let[@lnd.pure] dec_counter u = Univ.prj_default Codecs.counter ~default:0 u

let[@lnd.pure] responder (layout : 'reg layout) ~n ~pid
    ?(serves : int -> bool = fun _ -> true) ?(start = ret ())
    ?(step : 's -> ('reg, 's) prog = ret)
    ~(reply : 's -> asker:int -> ck:int -> ('reg, 's * Univ.t) prog) (s : 's)
    : ('reg, unit) prog =
  let rec round prev s =
    let* s = step s in
    let rec answer k prev s answered =
      if k >= n then ret (prev, s, answered)
      else if k = pid || not (serves k) then answer (k + 1) prev s answered
      else
        let* u = read (layout.counter k) in
        let ck = dec_counter u in
        let last = match PidMap.find_opt k prev with Some c -> c | None -> 0 in
        if ck > last then
          let* s, payload = reply s ~asker:k ~ck in
          let* () = write (layout.mailbox pid k) payload in
          answer (k + 1) (PidMap.add k ck prev) s true
        else answer (k + 1) prev s answered
    in
    let* prev, s, answered = answer 1 prev s false in
    if answered then round prev s
    else
      let* () = yield in
      round prev s
  in
  let* () = start in
  round PidMap.empty s
