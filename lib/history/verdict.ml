(* Monitors, then the op cap, then the exhaustive Byzlin search: the
   judgement Fuzz, Diff, Parallel and Mcheck all apply, written once. *)

type t = Linearizable | Monitors_only

let op_cap = 14

let byzlin ~what h (search : unit -> bool) : (t, string) result =
  if List.length (History.complete_entries h) > op_cap then Ok Monitors_only
  else
    match search () with
    | true -> Ok Linearizable
    | false -> Error ("history not Byzantine linearizable (" ^ what ^ ")")
    | exception Spec.Search_too_large -> Ok Monitors_only

let sticky ~correct h =
  match
    Monitors.check_all
      (Monitors.uniqueness ~correct h
      @ Monitors.sticky_validity ~correct ~writer:0 h)
  with
  | Error m -> Error m
  | Ok () ->
      byzlin ~what:"sticky" h (fun () -> Byzlin.sticky ~writer:0 ~correct h)

let verifiable ~correct h =
  match
    Monitors.check_all
      (Monitors.relay ~correct h
      @ Monitors.validity ~correct h
      @ Monitors.unforgeability ~correct ~writer:0 h)
  with
  | Error m -> Error m
  | Ok () ->
      byzlin ~what:"verifiable" h (fun () ->
          Byzlin.verifiable ~writer:0 ~correct h)

let testorset ~correct h =
  let module T = Spec.Testorset_spec in
  let entries = History.complete_entries (History.restrict h ~correct) in
  let bit (e : (T.op, T.res) History.entry) =
    match (e.op, e.ret) with T.Test, Some (T.Bit b, _) -> Some b | _ -> None
  in
  let monotone =
    List.for_all
      (fun a ->
        match bit a with
        | Some 1 ->
            List.for_all
              (fun b ->
                match bit b with
                | Some 0 -> not (History.precedes a b)
                | _ -> true)
              entries
        | _ -> true)
      entries
  in
  if not monotone then
    Error "test-or-set stickiness violated: TEST=1 then a later TEST=0"
  else
    byzlin ~what:"test-or-set" h (fun () ->
        Byzlin.testorset ~setter:0 ~correct h)
