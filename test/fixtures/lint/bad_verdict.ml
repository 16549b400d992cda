(* Lint fixture: a checker handling the search budget itself instead of
   judging through Lnd_history.Verdict. Parsed by the lint tests, never
   built. *)

let linearizable h =
  try Lnd_history.Byzlin.sticky ~writer:0 ~correct:(fun _ -> true) h
  with Lnd_history.Spec.Search_too_large -> true

let give_up () = raise Spec.Search_too_large
