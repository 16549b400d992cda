(* The benchmark's own spans: one per call into a layer, recorded only in
   the traced run. They are kept in memory and written out when the
   benchmark ends, as JSON lines {id, name, parent, start_ns, end_ns};
   times are monotonic nanoseconds. Only the main domain records. *)

type span = {
  id : int;
  name : string;
  parent : int;
  start_ns : int;
  mutable end_ns : int;
}

let on = ref false
let recorded : span list ref = ref [] (* newest first *)
let current = ref 0
let next_id = ref 1

let enable () = on := true

let with_span name f =
  if not !on then f ()
  else begin
    let s =
      { id = !next_id; name; parent = !current; start_ns = Meter.now_ns (); end_ns = 0 }
    in
    incr next_id;
    recorded := s :: !recorded;
    current := s.id;
    Fun.protect
      ~finally:(fun () ->
        s.end_ns <- Meter.now_ns ();
        current := s.parent)
      f
  end

(* Per span name: calls, total time, and self time (duration minus the
   part covered by child spans; children of one span never overlap,
   because a single domain records them). *)
let summary () : (string * int * float * float) list =
  let dur s = float_of_int (s.end_ns - s.start_ns) in
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = try Hashtbl.find child_time s.parent with Not_found -> 0. in
      Hashtbl.replace child_time s.parent (prev +. dur s))
    !recorded;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = dur s -. try Hashtbl.find child_time s.id with Not_found -> 0. in
      let n, tot, sf =
        try Hashtbl.find by_name s.name with Not_found -> (0, 0., 0.)
      in
      Hashtbl.replace by_name s.name (n + 1, tot +. dur s, sf +. self))
    !recorded;
  Hashtbl.fold (fun name (n, tot, sf) acc -> (name, n, tot, sf) :: acc) by_name []
  |> List.sort compare

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %S, \"parent\": %d, \"start_ns\": %d, \"end_ns\": %d}\n"
        s.id s.name s.parent s.start_ns s.end_ns)
    (List.rev !recorded);
  close_out oc
