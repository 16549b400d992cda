(* The three workloads: their inputs, drawn from the seed, and the check
   each run's output must pass. A failed check is counted, not fatal: it
   prints the failing input and the run goes on. *)

module Diff = Lnd_parallel.Diff
module Parallel = Lnd_parallel.Parallel
module Mcheck = Lnd_fuzz.Mcheck
module Explore = Lnd_runtime.Explore

type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

let judge what (r : (unit, string) result) : bool =
  tally.attempted <- tally.attempted + 1;
  match r with
  | Ok () -> true
  | Error m ->
      tally.failed <- tally.failed + 1;
      Printf.printf "FAIL %s | %s\n%!" what m;
      false

(* ---------------- Checks shared by every driver ---------------- *)

(* A verifiable writer's value is one WRITE and one SIGN. *)
let expected_ops (w : Diff.work) : int =
  (match w.Diff.proto with Diff.Verifiable -> 2 | Diff.Sticky | Diff.Testorset -> 1)
  * w.Diff.writes
  + List.fold_left (fun a (_, p) -> a + List.length p) 0 w.Diff.programs

let check_run (w : Diff.work) (r : Diff.run) : (unit, string) result =
  match r.Diff.verdict with
  | Error m -> Error m
  | Ok () when r.Diff.ops <> expected_ops w ->
      Error (Printf.sprintf "%d ops, expected %d" r.Diff.ops (expected_ops w))
  | Ok () -> Ok ()

(* ---------------- domains-n4 ---------------- *)

(* Per protocol, the first [per_class] n = 4, f = 1 works without and
   with scripted Byzantine pids at or after the seed; the rotation
   alternates protocols and classes so consecutive runs differ. n = 4 is
   the smallest n > 3f with f = 1. *)
let per_class = 8

let n4_works proto ~byz ~from count : Diff.work list =
  let rec go s acc =
    if List.length acc = count then List.rev acc
    else
      let w = Diff.generate ~proto s in
      if w.Diff.n = 4 && w.Diff.f = 1 && (w.Diff.scripts <> []) = byz then go (s + 1) (w :: acc)
      else go (s + 1) acc
  in
  go from []

let domains_rotation (seed : int) : Diff.work array =
  let per_proto =
    List.map
      (fun proto ->
        Array.of_list
          (List.concat
             (List.map2
                (fun h b -> [ h; b ])
                (n4_works proto ~byz:false ~from:seed per_class)
                (n4_works proto ~byz:true ~from:seed per_class))))
      Diff.all_protos
  in
  Array.concat
    (List.init (2 * per_class) (fun i ->
         Array.of_list (List.map (fun a -> a.(i)) per_proto)))

let check_domains (w : Diff.work) (r : Diff.run) : bool =
  judge (Diff.describe w) (check_run w r)

(* ---------------- sim-diff ---------------- *)

(* [windows] consecutive golden-sized windows (60 seeds x 3 protocols,
   in the golden order and line format of Diff.sim_line) from the seed:
   one window's run-time median shifts with its mix of system sizes, so
   a pass covers several. At the golden seed the first window's lines
   must match the committed fixture byte for byte; every other line must
   repeat the first pass's. *)
let golden_path = "test/fixtures/diff/golden_sim.txt"
let windows = 4

let sim_window ?(windows = 1) (seed : int) : Diff.work array =
  Array.of_list
    (List.concat_map
       (fun i -> List.map (fun proto -> Diff.generate ~proto (seed + i)) Diff.all_protos)
       (List.init (windows * Diff.golden_seed_count) (fun i -> i)))

type sim_inputs = { works : Diff.work array; expect : string option array }

let sim_inputs (seed : int) : sim_inputs =
  let works = sim_window ~windows seed in
  let expect = Array.make (Array.length works) None in
  if seed = Diff.golden_seed_from then begin
    let golden = In_channel.with_open_text golden_path In_channel.input_lines in
    if List.length golden <> 3 * Diff.golden_seed_count then
      failwith (golden_path ^ ": line count differs from the golden window");
    List.iteri (fun i l -> expect.(i) <- Some l) golden
  end;
  { works; expect }

let sim_line (w : Diff.work) (r : Diff.run) : string =
  Printf.sprintf "%s | %s ops=%d steps=%d | %s" (Diff.describe w)
    (match r.Diff.verdict with Ok () -> "ok" | Error m -> "FAIL(" ^ m ^ ")")
    r.Diff.ops r.Diff.steps r.Diff.rendered

let check_sim (inp : sim_inputs) (i : int) (r : Diff.run) : bool =
  let w = inp.works.(i) in
  let line = sim_line w r in
  judge (Diff.describe w)
    (match inp.expect.(i) with
    | Some e when not (String.equal e line) ->
        Error ("history differs from the expected line: " ^ line)
    | Some _ -> check_run w r
    | None ->
        inp.expect.(i) <- Some line;
        check_run w r)

(* ---------------- dpor-n4 ---------------- *)

(* The T15 configurations (n = 4, f = 1, one scripted colluder) and the
   schedule counts DPOR must report when it exhausts them. *)
let dpor_configs : (string * Mcheck.config * int) list =
  [
    ("sticky n=4 f=1", Mcheck.default, 355);
    ( "verifiable n=4 f=1 reads=2",
      { Mcheck.default with Mcheck.model = Mcheck.Verifiable; reads = 2 },
      2870 );
    ("test-or-set n=4 f=1", { Mcheck.default with Mcheck.model = Mcheck.Testorset }, 355);
  ]

let max_steps = 600
let max_runs = 30_000

let schedules (r : Explore.result) = r.Explore.runs + r.Explore.pruned + r.Explore.blocked

let check_dpor (label, _, expected) (r : (Explore.result, string) result) : bool =
  judge label
    (match r with
    | Error m -> Error m
    | Ok r when not r.Explore.exhausted -> Error "not exhausted"
    | Ok r when schedules r <> expected ->
        Error (Printf.sprintf "%d schedules, expected %d" (schedules r) expected)
    | Ok _ -> Ok ())

let violation_to_error f =
  try Ok (f ())
  with Explore.Violation cx -> Error (Format.asprintf "%a" Explore.pp_counterexample cx)

let explore ?(max_runs = max_runs) cfg =
  violation_to_error (fun () ->
      Mcheck.explore ~mode:`Dpor ~max_steps ~max_runs ~max_preempts:0 cfg)

(* ---------------- The closed loop ---------------- *)

type outcome = { ops : int; schedules : int }

(* One workload as the untraced loop sees it: [size] runs make one pass
   over its inputs, and [run i] makes the i-th checked call. *)
type t = { size : int; run : int -> outcome }

let names = [ "domains-n4"; "sim-diff"; "dpor-n4" ]

(* Everything a run needs before its first timed call, including checked
   warm-up calls on fixed inputs (not drawn from the seed, so set-up time
   does not vary with it): lazily built state is paid here. *)
let setup (name : string) ~(seed : int) : t =
  match name with
  | "domains-n4" ->
      let works = domains_rotation seed in
      let run i =
        let r = Parallel.run works.(i) in
        ignore (check_domains works.(i) r);
        { ops = r.Diff.ops; schedules = 1 }
      in
      List.iter
        (fun w -> ignore (check_domains w (Parallel.run w)))
        (n4_works Diff.Sticky ~byz:false ~from:Diff.golden_seed_from 3);
      { size = Array.length works; run }
  | "sim-diff" ->
      let inp = sim_inputs seed in
      let run i =
        let r = Diff.sim inp.works.(i) in
        ignore (check_sim inp i r);
        { ops = r.Diff.ops; schedules = 1 }
      in
      Array.iter
        (fun w -> ignore (judge (Diff.describe w) (check_run w (Diff.sim w))))
        (sim_window Diff.golden_seed_from);
      { size = Array.length inp.works; run }
  | "dpor-n4" ->
      let configs = Array.of_list dpor_configs in
      Array.iter
        (fun ((label, cfg, _) : string * Mcheck.config * int) ->
          ignore (judge label (Result.map ignore (explore ~max_runs:1 cfg))))
        configs;
      let run i =
        let ((_, cfg, _) as c) = configs.(i) in
        let r = explore cfg in
        ignore (check_dpor c r);
        let s = match r with Ok r -> schedules r | Error _ -> 0 in
        { ops = s; schedules = s }
      in
      { size = Array.length configs; run }
  | other -> invalid_arg ("unknown workload " ^ other)
