(* The scenario fuzzer: every generated scenario must pass all its
   property checks. One seed = one deterministic scenario, so a failure
   message names the exact reproducer. *)

module Fuzz = Lnd_fuzz.Fuzz
module Obs = Lnd_obs.Obs
module Trace = Lnd_obs.Trace

let run_range ~from ~count () =
  for seed = from to from + count - 1 do
    let scenario = Fuzz.generate seed in
    match Fuzz.run scenario with
    | Ok _ -> ()
    | Error msg ->
        Alcotest.failf "fuzz failure [%s]: %s"
          (Format.asprintf "%a" Fuzz.pp_scenario scenario)
          msg
  done

(* The generator covers both targets and many adversaries within a modest
   seed range (guards against a degenerate generator). *)
let test_generator_coverage () =
  let scenarios = List.init 200 Fuzz.generate in
  let targets =
    List.sort_uniq compare
      (List.map (fun (s : Fuzz.scenario) -> s.Fuzz.target) scenarios)
  in
  let adversaries =
    List.sort_uniq compare
      (List.map (fun (s : Fuzz.scenario) -> s.Fuzz.adversary) scenarios)
  in
  Alcotest.(check int) "both targets generated" 2 (List.length targets);
  Alcotest.(check bool)
    "at least 7 adversary kinds generated" true
    (List.length adversaries >= 7)

let test_determinism () =
  (* same seed, same scenario *)
  Alcotest.(check bool)
    "generation deterministic" true
    (Fuzz.generate 12345 = Fuzz.generate 12345)

(* Access-level golden: one line per seed — the scenario plus the MD5 of
   its full JSONL trace, which holds every register access with its value,
   every spawn and every switch. Step counts alone cannot see two accesses
   swap places; this table can. On a mismatch the fresh table is printed
   whole, so regenerating the fixture is a copy of the failure output. *)
let digest_path = "fixtures/fuzz/trace_md5.txt"

let digest_line seed =
  let scenario = Fuzz.generate seed in
  let tr = Trace.create () in
  Obs.install (Trace.sink tr);
  let verdict =
    Fun.protect ~finally:Obs.uninstall (fun () ->
        match Fuzz.run scenario with Ok _ -> "ok" | Error m -> "FAIL " ^ m)
  in
  Trace.finish tr;
  if Trace.dropped tr > 0 then
    Alcotest.failf "seed %d: trace dropped %d events" seed (Trace.dropped tr);
  Printf.sprintf "%s %s %s"
    (Format.asprintf "%a" Fuzz.pp_scenario scenario)
    (Digest.to_hex (Digest.string (Trace.to_jsonl tr)))
    verdict

let test_trace_digests () =
  let fresh = List.init 240 digest_line in
  let expected =
    In_channel.with_open_text digest_path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  if fresh <> expected then
    Alcotest.failf
      "fuzz traces drifted from %s; fresh table (copy it there if the new \
       access order is intended):\n%s"
      digest_path
      (String.concat "\n" fresh)

let tests =
  [
    Alcotest.test_case "trace digests, seeds 0-239" `Quick test_trace_digests;
    Alcotest.test_case "generator coverage" `Quick test_generator_coverage;
    Alcotest.test_case "generator determinism" `Quick test_determinism;
    Alcotest.test_case "seeds 0-39" `Quick (run_range ~from:0 ~count:40);
    Alcotest.test_case "seeds 40-79" `Quick (run_range ~from:40 ~count:40);
    Alcotest.test_case "seeds 80-119" `Slow (run_range ~from:80 ~count:40);
    Alcotest.test_case "seeds 120-159" `Slow (run_range ~from:120 ~count:40);
    Alcotest.test_case "seeds 160-199" `Slow (run_range ~from:160 ~count:40);
    Alcotest.test_case "seeds 200-239" `Slow (run_range ~from:200 ~count:40);
  ]
