(* Unit tests for the effects-based scheduler: atomic step semantics,
   fairness, determinism, masks, kills, and the bounded explorer; and for
   the domains driver's park-on-yield: cross-domain wake, livelock
   detection, budget exhaustion, non-critical daemon failure. *)

open Lnd_support
open Lnd_shm
open Lnd_runtime

let mk_sys ?(n = 3) policy =
  let space = Space.create ~n in
  let sched = Sched.create ~space ~choose:policy in
  (space, sched)

let int_reg space ~owner = Space.alloc space ~name:"x" ~owner ~init:(Univ.inj Univ.int 0) ()

let read_int c = Univ.prj_default Univ.int ~default:0 (Sched.read c)

let test_basic_run () =
  let space, sched = mk_sys (Policy.round_robin ()) in
  let r = int_reg space ~owner:0 in
  let seen = ref (-1) in
  ignore
    (Sched.spawn sched ~pid:0 ~name:"w" (fun () ->
         Sched.write r (Univ.inj Univ.int 42)));
  ignore (Sched.spawn sched ~pid:1 ~name:"r" (fun () -> seen := read_int r));
  (match Sched.run sched with
  | Sched.Quiescent -> ()
  | _ -> Alcotest.fail "expected quiescence");
  Alcotest.(check bool) "reader saw 0 or 42" true (!seen = 0 || !seen = 42)

let test_determinism () =
  let run seed =
    let space, sched = mk_sys (Policy.random ~seed) in
    let r = int_reg space ~owner:0 in
    let order = ref [] in
    for pid = 0 to 2 do
      ignore
        (Sched.spawn sched ~pid ~name:"p" (fun () ->
             ignore (Sched.read r);
             order := pid :: !order;
             ignore (Sched.read r)))
    done;
    ignore (Sched.run sched);
    (!order, Sched.steps sched)
  in
  Alcotest.(check bool) "same seed same run" true (run 9 = run 9);
  (* different seeds usually differ; just check both complete *)
  ignore (run 10)

let test_fairness_round_robin () =
  (* every fiber makes progress under round robin *)
  let space, sched = mk_sys (Policy.round_robin ()) in
  let r = int_reg space ~owner:0 in
  let counts = Array.make 3 0 in
  for pid = 0 to 2 do
    ignore
      (Sched.spawn sched ~pid ~name:"p" (fun () ->
           for _ = 1 to 10 do
             ignore (Sched.read r);
             counts.(pid) <- counts.(pid) + 1
           done))
  done;
  ignore (Sched.run sched);
  Array.iter (fun c -> Alcotest.(check int) "all ran to completion" 10 c) counts

let test_daemon_quiescence () =
  let space, sched = mk_sys (Policy.random ~seed:1) in
  let r = int_reg space ~owner:0 in
  ignore
    (Sched.spawn sched ~pid:0 ~name:"spin" ~daemon:true (fun () ->
         while true do
           ignore (Sched.read r)
         done));
  ignore (Sched.spawn sched ~pid:1 ~name:"client" (fun () -> ignore (Sched.read r)));
  (match Sched.run ~max_steps:100_000 sched with
  | Sched.Quiescent -> ()
  | _ -> Alcotest.fail "daemons must not block quiescence")

let test_budget () =
  let space, sched = mk_sys (Policy.random ~seed:1) in
  let r = int_reg space ~owner:0 in
  ignore
    (Sched.spawn sched ~pid:0 ~name:"forever" (fun () ->
         while true do
           ignore (Sched.read r)
         done));
  match Sched.run ~max_steps:1000 sched with
  | Sched.Budget_exhausted -> ()
  | _ -> Alcotest.fail "expected budget exhaustion"

let test_kill () =
  let space, sched = mk_sys (Policy.round_robin ()) in
  let r = int_reg space ~owner:0 in
  let progressed = ref 0 in
  let f =
    Sched.spawn sched ~pid:0 ~name:"victim" (fun () ->
        while true do
          ignore (Sched.read r);
          incr progressed
        done)
  in
  Sched.kill f;
  (match Sched.run ~max_steps:1000 sched with
  | Sched.Quiescent -> ()
  | _ -> Alcotest.fail "killed fiber should not run");
  Alcotest.(check int) "victim never progressed" 0 !progressed;
  (* deliberate kills are not reported as failures *)
  Alcotest.(check int) "no failures" 0 (List.length (Sched.failures sched))

let test_enabled_mask () =
  let space, sched = mk_sys (Policy.round_robin ()) in
  let r = int_reg space ~owner:0 in
  let ran = Array.make 3 false in
  for pid = 0 to 2 do
    ignore
      (Sched.spawn sched ~pid ~name:"p" (fun () ->
           ignore (Sched.read r);
           ran.(pid) <- true))
  done;
  sched.Sched.enabled <- (fun f -> f.Sched.pid <> 1);
  (match Sched.run ~max_steps:1000 sched with
  | Sched.Quiescent -> ()
  | _ -> Alcotest.fail "expected quiescence of enabled fibers");
  Alcotest.(check bool) "p0 ran" true ran.(0);
  Alcotest.(check bool) "p1 masked" false ran.(1);
  Alcotest.(check bool) "p2 ran" true ran.(2)

let test_exception_captured () =
  let _space, sched = mk_sys (Policy.round_robin ()) in
  ignore (Sched.spawn sched ~pid:0 ~name:"boom" (fun () -> failwith "boom"));
  ignore (Sched.run sched);
  Alcotest.(check int) "failure recorded" 1 (List.length (Sched.failures sched))

let test_on_failure_hook () =
  let _space, sched = mk_sys (Policy.round_robin ()) in
  let seen = ref [] in
  Sched.set_on_failure sched
    (Some
       (fun fb e -> seen := (fb.Sched.fname, Printexc.to_string e) :: !seen));
  ignore (Sched.spawn sched ~pid:0 ~name:"boom" (fun () -> failwith "boom"));
  ignore (Sched.spawn sched ~pid:1 ~name:"victim" (fun () -> raise Sched.Killed));
  ignore (Sched.run sched);
  (* the hook fires for real failures, not for deliberate kills *)
  match !seen with
  | [ (name, msg) ] ->
      Alcotest.(check string) "failing fiber" "boom" name;
      Alcotest.(check bool) "exception carried" true
        (String.length msg > 0)
  | l -> Alcotest.failf "expected exactly one hook call, got %d" (List.length l)

let test_permission_violation_hits_fiber () =
  let space, sched = mk_sys (Policy.round_robin ()) in
  let r = int_reg space ~owner:0 in
  let caught = ref false in
  ignore
    (Sched.spawn sched ~pid:1 ~name:"byz" (fun () ->
         try Sched.write r (Univ.inj Univ.int 1)
         with Space.Permission_violation _ -> caught := true));
  ignore (Sched.run sched);
  Alcotest.(check bool) "violation raised inside fiber" true !caught

let test_clock_monotone () =
  let space, sched = mk_sys (Policy.round_robin ()) in
  let r = int_reg space ~owner:0 in
  let stamps = ref [] in
  ignore
    (Sched.spawn sched ~pid:0 ~name:"t" (fun () ->
         stamps := Sched.tick () :: !stamps;
         ignore (Sched.read r);
         stamps := Sched.tick () :: !stamps;
         ignore (Sched.read r);
         stamps := Sched.tick () :: !stamps));
  ignore (Sched.run sched);
  let l = List.rev !stamps in
  Alcotest.(check bool)
    "strictly increasing" true
    (match l with
    | [ a; b; c ] -> a < b && b < c
    | _ -> false)

let test_self () =
  let _space, sched = mk_sys (Policy.round_robin ()) in
  let me = ref (-1) in
  ignore (Sched.spawn sched ~pid:2 ~name:"who" (fun () -> me := Sched.self ()));
  ignore (Sched.run sched);
  Alcotest.(check int) "self pid" 2 !me

(* The explorer visits schedules producing both outcomes of a classic
   read-modify-write race (registers are atomic; the sequence is not). *)
let test_explore_race () =
  let outcomes = ref [] in
  let reg = ref None in
  let make policy =
    let space = Space.create ~n:2 in
    let sched = Sched.create ~space ~choose:policy in
    let r = int_reg space ~owner:0 in
    let r1 = Space.alloc space ~name:"y" ~owner:1 ~init:(Univ.inj Univ.int 0) () in
    reg := Some (r, r1);
    (* two increment-via-read-then-write fibers on separate registers,
       plus a final sum: the "sum" depends on interleaving of reads *)
    ignore
      (Sched.spawn sched ~pid:0 ~name:"a" (fun () ->
           let x = read_int r in
           let y = read_int r1 in
           Sched.write r (Univ.inj Univ.int (x + y + 1))));
    ignore
      (Sched.spawn sched ~pid:1 ~name:"b" (fun () ->
           let x = read_int r in
           Sched.write r1 (Univ.inj Univ.int (x + 1))));
    sched
  in
  let check _sched =
    match !reg with
    | Some (r, r1) ->
        let v = Univ.prj_default Univ.int ~default:(-1) r.Register.value in
        let w = Univ.prj_default Univ.int ~default:(-1) r1.Register.value in
        if not (List.mem (v, w) !outcomes) then outcomes := (v, w) :: !outcomes
    | None -> ()
  in
  let result = Explore.exhaustive ~make ~check ~max_steps:100 ~max_runs:5000 () in
  Alcotest.(check bool) "space exhausted" true result.Explore.exhausted;
  Alcotest.(check bool) "several runs" true (result.Explore.runs > 1);
  Alcotest.(check bool)
    "multiple distinct outcomes" true
    (List.length !outcomes > 1)

(* Swarm exploration over a sticky uniqueness scenario: 50 random
   schedules, uniqueness checked in each. *)
let test_swarm_sticky_uniqueness () =
  let module St = Lnd_sticky.Sticky in
  let results = ref [] in
  let make policy =
    results := [];
    let space = Space.create ~n:4 in
    let sched = Sched.create ~space ~choose:policy in
    let regs = St.alloc space { St.n = 4; f = 1 } in
    for pid = 0 to 3 do
      ignore
        (Sched.spawn sched ~pid ~name:"h" ~daemon:true (fun () ->
             St.help regs ~pid))
    done;
    ignore
      (Sched.spawn sched ~pid:0 ~name:"w" (fun () ->
           St.write (St.writer regs) "u"));
    for pid = 1 to 3 do
      ignore
        (Sched.spawn sched ~pid ~name:"r" (fun () ->
             results := St.read (St.reader regs ~pid) :: !results))
    done;
    sched
  in
  let check _ =
    let non_bot = List.filter_map (fun x -> x) !results in
    match List.sort_uniq compare non_bot with
    | [] | [ _ ] -> ()
    | vs -> failwith ("disagreement: " ^ String.concat "," vs)
  in
  let r =
    Explore.swarm ~make ~check ~seeds:(List.init 50 (fun i -> i)) ()
  in
  Alcotest.(check int) "all 50 schedules ran" 50 r.Explore.runs;
  Alcotest.(check int) "none pruned" 0 r.Explore.pruned

(* ---------------- Domains driver ---------------- *)

module Dcell = Domains.Dcell

let flag () = Dcell.make ~name:"X" ~init:(Univ.inj Univ.int 0)
let is_set c = Univ.prj_default Univ.int ~default:0 (Dcell.read c) <> 0

(* Read X, yield while it is unset: one two-step pass per poll. *)
let rec poll_prog () : (unit, unit) Machine.prog =
  let open Machine in
  let* u = read () in
  if Univ.prj_default Univ.int ~default:0 u <> 0 then ret ()
  else
    let* () = yield in
    poll_prog ()

let set_prog : (unit, unit) Machine.prog =
  Machine.write () (Univ.inj Univ.int 1)

let unit_job ?(inv = ignore) ?(ret = fun _ () -> ()) x prog =
  Plan.Job { prog; cell = (fun () -> x); span = None; inv; ret }

let test_domains_wake () =
  let x = flag () in
  let d = Domains.create () in
  Domains.add_process d ~pid:0 [ unit_job x (fun () -> set_prog) ];
  Domains.add_process d ~pid:1 [ unit_job x poll_prog ];
  match Domains.run d with
  | Error m -> Alcotest.failf "run failed: %s" m
  | Ok steps ->
      (* the writer's one step, plus at most two poll passes: the first
         either sees X or parks until the write moves the epoch *)
      Alcotest.(check bool) "X written" true (is_set x);
      if steps > 8 then Alcotest.failf "%d steps: the poller re-polled" steps

(* The same wake, forced to happen after the poller has polled: p1
   raises Y before polling X, and p0 writes X only once it sees Y. Each
   side parks on its flag at most once, so p0 makes at most two passes
   and p1 at most three (the first ends after its own write). *)
let test_domains_handshake () =
  let x = flag () and y = Dcell.make ~name:"Y" ~init:(Univ.inj Univ.int 0) in
  let cell = function `X -> x | `Y -> y in
  let rec await r : ([ `X | `Y ], unit) Machine.prog =
    let open Machine in
    let* u = read r in
    if Univ.prj_default Univ.int ~default:0 u <> 0 then ret ()
    else
      let* () = yield in
      await r
  in
  let job prog =
    Plan.Job
      {
        prog = (fun () -> prog);
        cell;
        span = None;
        inv = ignore;
        ret = (fun _ () -> ());
      }
  in
  let open Machine in
  let d = Domains.create () in
  Domains.add_process d ~pid:0
    [ job (let* () = await `Y in write `X (Univ.inj Univ.int 1)) ];
  Domains.add_process d ~pid:1
    [ job (let* () = write `Y (Univ.inj Univ.int 1) in await `X) ];
  match Domains.run d with
  | Error m -> Alcotest.failf "run failed: %s" m
  | Ok steps ->
      if steps > 10 then Alcotest.failf "%d steps: a waiter re-polled" steps

let test_domains_livelock () =
  let n = 4 and f = 1 in
  let cells =
    Lnd_sticky.Sticky.(
      cell_of
        (alloc_with
           (fun ~name ~owner:_ ?single_reader:_ ~init () ->
             Dcell.make ~name ~init)
           { n; f }))
  in
  let q = Quorum.make_relaxed ~n ~f in
  let d = Domains.create () in
  Domains.add_process d ~pid:0
    ~daemons:
      [
        Plan.Daemon
          {
            label = "help0";
            prog = Lnd_sticky.Sticky_core.help_prog ~n ~q ~pid:0;
            cell = cells;
            on_note = ignore;
          };
      ]
    [];
  (* the parked job was invoked, and must stay visibly unfinished *)
  let invoked = ref None and responded = ref false in
  Domains.add_process d ~pid:1
    [
      unit_job
        ~inv:(fun t -> invoked := Some t)
        ~ret:(fun _ () -> responded := true)
        (flag ()) poll_prog;
    ];
  let wall () =
    (Unix.gettimeofday ()
    [@lnd.allow
      "determinism: bounds how long the livelock takes to report; no \
       verdict depends on this value"])
  in
  let t0 = wall () in
  let r = Domains.run d in
  let dt = wall () -. t0 in
  (* an idle Help writes nothing, so no register is ever written *)
  (match r with
  | Ok _ -> Alcotest.fail "nobody writes X: the poller cannot finish"
  | Error m ->
      Alcotest.(check string)
        "names the epoch and every parked machine"
        "livelock at write epoch 0: every machine parked (p0: help0; p1: \
         p1-op)"
        m);
  Alcotest.(check bool) "invocation recorded" true (Option.is_some !invoked);
  Alcotest.(check bool) "response never recorded" false !responded;
  if dt >= 1.0 then Alcotest.failf "livelock took %.2fs to report" dt

let test_domains_budget () =
  (* a loop that diverges while writing never parks: the budget stops it *)
  let rec spin () : (unit, unit) Machine.prog =
    let open Machine in
    let* () = write () (Univ.inj Univ.int 1) in
    let* () = yield in
    spin ()
  in
  let d = Domains.create ~step_budget:1000 () in
  Domains.add_process d ~pid:0 [ unit_job (flag ()) spin ];
  match Domains.run d with
  | Ok _ -> Alcotest.fail "expected budget exhaustion"
  | Error m ->
      Alcotest.(check string)
        "names the stepping machine"
        "p0: domain step budget exhausted (stepping p0-op)" m

let test_domains_noncritical_daemon () =
  let x = flag () in
  let d = Domains.create () in
  let boom : (unit, unit) Machine.prog =
    let open Machine in
    let* _ = read () in
    failwith "boom"
  in
  Domains.add_process d ~pid:0 [ unit_job x (fun () -> set_prog) ];
  Domains.add_process d ~pid:1 [ unit_job x poll_prog ];
  Domains.add_process d ~pid:2 ~correct:false
    ~daemons:
      [
        Plan.Daemon
          { label = "byz2"; prog = boom; cell = (fun () -> x); on_note = ignore };
      ]
    [];
  match Domains.run d with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "a Byzantine daemon failed the run: %s" m

let tests =
  [
    Alcotest.test_case "basic run" `Quick test_basic_run;
    Alcotest.test_case "swarm: sticky uniqueness over 50 schedules" `Quick
      test_swarm_sticky_uniqueness;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "round-robin fairness" `Quick test_fairness_round_robin;
    Alcotest.test_case "daemons don't block quiescence" `Quick
      test_daemon_quiescence;
    Alcotest.test_case "budget exhaustion" `Quick test_budget;
    Alcotest.test_case "kill" `Quick test_kill;
    Alcotest.test_case "enabled mask" `Quick test_enabled_mask;
    Alcotest.test_case "exception captured" `Quick test_exception_captured;
    Alcotest.test_case "on_failure hook fires (not on kill)" `Quick
      test_on_failure_hook;
    Alcotest.test_case "permission violation reaches fiber" `Quick
      test_permission_violation_hits_fiber;
    Alcotest.test_case "clock monotone" `Quick test_clock_monotone;
    Alcotest.test_case "self pid" `Quick test_self;
    Alcotest.test_case "explorer covers interleavings" `Quick
      test_explore_race;
    Alcotest.test_case "domains: a write wakes a parked poller" `Quick
      test_domains_wake;
    Alcotest.test_case "domains: a handshake parks each side at most once"
      `Quick test_domains_handshake;
    Alcotest.test_case "domains: livelock is reported, not spun" `Quick
      test_domains_livelock;
    Alcotest.test_case "domains: budget names the stepping machine" `Quick
      test_domains_budget;
    Alcotest.test_case "domains: non-critical daemon failure is contained"
      `Quick test_domains_noncritical_daemon;
  ]
