(* Wall clock, allocation counters and order statistics. *)

let now_ns () : int = Int64.to_int (Monotonic_clock.now ())
let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* Words allocated by the whole program. [Gc.quick_stat] folds a
   domain's counters into the global ones when the domain terminates,
   so read it after [Domain.join] (every driver call below joins its
   domains before returning). [Gc.minor_words] would count only the
   calling domain. *)
let alloc_words () : float =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* The process's peak resident set (VmHWM), which covers every domain's
   minor heap, the shared major heap and fiber stacks. *)
let peak_rss_mb () : float =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | l when String.starts_with ~prefix:"VmHWM:" l ->
        Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* Linear interpolation between closest ranks of a sorted, non-empty
   array; [p] in [0, 1]. *)
let quantile (a : float array) (p : float) : float =
  let pos = p *. float_of_int (Array.length a - 1) in
  let lo = int_of_float (floor pos) in
  let hi = min (lo + 1) (Array.length a - 1) in
  a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let sorted (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs = match xs with [] -> nan | _ -> quantile (sorted xs) 0.5

(* The mean of the quantile function over [lo, hi], sampled at 21
   points. Used for latency percentiles: domains run times cluster at
   multiples of the OS scheduler quantum (about 4 ms apart), and a plain
   percentile that falls between two clusters jumps from one to the other
   when their shares shift by a few runs. *)
let band (xs : float list) ~lo ~hi : float =
  match xs with
  | [] -> nan
  | _ ->
      let a = sorted xs in
      let at i = quantile a (lo +. ((hi -. lo) *. float_of_int i /. 20.)) in
      List.fold_left (fun acc i -> acc +. at i) 0. (List.init 21 Fun.id) /. 21.

let p50 xs = band xs ~lo:0.4 ~hi:0.6
let p90 xs = band xs ~lo:0.85 ~hi:0.95

let ratio num den =
  if den = 0 then nan else float_of_int num /. float_of_int den
