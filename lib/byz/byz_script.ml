(* Genome-scripted Byzantine adversaries.

   A script is a plain int array that fully determines one Byzantine
   responder's behaviour: two leading "posture" genes choose what the
   process advertises in its owned protocol registers, and every
   subsequent gene is consumed — one per reply — to decide what the
   process claims to the next asker it answers. The interpretation is
   deterministic (no RNG, no wall clock), so a (schedule, genome) pair
   replays a whole adversarial execution exactly; the synthesiser
   (Lnd_fuzz.Synth) searches this space by mutating genes.

   Gene decoding is total: any int is reduced mod 3, so random mutation
   never produces an invalid script. Genomes cycle once exhausted; the
   empty genome behaves as all-zeroes. The interpreter (Byz_script_core)
   is a policy over the same Byz_core responder as the named strategies
   of Byz_sticky/Byz_verifiable, and two of those are genomes access for
   access: [0] is the naysayer and [1] the false witness (on the
   verifiable register, at a reader's pid). [2] is an
   honest-but-slow helper, and mixed genes express the
   support-then-retract colluders behind the weakened-quorum attacks. *)

open Lnd_support
open Lnd_runtime

type t = { pid : int; genome : int array; value : Value.t }

let make ~pid ~genome ~value : t = { pid; genome = Array.of_list genome; value }
let genome (sc : t) : int list = Array.to_list sc.genome

let describe (sc : t) : string =
  Printf.sprintf "p%d:%s[%s]" sc.pid sc.value
    (String.concat "," (List.map string_of_int (genome sc)))

let mutate rng (sc : t) : t =
  let len = Array.length sc.genome in
  if len = 0 then { sc with genome = [| Rng.int rng 6 |] }
  else if Rng.int rng 4 = 0 then
    (* occasionally grow: a longer genome can change behaviour later in
       the run than any point mutation *)
    { sc with genome = Array.append sc.genome [| Rng.int rng 6 |] }
  else begin
    let g = Array.copy sc.genome in
    g.(Rng.int rng len) <- Rng.int rng 6;
    { sc with genome = g }
  end

(* ---------------- Sticky register (Algorithm 2) ---------------- *)

let spawn_sticky sched (regs : Lnd_sticky.Sticky.regs) (sc : t) : Sched.fiber =
  let n = regs.Lnd_sticky.Sticky.cfg.Lnd_sticky.Sticky.n in
  Sched.spawn sched ~pid:sc.pid
    ~name:(Printf.sprintf "byz-script%d" sc.pid)
    ~daemon:true
    (fun () ->
      Drive.run
        ~cell:(Lnd_sticky.Sticky.cell_of regs)
        (Byz_script_core.sticky_prog ~n ~pid:sc.pid ~genome:sc.genome
           ~value:sc.value))

(* ---------------- Verifiable register (Algorithm 1) ---------------- *)

let spawn_verifiable sched (regs : Lnd_verifiable.Verifiable.regs) (sc : t) :
    Sched.fiber =
  let n = regs.Lnd_verifiable.Verifiable.cfg.Lnd_verifiable.Verifiable.n in
  Sched.spawn sched ~pid:sc.pid
    ~name:(Printf.sprintf "byz-script%d" sc.pid)
    ~daemon:true
    (fun () ->
      Drive.run
        ~cell:(Lnd_verifiable.Verifiable.cell_of regs)
        (Byz_script_core.verifiable_prog ~n ~pid:sc.pid ~genome:sc.genome
           ~value:sc.value))
