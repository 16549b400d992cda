(* Ablations for Algorithm 2, straight from the Section 7.1 prose. Both
   are Algorithm 2's own programs with one part taken out.

   1. [write_nowait] — the paper asks: "a reader may wonder why, to write
      a value v, the writer has to wait for n-f witnesses of v before
      returning done ... It turns out that without this wait, a process
      may invoke a READ after a WRITE(v) completes and get back ⊥."
      This variant is WRITE's lines 1-2 alone: it returns done right
      after writing E_1; the test suite exhibits exactly that validity
      violation.

   2. [help_lax] — Algorithm 2 uses a *stricter* witness policy than
      Algorithm 1: a process echoes first and witnesses only after n-f
      echoes, because "the stricter policy ... prevents correct processes
      from becoming witnesses for different values". This variant is Help
      with Algorithm 1's lax policy as its witness step (witness a value
      as soon as it is seen in the writer's register) and without lines
      34-36. The test suite shows an equivocating Byzantine writer
      splitting the correct witnesses between two values, which leaves
      READ unable to assemble an n-f quorum. *)

open Lnd_support
open Lnd_runtime
open Machine

let[@lnd.pure] nowait_prog (v : Value.t) : (Sticky_core.reg, unit) prog =
  let* _wrote = Sticky_core.announce v in
  ret ()

(* The lax witness step: adopt the writer's current value on sight. *)
let[@lnd.pure] help_lax_prog ~n ~pid : (Sticky_core.reg, unit) prog =
  Sticky_core.help_with ~n ~pid
    ~witness:
      (Sticky_core.adopt ~pid
         (let* e0 = read (Sticky_core.E 0) in
          ret (Sticky_core.dec_vopt e0)))
    ~amplify:(ret ())

let write_nowait (w : Sticky.writer) (v : Value.t) : unit =
  Drive.run ~cell:(Sticky.cell_of w.Sticky.w_regs) (nowait_prog v)

let help_lax (rg : Sticky.regs) ~pid : unit =
  Drive.run ~cell:(Sticky.cell_of rg)
    (help_lax_prog ~n:rg.Sticky.cfg.Sticky.n ~pid)
