(** Jacobi — iterative grid relaxation (a form of successive
    over-relaxation, §4.3).

    The paper runs a 2000×1000 grid; the default here is scaled down but
    keeps the structure that gives Jacobi near-linear speedup: rows are
    block-partitioned, all synchronization is barriers, and the only
    communication is the two boundary rows each processor shares with its
    neighbours. *)

open Tmk_dsm

type params = {
  rows : int;
  cols : int;
  iters : int;
  seed : int64;
  flops_per_point : int;  (** charged application work per grid point *)
}

(** [default] — 96×64 grid, 12 iterations. *)
val default : params

(** [pages_needed p] — shared pages the run requires (for [Config.pages]). *)
val pages_needed : params -> int

(** [sequential p] — reference implementation; returns the final grid. *)
val sequential : params -> float array array

(** [parallel ctx p] — SPMD body.  Returns the final grid on processor 0,
    [None] elsewhere.  Bit-identical to {!sequential}.  [collect:false]
    skips the result read-back (which faults in the whole grid on
    processor 0) so timing runs measure only the computation proper. *)
val parallel : ?collect:bool -> Api.ctx -> params -> float array array option
