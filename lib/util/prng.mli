(** Deterministic splittable pseudo-random number generator.

    The whole reproduction must be replayable from a single seed: workload
    generation, application scheduling decisions, and any randomised test
    input all draw from this generator.  We use SplitMix64 (Steele, Lea &
    Flood, OOPSLA 2014), which is tiny, fast, has a 64-bit state, and
    supports {e splitting}: deriving an independent stream for a
    sub-component so that adding draws in one module does not perturb the
    stream seen by another. *)

type t

(** [create seed] makes a fresh generator from a 64-bit seed. *)
val create : int64 -> t

(** [split_named t name] derives a generator whose stream is independent
    of further draws from [t]; [t] itself advances by one step.  The label
    enters the new stream's seed, so call sites are robust to reordering. *)
val split_named : t -> string -> t

(** [int t bound] draws uniformly from [0, bound).  [bound] must be
    positive. *)
val int : t -> int -> int

(** [int_in t lo hi] draws uniformly from the inclusive range [lo, hi]. *)
val int_in : t -> int -> int -> int

(** [float t bound] draws uniformly from [0, bound). *)
val float : t -> float -> float
