(** Vector timestamps over the partial order of intervals (§2.2).

    A timestamp has one entry per processor.  Entry [q] of processor [p]'s
    current timestamp names the most recent interval of [q] that precedes
    [p]'s current interval in the happened-before partial order; entry [p]
    is [p]'s own current interval index. *)

type t

(** [create n] is the zero vector over [n] processors (no intervals seen;
    interval indices start at 1). *)
val create : int -> t

(** [copy t] is an independent duplicate. *)
val copy : t -> t

(** [get t q] / [set t q i] access entry [q]. *)
val get : t -> int -> int

val set : t -> int -> int -> unit

(** [max_into ~src ~dst] folds [src] into [dst] by pairwise maximum — the
    acquirer's new timestamp rule. *)
val max_into : src:t -> dst:t -> unit

(** [leq a b] holds when [a] ≤ [b] pointwise: every interval covered by
    [a] is covered by [b]. *)
val leq : t -> t -> bool

(** [leq_at q a b] is [leq a b], testing entry [q] first.  When [a] is
    the timestamp of one of [q]'s intervals, a [b] that has not counted
    that interval fails at that first test.
    @raise Invalid_argument when the sizes differ or [q] is not an entry. *)
val leq_at : int -> t -> t -> bool

(** [compare_total a b] is [-1], [0] or [1] in the lexicographic order of
    the entry vectors.  That total order extends the partial order: if
    [leq a b] and [a] differs from [b] then [compare_total a b < 0]; it
    is [0] exactly when the entries are equal.  Used to
    apply concurrent diffs deterministically (their runs are disjoint for
    properly-labeled programs, so any deterministic order merges
    correctly).
    @raise Invalid_argument when the sizes differ. *)
val compare_total : t -> t -> int

(** [bytes n] is the wire size of a timestamp over [n] processors (32-bit
    entries). *)
val bytes : int -> int
