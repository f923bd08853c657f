(** Run-length delta encoding between two equal-length byte buffers.

    TreadMarks represents page modifications as {e diffs}: "a runlength
    encoded record of the modifications to the page" (paper §2.4), computed
    by comparing the current page contents against its twin.  This module
    implements that encoding generically over [Bytes.t]; [Tmk_mem.Vm]
    layers page identity on top.

    The comparison runs 8 bytes at a time over the flat buffers (dropping
    to byte granularity only inside a differing word) in one pass, and the
    run count and payload size are counted along the way — both sit on the
    per-diff stats path.  An encode allocates only the runs it returns and
    the list holding them.  The runs produced are byte-for-byte identical
    to a naive per-byte scan. *)

(** One modified run: [bytes] replaces the region starting at [offset]. *)
type run = { offset : int; bytes : Bytes.t }

type t

(** [encode ~old_ current] computes the runs where [current] differs from
    [old_].  Runs are maximal, disjoint, and sorted by increasing offset.
    Runs separated by fewer than [join_gap] identical bytes are merged,
    mirroring the wire-efficiency tradeoff of a real implementation (a run
    header costs header bytes; tiny gaps are cheaper to resend).
    [join_gap] defaults to 4.
    @raise Invalid_argument if the buffers have different lengths. *)
val encode : ?join_gap:int -> old_:Bytes.t -> Bytes.t -> t

(** [apply t target] overwrites [target] with each run.
    @raise Invalid_argument if a run falls outside [target]. *)
val apply : t -> Bytes.t -> unit

(** [runs t] — the runs, sorted by increasing offset. *)
val runs : t -> run list

(** [is_empty t] holds when no byte differs. *)
val is_empty : t -> bool

(** [run_count t] is the number of runs; O(1). *)
val run_count : t -> int

(** [payload_size t] is the total number of modified bytes carried; O(1). *)
val payload_size : t -> int

(** [encoded_size t] is the wire size: a 4-byte header per run (offset
    and length, 2 bytes each, since pages are 4 KB) plus the payload;
    O(1). *)
val encoded_size : t -> int
