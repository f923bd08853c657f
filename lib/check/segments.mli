(** Segment clocks: the happens-before skeleton shared by the checkers.

    Each processor's program order is cut into segments at every lock
    acquire/release and barrier arrive/depart; happens-before over
    segments is the transitive closure of program order plus the
    release→acquire and all-to-all barrier sync edges.  One instance is
    shared per run: the happens-before race detector ({!Race}) and the
    lockset analyzer ([lib/lint]) both consult it, so "ordered" means the
    same thing to both. *)

type segment = {
  s_pid : int;
  s_idx : int;  (** 1-based index of this segment in its processor's order *)
  s_open : int array;  (** the processor's clock when the segment opened *)
  s_ctx : string;  (** the synchronization that opened it, for reports *)
  s_locks : int list;  (** locks held while the segment runs *)
}

type t

val create : nprocs:int -> unit -> t

(** [current t pid] is the processor's open segment. *)
val current : t -> int -> segment

(** [held t pid] is the set of locks the processor holds right now. *)
val held : t -> int -> int list

(** [generation t] counts barrier occurrences absorbed so far (each
    occurrence bumps it exactly once, at its first departure).  Accesses
    with different generations are separated — and therefore ordered — by
    at least one all-to-all barrier. *)
val generation : t -> int

(** [ordered s cur] — did segment [s] happen before the (current) segment
    [cur]?  True within one processor (program order). *)
val ordered : segment -> segment -> bool

(** Sync edges, reported by the protocol layer.  [lock_release] must be
    reported before the matching grant leaves the releaser; [lock_acquired]
    after the grant (and its piggybacked intervals) is absorbed;
    [barrier_arrive] before the arrival message is sent; [barrier_depart]
    after the release is absorbed. *)
val lock_release : t -> pid:int -> lock:int -> unit

val lock_acquired : t -> pid:int -> lock:int -> unit
val barrier_arrive : t -> pid:int -> id:int -> unit
val barrier_depart : t -> pid:int -> id:int -> unit

