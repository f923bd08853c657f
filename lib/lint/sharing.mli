(** Sharing-pattern linter: per-interval page classification plus
    trace-mined anti-patterns.

    Classifies every page, per barrier interval, from the typed accesses:
    single-writer, producer-consumer, migratory, falsely-shared (several
    processors writing pairwise-disjoint word ranges of one page) or
    true-shared.  The trace listener adds diff fragmentation,
    never-consumed write notices and lock contention.  All findings are
    advisory (warning/info): the program is correct, just paying LRC
    costs it could avoid. *)

type t

val create : segs:Tmk_check.Segments.t -> nprocs:int -> unit -> t

(** [access t ~pid kind ~addr ~width] records one typed access into the
    page's current barrier-interval epoch.  The caller filters
    [Api.unsynchronized] spans. *)
val access : t -> pid:int -> Tmk_check.Hooks.access_kind -> addr:int -> width:int -> unit

(** [listen t sink] registers the trace listener (diff creation, write
    notices, page faults, lock queueing) on the run's sink. *)
val listen : t -> Tmk_trace.Sink.t -> unit

(** [classification_table t] — one Tablefmt row per accessed page, sorted
    by page: its pattern ("single-writer", "producer-consumer",
    "migratory", "falsely-shared", "true-shared" or "read-only"), the
    barrier intervals in which it was accessed, its writers and its
    readers.  Finalizes any open intervals. *)
val classification_table : t -> string

(** [findings t] — false-sharing warnings, fragmentation / dead-notice
    infos, lock-contention warnings, in canonical order. *)
val findings : t -> Findings.t list
