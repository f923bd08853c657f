(** Eraser-style lockset race detection, adapted to a barrier-synchronized
    SPMD DSM.

    Schedule-insensitive: every shared word must be protected by a fixed
    lock on every access, and a word whose candidate lock set drains to
    empty is a {e potential} race even when this run's schedule happened
    to order the accesses (the case the happens-before detector cannot
    see).  Two adaptations keep the classic state machine quiet on
    correctly synchronized DSM programs: word state resets to Virgin
    across barrier generations, and an HB-ordered access in the Exclusive
    state transfers ownership (lock-mediated work-queue handoff).  See
    PROTOCOL.md, "Sanitizers and lints". *)

type t

(** [create ~segs ()] — the analyzer shares the lint driver's segment
    clocks ([segs] must observe the same sync events as this analyzer's
    accesses). *)
val create : segs:Tmk_check.Segments.t -> unit -> t

(** [access t ~pid kind ~addr ~width] advances the per-word state
    machines.  The caller filters [Api.unsynchronized] spans. *)
val access : t -> pid:int -> Tmk_check.Hooks.access_kind -> addr:int -> width:int -> unit

(** [racy_words t] — sorted word indices whose candidate set went empty,
    for cross-referencing by other analyzers. *)
val racy_words : t -> int list

(** [findings t] — error-severity findings, one per (page, writers,
    readers) with the byte range widened, in canonical order. *)
val findings : t -> Findings.t list
