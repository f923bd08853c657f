(** In-memory event sink.

    A sink is an append-only buffer of timestamped records.  The engine
    owns at most one; every layer emits through it.  Recording one event
    is a couple of array writes — cheap enough that tracing a full Water
    run stays interactive — and when no sink is installed the emitting
    code never allocates (the guard is a single [option] test).

    Records are totally ordered by append order, which for the
    deterministic engine coincides with (virtual time, scheduling order):
    two runs with the same seed and fault plan produce byte-identical
    streams. *)

type record = {
  r_time : int;  (** virtual time, nanoseconds *)
  r_pid : int;  (** emitting processor; [-1] for engine-level events *)
  r_ev : Event.t;
}

type t

(** [create ()] — a fresh, empty sink. *)
val create : unit -> t

(** [emit t ~time ~pid ev] appends one record. *)
val emit : t -> time:int -> pid:int -> Event.t -> unit

(** [on_record t f] registers [f] to be called on every subsequent
    record, after it is buffered.  Its users watch a run as it happens:
    the invariant oracle, the sharing linter and the repository
    benchmark's traced run. *)
val on_record : t -> (record -> unit) -> unit

(** [length t] — number of buffered records. *)
val length : t -> int

(** [iter f t] — visit records in append order. *)
val iter : (record -> unit) -> t -> unit

(** [clear t] — drop all buffered records (listeners stay). *)
val clear : t -> unit
