(** Protocol invariant oracle.

    Replays the typed event stream — live via a sink listener or offline
    from a recorded JSONL trace — and asserts properties every correct
    run satisfies regardless of what the application computes.  Racy
    programs get wrong {e answers}, never wrong {e protocol} — the
    oracle checks the protocol:

    - {b I1} vector-time monotonicity per processor, own entry = closed
      interval id, ids strictly increasing;
    - {b I2} incorporation exactness: close timestamps claim exactly the
      peer intervals whose records were received, receipts strictly
      increasing per peer;
    - {b I3} coverage: a remote lock acquire leaves the acquirer knowing
      at least everything the granter knew at grant time, and a barrier
      release leaves every client knowing at least what the manager
      released with — what [intervals_since] promises, the stream
      delivers;
    - {b I4} barrier agreement: per (id, occurrence) at most [nprocs]
      arrivals, all in the same global epoch, each matched by a release,
      all complete at end of run;
    - {b I5} diff conservation: identified diff applications reference a
      created diff and agree on its payload size across appliers;
    - {b I6} GC safety: no write notice received or diff applied for an
      interval at or below the receiver's knowledge at its last
      collection.

    Every check runs under every backend.  Only LRC closes and receives
    intervals, so under eager, sc, tardis and sc-abd the knowledge I1-I3
    compare stays all zero and they hold trivially; a backend that starts
    closing intervals meets them at once. *)

type t

(** [create ~nprocs ()] — fresh oracle for one run. *)
val create : nprocs:int -> unit -> t

val nprocs : t -> int

(** [attach t sink] — register [feed] as a listener for a live run. *)
val attach : t -> Tmk_trace.Sink.t -> unit

(** [finish t] — run end-of-stream checks and return all violations in
    discovery order (capped at 200, with a summary line beyond that).
    Call once, after the run. *)
val finish : t -> string list

(** [check_sink ~nprocs sink] — one-shot offline pass over a buffered or
    re-read stream. *)
val check_sink : nprocs:int -> Tmk_trace.Sink.t -> string list

(** [report violations] — human-readable summary. *)
val report : string list -> string
