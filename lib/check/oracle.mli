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
      collection. *)

type t

(** [create ~nprocs ()] — fresh oracle for one run. *)
val create : nprocs:int -> unit -> t

val nprocs : t -> int

(** [set_vt_checked t b] — enable or disable the vector-time invariants
    (I1, I2, and the knowledge-coverage half of I3; on by default).
    Coherence backends without vector timestamps on the wire
    ([Backend.caps.c_vt_on_wire = false]: Tardis, SC-ABD) emit no
    interval events and make knowledge comparisons vacuous, so [Api.run]
    switches these checks off for them; the structural barrier checks
    (I4) and diff conservation (I5) stay on for every backend. *)
val set_vt_checked : t -> bool -> unit

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
