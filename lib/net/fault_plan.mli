(** Deterministic fault-injection schedules for the transport.

    The paper's premise is DSM on stock hardware and operating systems:
    messages ride UDP/IP (or AAL3/4) with no delivery guarantee, and
    "operation-specific, user-level protocols" (§3.7) retransmit on
    timers.  A fault plan describes, ahead of a run, how the simulated
    medium misbehaves; combined with the run's seed it makes every
    faulty execution exactly reproducible:

    - {e loss}: each frame is independently dropped with a fixed
      probability;
    - {e duplication}: the medium delivers a second copy of a frame
      shortly after the first (e.g. a retransmitted frame whose original
      was merely late);
    - {e reordering}: a frame is held back by a random extra delay drawn
      from a bounded window, letting later frames overtake it;
    - {e node stalls}: a processor's handler loop pauses for a fixed
      window of virtual time (a descheduled or momentarily frozen host) —
      frames keep arriving but service waits for the window to end;
    - {e unreachable peers}: every frame to or from a listed processor is
      dropped, modelling a network partition.  The transport's bounded
      retry budget converts this into a per-peer {e suspicion} (see
      {!Transport.on_suspect}) instead of retransmitting forever;
    - {e crashes}: a processor fails crash-stop at a fixed virtual time —
      it goes silent, every frame to or from it from then on is dropped,
      and the DSM protocol's failure detection and recovery take over.

    All draws come from the transport's seeded PRNG, so a (seed, plan)
    pair reproduces the event stream bit-for-bit. *)

open Tmk_sim

(** One handler-loop pause window. *)
type stall = { st_pid : int; st_start : Vtime.t; st_len : Vtime.t }

(** One crash-stop failure. *)
type crash = { cr_pid : int; cr_at : Vtime.t }

type t = {
  loss : float;  (** global frame-drop probability *)
  dup : float;  (** frame duplication probability *)
  reorder : float;  (** probability a frame is held back *)
  reorder_window : Vtime.t;  (** maximum extra delay of a held-back frame *)
  stalls : stall list;
  unreachable : int list;  (** partitioned processors *)
  crashes : crash list;  (** crash-stop failures *)
}

(** [none] — the ideal network: no faults, 200 µs default reorder window
    should reordering later be enabled. *)
val none : t

(** Builders; each validates its rate.
    @raise Invalid_argument on rates outside [0,1). *)
val with_loss : t -> float -> t

val with_dup : t -> float -> t
val with_reorder : ?window:Vtime.t -> t -> float -> t
val with_stall : t -> pid:int -> start:Vtime.t -> len:Vtime.t -> t
val with_unreachable : t -> int -> t

(** [with_crash t ~pid ~at] — processor [pid] fails crash-stop at [at].
    @raise Invalid_argument if [pid] already crashes in the plan. *)
val with_crash : t -> pid:int -> at:Vtime.t -> t

(** [crashes t] — the planned crashes, sorted by (time, pid). *)
val crashes : t -> crash list

(** [validate t] re-checks every field (for plans built literally).
    @raise Invalid_argument when a rate or window is out of range. *)
val validate : t -> unit

(** [is_faulty t] — true when any fault can affect {e delivery} (loss,
    duplication, reordering, or a partition); the transport then engages
    its acknowledgement/retransmission protocol.  Stalls alone delay
    service but never lose frames, so they do not require reliability. *)
val is_faulty : t -> bool

(** [unreachable_link t ~src ~dst] — true when either end is partitioned. *)
val unreachable_link : t -> src:int -> dst:int -> bool

(** [stall_until t ~pid ~at] — earliest time at or after [at] when [pid]'s
    handler loop is outside every stall window. *)
val stall_until : t -> pid:int -> at:Vtime.t -> Vtime.t

(** [parse_stalls "1@2000+500,3@0+10000"] — CLI syntax: comma-separated
    [pid@start_us+len_us] windows.
    @raise Invalid_argument on malformed specs. *)
val parse_stalls : string -> stall list

(** [parse_crashes "3@5000,1@20000"] — CLI syntax: comma-separated
    [pid@t_us] crash points.
    @raise Invalid_argument on malformed specs. *)
val parse_crashes : string -> crash list

(** [describe t] — a one-line human-readable summary ("loss 5.0%, stall
    p1 @2000us +500us"). *)
val describe : t -> string
