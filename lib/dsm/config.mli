(** Cluster configuration. *)

(** Consistency protocol (§2 and §5.1), i.e. the coherence backend the
    cluster runs ({!Backend}). *)
type protocol =
  | Lrc  (** lazy release consistency, invalidate, lazy diffs (TreadMarks) *)
  | Erc  (** eager release consistency, update protocol (the Munin-style baseline) *)
  | Sc
      (** sequentially consistent single-writer protocol (the Li-Hudak-style
          "early DSM" baseline of §2.3; see {!Sc}) *)
  | Tardis
      (** timestamp-counter coherence with read leases: no vector
          timestamps on the wire, per-page write/read counters at a
          distributed manager, lease sweeps at synchronization (see
          {!Tardis}) *)
  | Sc_abd
      (** majority-quorum replicated sequential consistency: ABD-style
          two-phase word-granularity reads/writes over full replicas,
          crash-stop tolerant with zero recovery protocol (see
          {!Sc_abd}) *)

type t = {
  nprocs : int;  (** cluster size (the paper uses up to 8) *)
  pages : int;  (** shared address space, in 4096-byte pages *)
  protocol : protocol;
  net : Tmk_net.Params.t;  (** communication substrate *)
  faults : Tmk_net.Fault_plan.t;
      (** deterministic fault-injection schedule for the run; the default
          {!Tmk_net.Fault_plan.none} is the ideal network *)
  gc_threshold : int;
      (** run garbage collection at the next barrier once a node holds more
          than this many consistency records (intervals + notices + diffs);
          [max_int] disables *)
  seed : int64;  (** root of every random stream in the run *)
  lazy_diffs : bool;
      (** [true] (TreadMarks): diffs are created only when requested or
          when a write notice arrives (§2.4).  [false]: Munin-style eager
          diff creation at every interval close — the ablation of the
          §2.4/§5.2 claim that laziness reduces diff counts *)
  lrc_updates : bool;
      (** [false] (TreadMarks): the invalidate protocol — write notices
          invalidate pages and diffs move on demand.  [true]: the hybrid
          update protocol §2.2 mentions as the alternative — grants and
          barrier releases piggyback the diffs of pages the receiver is
          believed to cache, and valid pages are updated in place instead
          of invalidated *)
  batching : bool;
      (** [true] (the default): consistency traffic destined for one peer
          is coalesced — the write notices and piggybacked intervals of a
          grant or barrier message travel in a single frame, multi-page
          diff requests to the same responder are gathered into one
          request/response pair, and responders cache computed diffs so
          repeated fetches of the same (page, interval) diff skip the RLE
          recomputation.  [false]: every logical part goes out as its own
          frame and responders recompute diffs on every fetch — the
          unbatched ablation for the E11 scaling study *)
  diff_backup : bool;
      (** [true]: every diff is mirrored, at creation, to one
          deterministic backup peer (the next live processor), so the
          committed work of a processor that later crashes stays
          fetchable and barrier programs survive the crash with results
          identical to a crash-free run restricted to the surviving work.
          Implies eager diff creation at interval close (a diff that was
          never created cannot have been mirrored).  [false] (the
          default): no replication — a crash can strand diffs that only
          the dead processor held, degrading the run (see
          {!Api.Degraded}).  Only meaningful for backends whose
          [Backend.caps.c_diff_backup] is set (Lrc). *)
  sharding : bool;
      (** [true]: page and lock managership is assigned by the
          consistent-hash {!Ring} instead of the static [mod nprocs] /
          processor-0 layout, and GC bookkeeping is routed through the
          per-shard owners.  Results are digest-identical to flat runs;
          only which processor plays manager for each object changes.
          [false] (the default): the flat TreadMarks layout *)
  barrier_tree : bool;
      (** Barriers and the GC exchange always run over one combining
          tree rooted at processor 0: arrivals combine upward, releases
          flow downward.  [true]: the tree has arity [tree_arity].
          Incompatible with crash schedules, since an interior node's
          death would orphan its subtree.  [false] (the default): arity
          [nprocs - 1], every other processor a direct child of
          processor 0 — the centralized barrier of §3.4 *)
  tree_arity : int;
      (** fan-in of each tree node under [barrier_tree] (>= 2); ignored
          otherwise *)
  trace : Tmk_trace.Sink.t option;
      (** typed protocol-event sink; [None] (the default) disables
          tracing entirely — no events are recorded and no run behaviour
          changes.  Install a {!Tmk_trace.Sink.t} to capture the full
          structured stream (see [lib/trace]) *)
  check : Tmk_check.Checker.t option;
      (** DRF / protocol checker for the run; [None] (the default)
          checks nothing and costs nothing.  A {!Tmk_check.Race.t}
          observes every typed access and all lock/barrier edges; a
          {!Tmk_check.Oracle.t} is attached to the run's trace sink
          ([Api.run] installs a private sink when none is configured).
          Checkers are observers only — simulated time, results and
          message traffic are identical with and without them *)
}

(** [default] — 8 processors, 256 pages, LRC on ATM/AAL3/4, GC off,
    2 µs-per-10-flops application speed (a DECstation-5000/240-class
    scalar FPU). *)
val default : t

(** [validate t] checks invariants.  Capability-dependent admissibility
    (crash schedules, [diff_backup]) is checked by [Protocol.create]
    against the selected backend's {!Backend.caps}.
    @raise Invalid_argument when a field is out of range, or when the
    crash schedule leaves no processor running. *)
val validate : t -> unit

val protocol_name : protocol -> string

(** [protocol_description p] — a short human label for stats output,
    e.g. ["lazy release consistency"], ["sc-abd quorum replication"]. *)
val protocol_description : protocol -> string

(** [protocol_of_string s] — inverse of {!protocol_name}
    (case-insensitive; also accepts the aliases "lrc", "erc",
    "single-writer" and "abd").
    @raise Invalid_argument on unknown names, listing the valid ones. *)
val protocol_of_string : string -> protocol
