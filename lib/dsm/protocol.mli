(** The protocol engine: backend-agnostic synchronization plumbing over a
    pluggable {!Backend} coherence engine.

    One value of type {!t} is a running cluster: an {!Tmk_sim.Engine}
    with one DSM node per processor, a {!Tmk_net.Transport} between them,
    lock and barrier managers, and the fault machinery wired into every
    node's {!Tmk_mem.Vm}.

    The operations below are the synchronization API the applications
    program against.  They must be called from the application process of
    the named processor (they block on remote replies).  Shared-memory
    loads and stores go straight through {!Tmk_mem.Vm} accessors on
    [Node.vm]; protection faults re-enter this module automatically,
    dispatching to the selected backend.

    What this module owns, identically under every backend:

    - {b locks} (§3.3): token caching, static managers with cyclic
      failover, request forwarding to the last requester, queued waiters
      drained at release;
    - {b barriers} (§3.4): arrivals combine up one tree rooted at the
      barrier manager (processor 0) and releases fan back down it; at the
      default width of [nprocs - 1] this is the paper's centralized
      manager, and [Config.barrier_tree] narrows it to
      [Config.tree_arity];
    - {b garbage collection} (§3.6): triggered when the backend's
      [b_want_gc] says so, keep-bitmap exchange over the same tree,
      copyset adoption, record discard;
    - {b crash handling}: suspicion-driven death detection, membership
      epochs, deterministic metadata failover, heartbeat probing and the
      post-recovery grace window.

    What each message {e carries} and what absorbing it {e means} is the
    backend's business, reached through the hooks of {!Backend.t}: LRC
    grants piggyback interval records whose write notices invalidate
    pages; ERC flushes diffs eagerly at release so synchronization
    carries nothing; SC serializes each page at a per-page manager;
    Tardis ships one scalar timestamp per synchronization and expires
    leases locally; SC-ABD quorum-replicates every word and needs no
    recovery at all.  [Config.protocol] selects the backend, whose
    {!Backend.caps} say what it supports.

    {b Failure model (crash-stop).}  A processor named in the fault
    plan's crash schedule goes silent at its planned instant; only
    backends with [caps.c_crash_runs] admit such plans ({!create} rejects
    the rest).  Detection runs through the transport's suspicion
    mechanism (organic retransmission exhaustion, plus heartbeat probes
    while a crash plan is armed).  On detection the membership epoch is
    bumped and metadata fails over deterministically: lock managership
    migrates to the next live processor in cyclic pid order, lost lock
    tokens are regenerated, live waiters are re-injected in pid order,
    registered in-flight operations are re-issued against live peers,
    the backend prunes its own per-processor state ([b_on_death]), and
    barrier/GC completion re-counts against the live membership.  A
    backend with [caps.c_zero_recovery] (SC-ABD) rides out the crash by
    construction: nothing is rebuilt and no recovery is recorded.  A run
    that would need state only the dead processor held records a
    fatality — surfaced by [Api.run] as [Degraded] — and stops
    cleanly. *)

open Tmk_sim

type t

(** One completed metadata failover. *)
type recovery = {
  rc_pid : int;  (** the dead processor *)
  rc_epoch : int;  (** membership epoch after the death *)
  rc_crash_at : Vtime.t;  (** when the processor went silent *)
  rc_detected_at : Vtime.t;  (** when suspicion declared it dead *)
  rc_locks_rehomed : int;  (** locks whose metadata was rebuilt *)
  rc_retries : int;  (** in-flight operations re-issued *)
}

(** [create config] builds the cluster (engine, transport, nodes, the
    selected coherence backend, fault wiring).  Application processes are
    spawned by the caller via {!Engine.spawn} on {!engine}.
    @raise Invalid_argument if [config] asks for a capability the
    selected backend lacks (crash schedule without [c_crash_runs],
    [diff_backup] without [c_diff_backup]). *)
val create : Config.t -> t

val config : t -> Config.t
val engine : t -> Engine.t
val transport : t -> Tmk_net.Transport.t

(** [node t pid] — processor [pid]'s DSM state (shared-memory access goes
    through [Node.vm]). *)
val node : t -> int -> Node.t

(** [acquire t ~pid ~lock] — lock acquire (application context). *)
val acquire : t -> pid:int -> lock:int -> unit

(** [release t ~pid ~lock] — lock release (application context).
    @raise Invalid_argument if [pid] does not hold [lock]. *)
val release : t -> pid:int -> lock:int -> unit

(** [barrier t ~pid ~id] — global barrier; every processor must call it
    with the same [id] sequence. *)
val barrier : t -> pid:int -> id:int -> unit

(** [charge_compute t ~pid ns] — account [ns] nanoseconds of application
    computation on [pid] (application context). *)
val charge_compute : t -> pid:int -> int -> unit

(** [recoveries t] — completed failovers, oldest first.  Empty when no
    processor died, and also when a [c_zero_recovery] backend absorbed
    every death without rebuilding anything. *)
val recoveries : t -> recovery list

(** [fatality t] — set when the run degraded: the processor whose loss
    caused it, and why.  {!Api.run} turns this into [Api.Degraded]. *)
val fatality : t -> (int * string) option
