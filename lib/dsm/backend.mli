(** The coherence-backend interface.

    A {e backend} is one consistency engine — LRC, ERC, SC, Tardis,
    SC-ABD — packaged behind a first-class record of hooks so the
    protocol core ({!Protocol}) stays backend-agnostic: it owns the
    transport, lock/barrier token machinery, membership and failure
    detection, garbage collection plumbing and tracing, and calls into
    the selected backend at the points where consistency actions happen
    (faults, grant assembly, sync absorption, flushes, GC validation).

    Payload values are closures: the simulator ships message contents as
    opaque OCaml values, so a backend encodes "what travels on this
    grant/release" as a [payload] whose [p_absorb] runs at the receiver.
    Wire sizes are explicit ([p_bytes]) because the simulated network
    charges for them. *)

(** Capability flags, used by {!Protocol.create} to validate a
    configuration against the selected backend (replacing the historic
    Lrc-only [invalid_arg] checks in [Config.validate]) and by its
    crash recovery ([c_zero_recovery]). *)
type caps = {
  c_crash_runs : bool;  (** crash schedules are admissible *)
  c_zero_recovery : bool;
      (** crashes are tolerated by construction: detection still runs,
          but no recovery protocol (lock rebuild aside) is required and
          a crash that re-homes nothing is not counted as a recovery *)
  c_diff_backup : bool;  (** [Config.diff_backup] applies *)
  c_max_procs : int;
      (** largest cluster the backend supports; [Protocol.create]
          rejects bigger ones (SC-ABD's full-membership quorums stop at
          64, the others run to the simulator ceiling of 1024) *)
}

(** One backend-defined message payload: its wire size, its logical part
    count (for transport batching), and the receiver-side absorption
    (run under [Cluster.atomically] in application context, or with a
    handler charge in handler context). *)
type payload = {
  p_bytes : int;
  p_parts : int;
  p_absorb : charge:Node.charge -> unit;
}

(** A barrier arrival: what the client sends to its manager
    ([v_bytes]/[v_parts]/[v_absorb_mgr], the latter run in the manager's
    receive handler) and how the manager later builds this client's
    release ([v_release], run at the manager inside one atomic section
    per client).  The manager is the client's parent in the barrier
    tree: the central barrier manager at the default width, an interior
    node under a narrower [Config.barrier_tree].  The arrival is built
    against that manager's estimated knowledge. *)
type arrival = {
  v_bytes : int;
  v_parts : int;
  v_absorb_mgr : charge:Node.charge -> unit;
  v_release : charge:Node.charge -> payload;
}

(** A lock acquire in flight: [a_grant] travels inside the request and
    is invoked by whichever processor ends up granting (it captures the
    requester's consistency state at request time — its vector timestamp
    under LRC, its logical timestamp under Tardis); the returned
    payload's [p_absorb] runs back at the requester. *)
type acq = { a_grant : granter:int -> charge:Node.charge -> payload }

type t = {
  b_caps : caps;
  b_handle_fault : pid:int -> Tmk_mem.Vm.access -> int -> unit;
      (** application-context fault entry (the SIGSEGV analogue);
          returns when the access is legal *)
  b_lock_request_bytes : int;  (** wire size of lock request/forward frames *)
  b_pre_acquire : pid:int -> unit;
      (** run at every acquire entry, before the cached-token check
          (SC-ABD flushes its dirty pages and drops its cached copies
          here so the critical section reads fresh quorum state) *)
  b_make_acquire : pid:int -> acq;
      (** build the consistency side of a remote acquire (app context,
          before the request is sent) *)
  b_pre_release : pid:int -> unit;
      (** run before a release hands the token on (ERC/SC-ABD flush) *)
  b_pre_barrier : pid:int -> unit;  (** run at barrier arrival, before anything else *)
  b_barrier_begin : pid:int -> unit;
      (** run after the arrival-build charges (LRC closes its interval here) *)
  b_make_arrival : pid:int -> mgr:int -> relay:bool -> arrival;
      (** build the arrival (app context) addressed to manager [mgr].
          [relay = false]: a first-hop arrival carrying only this
          processor's own consistency records (a tree leaf, which every
          client is at the default width).  [relay = true]: an interior
          tree node forwarding
          everything it knows that [mgr] may lack — it has already
          absorbed its children's arrivals, and their records must
          travel on to the root *)
  b_barrier_depart : pid:int -> unit;
      (** manager-side hook after all releases are sent (Tardis sweeps
          its leases here; the clients sweep inside their release
          payload's absorb) *)
  b_want_gc : pid:int -> bool;  (** request consistency-record GC at the next barrier *)
  b_gc_validate : pid:int -> unit;
      (** GC step 1: bring every locally modified page to a fetchable
          state before records are discarded *)
  b_on_death : int -> unit;  (** failover hook: drop the dead processor
          from backend-private metadata (copysets, directories) *)
}

(** {2 Defaults} *)

(** [plain_absorb ~charge] — the receiver's flat incorporation charge
    for a synchronization message that carries no consistency records. *)
val plain_absorb : charge:Node.charge -> unit

(** [plain caps ~nprocs ~fault] — a backend whose only hook is its fault
    handler [fault]: locks and barriers carry a fixed header and no
    consistency payload (memory is kept consistent by the fault path),
    and every other hook does nothing.  A backend overrides the hooks it
    uses with [{ (plain ...) with ... }]. *)
val plain : caps -> nprocs:int -> fault:(pid:int -> Tmk_mem.Vm.access -> int -> unit) -> t
