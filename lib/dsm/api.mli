(** The TreadMarks programming interface.

    Applications are SPMD: {!run} starts the same function once per
    simulated processor.  Each instance allocates shared memory (every
    processor must perform the identical allocation sequence, as in the
    real TreadMarks' [Tmk_malloc] convention), reads and writes it through
    the typed accessors, synchronizes with locks and barriers, and
    accounts for its local computation with {!compute_flops}/{!compute_ns}
    (the simulator cannot observe real instruction streams, so application
    work is charged explicitly; shared-memory accesses themselves cost
    nothing unless they fault, exactly like real loads and stores).

    A minimal program:

    {[
      let config = { Config.default with nprocs = 4; pages = 16 } in
      let result =
        Api.run config (fun ctx ->
            let arr = Api.falloc ctx 100 in
            if Api.pid ctx = 0 then
              for i = 0 to 99 do Api.fset ctx arr i (float_of_int i) done;
            Api.barrier ctx 0;
            (* everyone reads what processor 0 wrote *)
            assert (Api.fget ctx arr 42 = 42.0))
      in
      Fmt.pr "took %a@." Tmk_sim.Vtime.pp result.Api.total_time
    ]} *)

open Tmk_sim

(** Per-processor handle passed to the application function. *)
type ctx

(** Everything measured during a run. *)
type run_result = {
  cluster : Protocol.t;  (** the cluster, for post-run inspection *)
  total_time : Vtime.t;  (** makespan: latest process finish time *)
  proc_finish : Vtime.t array;
  busy : Vtime.t array array;  (** [busy.(pid).(Category.index c)] *)
  idle : Vtime.t array;  (** makespan minus busy, per processor *)
  stats : Stats.t array;  (** per-node protocol counters *)
  total_stats : Stats.t;  (** cluster-wide sum *)
  messages : int;  (** frames handed to the medium *)
  proc_msgs : int array;
      (** frames {e delivered at} each processor — the receive-side load;
          [proc_msgs.(0)] is the hot-spot metric for barriers (the
          centralized manager, the default-width tree, absorbs
          [nprocs - 1] arrivals per barrier, a tree narrowed by
          [Config.barrier_tree] at most [Config.tree_arity]) *)
  bytes : int;  (** on-wire bytes including headers *)
  retransmissions : int;
  frames_coalesced : int;
      (** frames saved by batching ([Config.batching]); for identical
          protocol activity, an unbatched run sends
          [messages + frames_coalesced] frames *)
  stopped : string option;
      (** set when the engine stopped before quiescence (e.g. a peer was
          unreachable under a partition fault plan) *)
  recoveries : Protocol.recovery list;
      (** completed crash failovers, oldest first (empty without a crash
          plan) *)
}

(** Raised by {!run} when a crash made the run unable to complete: the
    surviving processors needed consistency state that only the dead
    processor held.  [pid] is the processor whose loss caused the
    degradation; partial measurements are discarded. *)
exception Degraded of { pid : int; reason : string }

(** [run config app] — build a cluster, run [app] once per processor to
    completion, and collect the measurements.

    With a crash plan ([Fault_plan.crashes]), processors that die are
    reported with their crash instant in [proc_finish] and each failover
    appears in [recoveries]; the run completes with the survivors' work.

    [?trace], when given, installs the typed event sink into the
    configuration (overriding [config.trace]) so the caller can export or
    analyze the run's full protocol event stream afterwards — the single
    entry point for traced and untraced runs alike.

    @raise Degraded when a crash makes completion impossible. *)
val run : ?trace:Tmk_trace.Sink.t -> Config.t -> (ctx -> unit) -> run_result

(** {2 Identity} *)

val pid : ctx -> int
val nprocs : ctx -> int
val config : ctx -> Config.t

(** [prng ctx] — a per-processor deterministic random stream (seeded from
    the run seed and the processor id). *)
val prng : ctx -> Tmk_util.Prng.t

(** {2 Shared memory} *)

(** [malloc ctx ~bytes] — allocate shared memory; returns the base
    address.  Every processor must allocate identically (checked:
    mismatched sequences raise).  [align] defaults to 8; pass
    [Tmk_mem.Vm.page_size] to give a data structure its own page(s) and
    avoid false sharing. *)
val malloc : ?align:int -> ctx -> bytes:int -> int

(** Typed shared arrays (convenience over {!malloc} + raw accessors). *)
type farray

type iarray

val falloc : ?align:int -> ctx -> int -> farray
val ialloc : ?align:int -> ctx -> int -> iarray
val flen : farray -> int
val ilen : iarray -> int
val fget : ctx -> farray -> int -> float
val fset : ctx -> farray -> int -> float -> unit
val iget : ctx -> iarray -> int -> int
val iset : ctx -> iarray -> int -> int -> unit

(** Raw byte-address accessors. *)
val read_f64 : ctx -> int -> float

val write_f64 : ctx -> int -> float -> unit
val read_int : ctx -> int -> int
val write_int : ctx -> int -> int -> unit

(** {2 Synchronization} *)

val acquire : ctx -> int -> unit
val release : ctx -> int -> unit

(** [with_lock ctx lock f] — acquire, run [f], release (also on
    exception). *)
val with_lock : ctx -> int -> (unit -> 'a) -> 'a

val barrier : ctx -> int -> unit

(** [unsynchronized ctx f] — run [f], declaring its shared accesses
    intentionally racy.  TreadMarks programs are expected to be
    data-race-free, but the paper's TSP reads the global bound without
    the lock (§5.2) because a stale bound only costs extra search; this
    is the annotation for such algorithmic races.  When
    [Config.check] carries a race detector, accesses inside [f] are
    invisible to it (no findings, and no frontier updates for later
    accesses to be compared against); without a detector this is just
    [f ()]. *)
val unsynchronized : ctx -> (unit -> 'a) -> 'a

(** {2 Collectives}

    Composed from barriers over a hidden shared slot array (allocated
    lazily on the first reduce, identically on every processor).  All of
    these are collective operations: every processor must call them at the
    same point of the SPMD program, like a barrier.  Barrier ids at and
    above [2{^30}] are reserved for their internal use.

    Every processor folds the per-processor contributions in pid order,
    so all processors return the identical (bit-for-bit) result — no
    "pid 0 accumulates under a lock, everyone barriers, then everyone
    re-reads" boilerplate, and no order-dependent floating-point drift. *)

(** [reduce_f ctx f v] — fold every processor's [v] with [f] (in pid
    order, starting from processor 0's contribution) and return the same
    total on every processor.  [f] must be associative enough for the
    caller's purpose; the fold order is fixed and identical everywhere. *)
val reduce_f : ctx -> (float -> float -> float) -> float -> float

(** [reduce_i ctx f v] — integer analogue of {!reduce_f}. *)
val reduce_i : ctx -> (int -> int -> int) -> int -> int

(** [bcast ?root ctx f] — [f] runs on [root] (default 0) only, then
    everyone meets at a barrier: the standard "one processor initializes
    shared data, all wait" opening.  [f] must not allocate shared memory
    (allocate on every processor first, then broadcast the contents). *)
val bcast : ?root:int -> ctx -> (unit -> unit) -> unit

(** {2 Computation accounting} *)

(** [compute_ns ctx ns] — charge [ns] nanoseconds of application work. *)
val compute_ns : ctx -> int -> unit

(** [compute_flops ctx n] — charge [n] floating-point operations at
    200 ns each. *)
val compute_flops : ctx -> int -> unit
