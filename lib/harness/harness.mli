(** Experiment runner: executes the five applications under a chosen
    cluster configuration and extracts the statistics the paper reports
    (execution time, synchronization and communication rates, execution
    time breakdowns, diff counts). *)

open Tmk_dsm

(** The five §4.3 applications, plus the two deliberately racy fixtures:
    [Racey] — the happens-before detector's ({!Tmk_apps.Racey}) — and
    [Racey2] — the lockset analyzer's ({!Tmk_apps.Racey2}). *)
type app = Water | Jacobi | Tsp | Quicksort | Ilink | Racey | Racey2

(** [all_apps] in the paper's reporting order.  [Racey] and [Racey2] are
    excluded: they exist to be caught by [--racecheck] / [--lint], not
    benchmarked. *)
val all_apps : app list

val app_name : app -> string

(** [app_of_name s] — inverse of {!app_name} (case-insensitive).  Also
    accepts a source path naming the app, e.g. ["examples/racey.ml"].
    @raise Invalid_argument on unknown names. *)
val app_of_name : string -> app

(** Per-run measurements, cluster-wide (rates are totals divided by the
    run's makespan, matching Figure 4). *)
type metrics = {
  m_app : app;
  m_nprocs : int;
  m_protocol : Config.protocol;
  m_net : string;
  m_time_s : float;  (** execution time (simulated seconds) *)
  m_barriers_per_sec : float;
  m_locks_per_sec : float;
  m_msgs_per_sec : float;
  m_kbytes_per_sec : float;
  m_diffs_per_sec : float;  (** diff creation rate (Figure 12) *)
  m_comp_pct : float;  (** Figure 5 components, percent of nprocs × time *)
  m_unix_comm_pct : float;
  m_unix_mem_pct : float;
  m_tmk_mem_pct : float;
  m_tmk_consistency_pct : float;
  m_tmk_other_pct : float;
  m_idle_pct : float;
  m_raw : Api.run_result;
}

(** [unix_pct m] / [tmk_pct m] — the grouped Figure 5 bars. *)
val unix_pct : metrics -> float

val tmk_pct : metrics -> float

(** Experiment-scale workload parameters (larger than the unit-test
    sizes; chosen so the 8-processor communication-to-computation ratios
    land in the paper's regimes — see EXPERIMENTS.md). *)
val water_params : Tmk_apps.Water.params

val jacobi_params : Tmk_apps.Jacobi.params
val tsp_params : Tmk_apps.Tsp.params
val quicksort_params : Tmk_apps.Quicksort.params

(** [workload_description app] — a short human-readable input summary. *)
val workload_description : app -> string

(** [config ~app ~nprocs ~protocol ~net] — a cluster configuration sized
    for [app]'s experiment workload. *)
val config :
  app:app -> nprocs:int -> protocol:Config.protocol -> net:Tmk_net.Params.t -> Config.t

(** [run ~app ~nprocs ~protocol ~net] — execute and measure. *)
val run :
  app:app -> nprocs:int -> protocol:Config.protocol -> net:Tmk_net.Params.t -> metrics

(** [run_cfg ~app cfg] — like {!run} with full control of the cluster
    configuration (seed, GC threshold, diffing policy, fault plan...).
    [?trace] is forwarded to {!Api.run}: pass a sink to capture the typed
    event stream (overriding [cfg.trace]) and assert on trace-derived
    quantities afterwards (lock contention, hot pages, barrier skew — see
    {!Tmk_trace.Analyze}). *)
val run_cfg : ?trace:Tmk_trace.Sink.t -> app:app -> Config.t -> metrics

(** [breakdown_table m] — a per-processor execution-time table (one row
    per processor: the six {!Tmk_sim.Category.t} busy columns, their sum,
    and the idle remainder [makespan − Σ busy] reported explicitly). *)
val breakdown_table : metrics -> string

(** [run_checked ~app cfg] — like {!run_cfg} but also collects the DSM
    result on processor 0 and returns a hex digest of its
    schedule-independent part (Water energy+positions, Jacobi grid, TSP
    best tour length, Quicksort sorted array, ILINK likelihood+theta).
    Two runs of the same workload must digest identically regardless of
    the fault plan — the robustness criterion of experiment E10.  Note
    the collection traffic makes the metrics slightly heavier than
    {!run_cfg}'s. *)
val run_checked : app:app -> Config.t -> metrics * string

(** [parallel_map ~jobs f items] — map [f] over [items] on up to [jobs]
    OCaml domains (sequentially when [jobs <= 1]).  Results are returned
    in item order regardless of scheduling, so reports built from them
    are byte-identical to a sequential run.  [f] must be self-contained —
    every simulation run is (it builds its own cluster and RNG streams
    from the config seed) — and must not force shared [lazy] values. *)
val parallel_map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
