(** Per-node protocol event counters.

    These feed the paper's execution statistics (Figure 4) and the
    lazy-vs-eager comparison (Figures 9–12).  Communication volume lives
    in {!Tmk_net.Transport}; simulated time lives in
    {!Tmk_sim.Engine}. *)

type t = {
  mutable lock_acquires : int;  (** every application acquire *)
  mutable lock_remote : int;  (** acquires that needed communication *)
  mutable barriers : int;
  mutable read_faults : int;
  mutable write_faults : int;
  mutable remote_misses : int;  (** faults that fetched pages or diffs *)
  mutable twins_created : int;
  mutable diffs_created : int;
  mutable diffs_applied : int;
  mutable diff_bytes_created : int;
  mutable write_notices_in : int;  (** notices received in sync messages *)
  mutable intervals_in : int;
  mutable page_fetches : int;  (** full-page copies received *)
  mutable gc_runs : int;
  mutable records_discarded : int;  (** consistency records freed by GC *)
  mutable diff_cache_hits : int;
      (** responder-side diff fetches answered from the (proc, interval,
          page) diff cache without recomputing the RLE encoding (batched
          mode only) *)
  mutable diff_cache_misses : int;
      (** responder-side diff fetches that had to compute/look up the
          diff and populated the cache (batched mode only) *)
  mutable diff_prefetch_entries : int;
      (** diff entries gathered onto another page's request to the same
          responder — multi-page request aggregation (batched mode only) *)
  mutable diff_backups : int;
      (** diffs mirrored to a backup peer at creation
          ({!Config.diff_backup} mode only) *)
  mutable diff_backup_bytes : int;  (** payload bytes of those mirrors *)
  mutable lease_expiries : int;
      (** Tardis: cached pages invalidated by a lease sweep at a
          synchronization point *)
  mutable quorum_reads : int;
      (** SC-ABD: majority-quorum page reads (one per access miss) *)
  mutable quorum_writes : int;
      (** SC-ABD: two-phase quorum flushes (one per release/barrier with
          dirty pages) *)
}

val create : unit -> t

(** [add ~into t] accumulates [t] into [into] (cluster totals). *)
val add : into:t -> t -> unit
