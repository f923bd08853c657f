(** Trace analyzer: the paper's §5 measurements, recomputed per event.

    Consumes a recorded stream and derives the figures the evaluation
    section tabulates — lock contention and wait/hold times, hot pages
    (the false-sharing signal: many faults and much diff traffic on the
    same page), barrier skew per epoch, and per-processor wait
    decompositions with a critical-path estimate.  [report] renders them
    with {!Tmk_util.Tablefmt}. *)

type lock_stats = {
  l_id : int;
  l_acquires : int;  (** total acquires across processors *)
  l_local : int;  (** acquires satisfied from the local cached token *)
  l_queued : int;  (** requests that arrived while the lock was held *)
  l_wait_ns : int;  (** total time between acquire request and grant *)
  l_hold_ns : int;  (** total time between grant and release *)
}

type page_stats = {
  p_id : int;
  p_read_faults : int;
  p_write_faults : int;
  p_fetches : int;  (** full-page base fetches *)
  p_invalidations : int;
  p_diff_bytes_created : int;
  p_diff_bytes_applied : int;
  p_writers : int;  (** distinct processors that produced write notices *)
}

type barrier_epoch = {
  be_id : int;
  be_epoch : int;  (** per-barrier occurrence index, computed from the stream *)
  be_first_arrival : int;
  be_last_arrival : int;  (** skew = last − first *)
  be_release : int;  (** time the last processor crossed *)
}

type proc_stats = {
  pr_pid : int;
  pr_finish : int;  (** virtual time the process returned; 0 if unseen *)
  pr_lock_wait : int;
  pr_barrier_wait : int;
  pr_fault_wait : int;
  pr_frames_sent : int;
  pr_bytes_sent : int;
}

type t = {
  a_end : int;  (** time of the last record *)
  a_events : int;
  a_locks : lock_stats list;  (** most-waited-on first *)
  a_pages : page_stats list;
      (** hottest first: faults plus fetches plus diff bytes in and out
          per 256, so a page is hot whether it thrashes through full
          fetches or through diff exchange; ties by page id *)
  a_barriers : barrier_epoch list;  (** chronological *)
  a_procs : proc_stats list;  (** by pid *)
}

(** [analyze sink] — single pass over the stream. *)
val analyze : Sink.t -> t

(** [report ?findings a] — lock-contention, hot-page, barrier-skew and
    per-processor tables plus a critical-path estimate, as printable
    text.  [findings] is a pre-rendered sanitizer findings table
    (rendering lives above this library — see [Tmk_lint.Findings.table]);
    when given it leads the report. *)
val report : ?findings:string -> t -> string
