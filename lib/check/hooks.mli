(** A generic observer of the checker-visible events of a run.

    The protocol dispatches every typed access, every sync edge and every
    [Api.unsynchronized] span to each hook carried by the run's
    {!Checker}.  Hooks let any analyzer (the race detector, the sanitizer
    suite in [lib/lint]) observe a run without the DSM depending on a
    particular one.

    Event contracts: [h_lock_release] fires before the grant leaves the
    releaser, [h_lock_acquired] after the grant (and its piggybacked
    intervals) is absorbed,
    [h_barrier_arrive] before the arrival message goes out,
    [h_barrier_depart] after the release is absorbed, and [h_access] on
    every typed access (installing any hook disables the MMU fast path for
    that run).  [h_suppress pid on] brackets an [Api.unsynchronized]
    span. *)

type access_kind = Read | Write

type t = {
  h_access : pid:int -> access_kind -> addr:int -> width:int -> unit;
  h_lock_acquired : pid:int -> lock:int -> unit;
  h_lock_release : pid:int -> lock:int -> unit;
  h_barrier_arrive : pid:int -> id:int -> unit;
  h_barrier_depart : pid:int -> id:int -> unit;
  h_suppress : pid:int -> bool -> unit;
}

