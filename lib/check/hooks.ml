(* A generic observer of the protocol's checker-visible events: the typed
   accesses the software MMU sees, the four sync points, and the
   [Api.unsynchronized] suppression spans.  The DSM layer dispatches to
   every hook a [Checker] carries, so an analyzer — the race detector,
   the lint suite in [lib/lint] — can observe a run without the protocol
   depending on a particular one. *)

type access_kind = Read | Write

type t = {
  h_access : pid:int -> access_kind -> addr:int -> width:int -> unit;
  h_lock_acquired : pid:int -> lock:int -> unit;
  h_lock_release : pid:int -> lock:int -> unit;
  h_barrier_arrive : pid:int -> id:int -> unit;
  h_barrier_depart : pid:int -> id:int -> unit;
  h_suppress : pid:int -> bool -> unit;
}

