(* The traced run: one [Api.run] with a [Tmk_trace.Sink] installed, from
   which the benchmark rebuilds wait spans and counts, and with the OCaml
   runtime's own event ring ([Runtime_events]) read for GC pauses.

   Records are folded into the accumulators as they are emitted and the
   sink is emptied every [flush_every] records, so a million-record run
   keeps only a small buffer alive. *)

open Tmk_dsm
module Event = Tmk_trace.Event
module Sink = Tmk_trace.Sink

type t = {
  records : int;
  lock_wait_us : float array;
  barrier_wait_us : float array;
  fault_service_us : float array;
  lock_forwards : int;
  intervals_closed : int;
  invalidations : int;
  diff_fetches : int;
  diff_sizes : float array;  (** encoded bytes of every diff created *)
  gc_minor : int;
  gc_major : int;
  gc_pauses_us : float array;
  gc_lost : int;  (** runtime events overwritten before they were read *)
}

let flush_every = 65_536

(* Spans keyed by pid: [open_ pid time] at the start event, [close pid
   time] at the end event pushes the duration in µs. *)
let spans () =
  let starts = Hashtbl.create 64 and out = Tmk_util.Vec.create () in
  let open_ pid time = Hashtbl.replace starts pid time in
  let close pid time =
    match Hashtbl.find_opt starts pid with
    | Some t0 ->
      Hashtbl.remove starts pid;
      Tmk_util.Vec.push out (float_of_int (time - t0) /. 1000.0)
    | None -> ()
  in
  (open_, close, fun () -> Array.of_list (Tmk_util.Vec.to_list out))

(* Runtime_events accounting: a pause is an outermost runtime phase
   (nested phases belong to it); minor collections are EV_MINOR phases and
   major cycles EV_MAJOR_GC_CYCLE_DOMAINS phases. *)
type gc_counts = {
  mutable depth : int;
  mutable start : int64;
  mutable minor : int;
  mutable major : int;
  mutable lost : int;
  pauses : float Tmk_util.Vec.t;
}

type gc = { cursor : Runtime_events.cursor; callbacks : Runtime_events.Callbacks.t; st : gc_counts }

let gc_start () =
  Runtime_events.start ();
  let st = { depth = 0; start = 0L; minor = 0; major = 0; lost = 0; pauses = Tmk_util.Vec.create () } in
  let stamp ts = Runtime_events.Timestamp.to_int64 ts in
  let runtime_begin _ ts phase =
    if st.depth = 0 then st.start <- stamp ts;
    st.depth <- st.depth + 1;
    match phase with
    | Runtime_events.EV_MINOR -> st.minor <- st.minor + 1
    | Runtime_events.EV_MAJOR_GC_CYCLE_DOMAINS -> st.major <- st.major + 1
    | _ -> ()
  in
  let runtime_end _ ts _ =
    if st.depth > 0 then begin
      st.depth <- st.depth - 1;
      if st.depth = 0 then
        Tmk_util.Vec.push st.pauses (Int64.to_float (Int64.sub (stamp ts) st.start) /. 1000.0)
    end
  in
  let lost_events _ n = st.lost <- st.lost + n in
  {
    cursor = Runtime_events.create_cursor None;
    callbacks = Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ();
    st;
  }

let gc_poll g = ignore (Runtime_events.read_poll g.cursor g.callbacks None)

let gc_reset g =
  gc_poll g;
  g.st.depth <- 0;
  g.st.minor <- 0;
  g.st.major <- 0;
  g.st.lost <- 0;
  Tmk_util.Vec.clear g.st.pauses

let run ~gc cfg body =
  let sink = Sink.create () in
  let lock_open, lock_close, lock_waits = spans () in
  let bar_open, bar_close, bar_waits = spans () in
  let fault_open, fault_close, fault_times = spans () in
  let records = ref 0 and forwards = ref 0 and closes = ref 0 and invalidations = ref 0 in
  let fetches = ref 0 and diff_sizes = Tmk_util.Vec.create () in
  Sink.on_record sink (fun { Sink.r_time = time; r_pid = pid; r_ev } ->
      incr records;
      (match r_ev with
      | Event.Lock_acquire _ -> lock_open pid time
      | Event.Lock_acquired _ -> lock_close pid time
      | Event.Barrier_arrive _ -> bar_open pid time
      | Event.Barrier_release _ -> bar_close pid time
      | Event.Page_fault _ -> fault_open pid time
      | Event.Page_fault_done _ -> fault_close pid time
      | Event.Lock_forward _ -> incr forwards
      | Event.Interval_close _ -> incr closes
      | Event.Page_invalidate _ -> incr invalidations
      | Event.Diff_fetch _ -> incr fetches
      | Event.Diff_create { bytes; _ } -> Tmk_util.Vec.push diff_sizes (float_of_int bytes)
      | _ -> ());
      if !records mod flush_every = 0 then begin
        Sink.clear sink;
        gc_poll gc
      end);
  gc_reset gc;
  let alarm = Gc.create_alarm (fun () -> gc_poll gc) in
  let t0 = Unix.gettimeofday () in
  let result = Api.run ~trace:sink cfg body in
  let wall = Unix.gettimeofday () -. t0 in
  Gc.delete_alarm alarm;
  gc_poll gc;
  let traced =
    {
      records = !records;
      lock_wait_us = lock_waits ();
      barrier_wait_us = bar_waits ();
      fault_service_us = fault_times ();
      lock_forwards = !forwards;
      intervals_closed = !closes;
      invalidations = !invalidations;
      diff_fetches = !fetches;
      diff_sizes = Array.of_list (Tmk_util.Vec.to_list diff_sizes);
      gc_minor = gc.st.minor;
      gc_major = gc.st.major;
      gc_pauses_us = Array.of_list (Tmk_util.Vec.to_list gc.st.pauses);
      gc_lost = gc.st.lost;
    }
  in
  (result, wall, traced)
