(* trace_event JSON writer: each entry is one printed Json object.
   Timestamps ("ts") are microseconds; ours are nanoseconds, so every
   slice boundary is time / 1000 printed with three decimals.  That is
   exact while a trace spans less than 4.5e6 simulated seconds, where the
   quotient's rounding error stays below the half nanosecond that would
   change the last digit. *)

module Json = Tmk_util.Json

let ts ns = Json.Float (float_of_int ns /. 1000., 3)

type emitter = { b : Buffer.t; mutable first : bool }

let entry e fields =
  if e.first then e.first <- false else Buffer.add_string e.b ",\n";
  Json.to_buffer e.b (Json.Obj fields)

let meta_thread e ~tid ~name =
  entry e
    Json.
      [ ("ph", String "M"); ("pid", Int 1); ("tid", Int tid); ("name", String "thread_name");
        ("args", Obj [ ("name", String name) ]) ]

let complete e ~tid ~name ~cat ~start ~stop ev =
  entry e
    Json.
      [ ("ph", String "X"); ("pid", Int 1); ("tid", Int tid); ("name", String name);
        ("cat", String cat); ("ts", ts start); ("dur", ts (stop - start));
        ("args", Obj (Event.args ev)) ]

let instant e ~tid ~cat ~ts:t ev =
  entry e
    Json.
      [ ("ph", String "i"); ("s", String "t"); ("pid", Int 1); ("tid", Int tid);
        ("name", String (Event.name ev)); ("cat", String cat); ("ts", ts t);
        ("args", Obj (Event.args ev)) ]

let counter e ~name ~ts:t ~value =
  entry e
    Json.
      [ ("ph", String "C"); ("pid", Int 1); ("tid", Int 0); ("name", String name);
        ("ts", ts t); ("args", Obj [ ("value", Int value) ]) ]

(* Event classification. *)

let cat_of (ev : Event.t) =
  match ev with
  | Lock_acquire _ | Lock_acquired _ | Lock_release _ | Lock_queued _
  | Lock_request_recv _ | Lock_forward _ | Lock_grant _ -> "lock"
  | Barrier_arrive _ | Barrier_release _ -> "barrier"
  | Page_fault _ | Page_fault_done _ | Twin_create _ | Page_fetch _
  | Page_invalidate _ -> "page"
  | Diff_create _ | Diff_apply _ | Diff_fetch _ | Diff_cache _ -> "diff"
  | Interval_close _ | Interval_recv _ | Write_notice_recv _ -> "consistency"
  | Frame_send _ | Frame_recv _ | Frame_drop _ | Frame_dup _ | Frame_batch _ -> "net"
  | Gc_begin _ | Gc_end _ -> "gc"
  | Proc_crash | Peer_suspect _ | Failover _ | Recovery_done _ | Diff_backup _ ->
    "failure"
  | Ts_sync _ -> "consistency"
  | Lease_expire _ | Quorum_read _ | Quorum_write _ -> "page"
  | Proc_finish -> "engine"

(* Begin/end pairing: a begin event opens a span under a key; the
   matching end event closes the most recent open span with that key on
   the same track (they cannot interleave per processor, but a stack
   keeps us safe regardless). *)

let span_begin (ev : Event.t) =
  match ev with
  | Lock_acquire { lock; _ } -> Some (Printf.sprintf "lock-wait L%d" lock)
  | Barrier_arrive { id; _ } -> Some (Printf.sprintf "barrier %d" id)
  | Page_fault { page; kind } ->
    Some (Printf.sprintf "%s-fault p%d" (Event.fault_kind_name kind) page)
  | Gc_begin _ -> Some "gc"
  | _ -> None

let span_end (ev : Event.t) =
  match ev with
  | Lock_acquired { lock; _ } -> Some (Printf.sprintf "lock-wait L%d" lock)
  | Barrier_release { id; _ } -> Some (Printf.sprintf "barrier %d" id)
  | Page_fault_done { page; kind } ->
    Some (Printf.sprintf "%s-fault p%d" (Event.fault_kind_name kind) page)
  | Gc_end _ -> Some "gc"
  | _ -> None

let write oc sink =
  let e = { b = Buffer.create 8192; first = true } in
  Buffer.add_string e.b "{\"traceEvents\":[\n";
  (* Track names.  Records with pid = -1 (the engine's) go on a
     dedicated track numbered past the last processor. *)
  let max_pid = ref (-1) in
  Sink.iter (fun r -> if r.Sink.r_pid > !max_pid then max_pid := r.Sink.r_pid) sink;
  let engine_tid = !max_pid + 1 in
  for p = 0 to !max_pid do
    meta_thread e ~tid:p ~name:(Printf.sprintf "cpu %d" p)
  done;
  meta_thread e ~tid:engine_tid ~name:"engine";
  let tid_of pid = if pid < 0 then engine_tid else pid in
  (* Open spans: (tid, key) -> start time * begin event, newest first. *)
  let open_spans : (int * string, (int * Event.t) list) Hashtbl.t =
    Hashtbl.create 64
  in
  let last_time = ref 0 in
  (* Counters, sampled whenever they change. *)
  let frames = ref 0 and wire = ref 0 and diff_bytes = ref 0 and faults = ref 0 in
  Sink.iter
    (fun { Sink.r_time; r_pid; r_ev } ->
      last_time := r_time;
      let tid = tid_of r_pid in
      let cat = cat_of r_ev in
      (match span_begin r_ev with
      | Some key ->
        let stack = Option.value ~default:[] (Hashtbl.find_opt open_spans (tid, key)) in
        Hashtbl.replace open_spans (tid, key) ((r_time, r_ev) :: stack)
      | None -> (
        match span_end r_ev with
        | Some key -> (
          match Hashtbl.find_opt open_spans (tid, key) with
          | Some ((start, bev) :: rest) ->
            Hashtbl.replace open_spans (tid, key) rest;
            complete e ~tid ~name:key ~cat ~start ~stop:r_time bev
          | _ ->
            (* end without begin: render as an instant so nothing is lost *)
            instant e ~tid ~cat ~ts:r_time r_ev)
        | None -> instant e ~tid ~cat ~ts:r_time r_ev));
      match r_ev with
      | Frame_send { bytes; _ } ->
        incr frames;
        wire := !wire + bytes;
        counter e ~name:"frames sent" ~ts:r_time ~value:!frames;
        counter e ~name:"wire bytes" ~ts:r_time ~value:!wire
      | Diff_create { bytes; _ } ->
        diff_bytes := !diff_bytes + bytes;
        counter e ~name:"diff bytes" ~ts:r_time ~value:!diff_bytes
      | Page_fault _ ->
        incr faults;
        counter e ~name:"page faults" ~ts:r_time ~value:!faults
      | _ -> ())
    sink;
  (* Close anything still open at the end of the trace. *)
  let leftovers = ref [] in
  Hashtbl.iter
    (fun (tid, key) stack ->
      List.iter (fun (start, bev) -> leftovers := (tid, key, start, bev) :: !leftovers) stack)
    open_spans;
  List.iter
    (fun (tid, key, start, bev) ->
      complete e ~tid ~name:key ~cat:(cat_of bev) ~start ~stop:!last_time bev)
    (List.sort compare !leftovers);
  Buffer.add_string e.b "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.output_buffer oc e.b
