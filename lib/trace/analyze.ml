module Tablefmt = Tmk_util.Tablefmt

type lock_stats = {
  l_id : int;
  l_acquires : int;
  l_local : int;
  l_queued : int;
  l_wait_ns : int;
  l_hold_ns : int;
}

type page_stats = {
  p_id : int;
  p_read_faults : int;
  p_write_faults : int;
  p_fetches : int;
  p_invalidations : int;
  p_diff_bytes_created : int;
  p_diff_bytes_applied : int;
  p_writers : int;
}

type barrier_epoch = {
  be_id : int;
  be_epoch : int;
  be_first_arrival : int;
  be_last_arrival : int;
  be_release : int;
}

type proc_stats = {
  pr_pid : int;
  pr_finish : int;
  pr_lock_wait : int;
  pr_barrier_wait : int;
  pr_fault_wait : int;
  pr_frames_sent : int;
  pr_bytes_sent : int;
}

type t = {
  a_end : int;
  a_events : int;
  a_locks : lock_stats list;
  a_pages : page_stats list;
  a_barriers : barrier_epoch list;
  a_procs : proc_stats list;
}

(* Mutable accumulators keyed by lock / page / processor id. *)

type lock_acc = {
  mutable k_acquires : int;
  mutable k_local : int;
  mutable k_queued : int;
  mutable k_wait : int;
  mutable k_hold : int;
}

type page_acc = {
  mutable g_rf : int;
  mutable g_wf : int;
  mutable g_fetches : int;
  mutable g_inval : int;
  mutable g_dc : int;
  mutable g_da : int;
  mutable g_writers : int list;  (* small distinct set *)
}

type proc_acc = {
  mutable c_finish : int;
  mutable c_lock_wait : int;
  mutable c_barrier_wait : int;
  mutable c_fault_wait : int;
  mutable c_frames : int;
  mutable c_bytes : int;
}

let get tbl key fresh =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = fresh () in
    Hashtbl.add tbl key v;
    v

(* The ranking key of [a_pages] and the report's hot-page filter: faults
   weighted against diff traffic, so a page is "hot" whether it thrashes
   through full fetches or through diff exchange. *)
let hot_score p =
  p.p_read_faults + p.p_write_faults + p.p_fetches
  + ((p.p_diff_bytes_created + p.p_diff_bytes_applied) / 256)

let analyze sink =
  let locks = Hashtbl.create 16 in
  let pages = Hashtbl.create 64 in
  let procs = Hashtbl.create 16 in
  let lock_acc l =
    get locks l (fun () ->
        { k_acquires = 0; k_local = 0; k_queued = 0; k_wait = 0; k_hold = 0 })
  in
  let page_acc p =
    get pages p (fun () ->
        { g_rf = 0; g_wf = 0; g_fetches = 0; g_inval = 0; g_dc = 0; g_da = 0;
          g_writers = [] })
  in
  let proc_acc p =
    get procs p (fun () ->
        { c_finish = 0; c_lock_wait = 0; c_barrier_wait = 0; c_fault_wait = 0;
          c_frames = 0; c_bytes = 0 })
  in
  (* Open wait intervals: acquire-but-not-yet-acquired, keyed per
     (pid, resource).  Hold intervals keyed likewise. *)
  let lock_wait_start = Hashtbl.create 16 in
  let lock_hold_start = Hashtbl.create 16 in
  let barrier_wait_start = Hashtbl.create 16 in
  let fault_start = Hashtbl.create 16 in
  (* Barrier arrivals/releases grouped by (id, per-pid occurrence index). *)
  let barrier_seq = Hashtbl.create 16 in  (* (id, pid) -> next epoch *)
  let barrier_arrivals = Hashtbl.create 16 in  (* (id, epoch) -> times *)
  let barrier_releases = Hashtbl.create 16 in
  let last_time = ref 0 in
  let n_events = ref 0 in
  Sink.iter
    (fun { Sink.r_time; r_pid; r_ev } ->
      last_time := r_time;
      incr n_events;
      match r_ev with
      | Lock_acquire { lock; _ } ->
        Hashtbl.replace lock_wait_start (r_pid, lock) r_time
      | Lock_acquired { lock; local } ->
        let a = lock_acc lock in
        a.k_acquires <- a.k_acquires + 1;
        if local then a.k_local <- a.k_local + 1;
        (match Hashtbl.find_opt lock_wait_start (r_pid, lock) with
        | Some t0 ->
          Hashtbl.remove lock_wait_start (r_pid, lock);
          a.k_wait <- a.k_wait + (r_time - t0);
          let p = proc_acc r_pid in
          p.c_lock_wait <- p.c_lock_wait + (r_time - t0)
        | None -> ());
        Hashtbl.replace lock_hold_start (r_pid, lock) r_time
      | Lock_release { lock; _ } -> (
        match Hashtbl.find_opt lock_hold_start (r_pid, lock) with
        | Some t0 ->
          Hashtbl.remove lock_hold_start (r_pid, lock);
          let a = lock_acc lock in
          a.k_hold <- a.k_hold + (r_time - t0)
        | None -> ())
      | Lock_queued { lock; _ } ->
        let a = lock_acc lock in
        a.k_queued <- a.k_queued + 1
      | Barrier_arrive { id; _ } ->
        Hashtbl.replace barrier_wait_start (r_pid, id) r_time;
        let seq = Option.value ~default:0 (Hashtbl.find_opt barrier_seq (id, r_pid)) in
        Hashtbl.replace barrier_seq (id, r_pid) (seq + 1);
        let key = (id, seq) in
        let prev = Option.value ~default:[] (Hashtbl.find_opt barrier_arrivals key) in
        Hashtbl.replace barrier_arrivals key (r_time :: prev)
      | Barrier_release { id; _ } -> (
        (match Hashtbl.find_opt barrier_wait_start (r_pid, id) with
        | Some t0 ->
          Hashtbl.remove barrier_wait_start (r_pid, id);
          let p = proc_acc r_pid in
          p.c_barrier_wait <- p.c_barrier_wait + (r_time - t0)
        | None -> ());
        (* the release belongs to the epoch of the latest arrival *)
        match Hashtbl.find_opt barrier_seq (id, r_pid) with
        | Some seq when seq > 0 ->
          let key = (id, seq - 1) in
          let prev = Option.value ~default:[] (Hashtbl.find_opt barrier_releases key) in
          Hashtbl.replace barrier_releases key (r_time :: prev)
        | _ -> ())
      | Page_fault { page; kind } ->
        let g = page_acc page in
        (match kind with
        | Event.Read -> g.g_rf <- g.g_rf + 1
        | Event.Write -> g.g_wf <- g.g_wf + 1);
        Hashtbl.replace fault_start (r_pid, page) r_time
      | Page_fault_done { page; _ } -> (
        match Hashtbl.find_opt fault_start (r_pid, page) with
        | Some t0 ->
          Hashtbl.remove fault_start (r_pid, page);
          let p = proc_acc r_pid in
          p.c_fault_wait <- p.c_fault_wait + (r_time - t0)
        | None -> ())
      | Page_fetch { page; _ } ->
        let g = page_acc page in
        g.g_fetches <- g.g_fetches + 1
      | Page_invalidate { page } ->
        let g = page_acc page in
        g.g_inval <- g.g_inval + 1
      | Diff_create { page; bytes; _ } ->
        let g = page_acc page in
        g.g_dc <- g.g_dc + bytes;
        if not (List.mem r_pid g.g_writers) then g.g_writers <- r_pid :: g.g_writers
      | Diff_apply { page; bytes; _ } ->
        let g = page_acc page in
        g.g_da <- g.g_da + bytes
      | Write_notice_recv { page; proc; _ } ->
        let g = page_acc page in
        if not (List.mem proc g.g_writers) then g.g_writers <- proc :: g.g_writers
      | Frame_send { bytes; _ } ->
        let p = proc_acc r_pid in
        p.c_frames <- p.c_frames + 1;
        p.c_bytes <- p.c_bytes + bytes
      | Proc_finish ->
        let p = proc_acc r_pid in
        p.c_finish <- r_time
      | _ -> ())
    sink;
  let a_locks =
    Hashtbl.fold
      (fun l a acc ->
        { l_id = l; l_acquires = a.k_acquires; l_local = a.k_local;
          l_queued = a.k_queued; l_wait_ns = a.k_wait; l_hold_ns = a.k_hold }
        :: acc)
      locks []
    |> List.sort (fun a b ->
           match compare b.l_wait_ns a.l_wait_ns with
           | 0 -> compare a.l_id b.l_id
           | c -> c)
  in
  let a_pages =
    Hashtbl.fold
      (fun p g acc ->
        { p_id = p; p_read_faults = g.g_rf; p_write_faults = g.g_wf;
          p_fetches = g.g_fetches; p_invalidations = g.g_inval;
          p_diff_bytes_created = g.g_dc; p_diff_bytes_applied = g.g_da;
          p_writers = List.length g.g_writers }
        :: acc)
      pages []
  in
  let a_barriers =
    Hashtbl.fold
      (fun (id, epoch) arrivals acc ->
        let first = List.fold_left min max_int arrivals in
        let last = List.fold_left max 0 arrivals in
        let release =
          match Hashtbl.find_opt barrier_releases (id, epoch) with
          | Some times -> List.fold_left max 0 times
          | None -> last
        in
        { be_id = id; be_epoch = epoch; be_first_arrival = first;
          be_last_arrival = last; be_release = release }
        :: acc)
      barrier_arrivals []
    |> List.sort (fun a b -> compare a.be_first_arrival b.be_first_arrival)
  in
  let a_procs =
    Hashtbl.fold
      (fun pid c acc ->
        { pr_pid = pid; pr_finish = c.c_finish; pr_lock_wait = c.c_lock_wait;
          pr_barrier_wait = c.c_barrier_wait; pr_fault_wait = c.c_fault_wait;
          pr_frames_sent = c.c_frames; pr_bytes_sent = c.c_bytes }
        :: acc)
      procs []
    |> List.filter (fun p -> p.pr_pid >= 0)
    |> List.sort (fun a b -> compare a.pr_pid b.pr_pid)
  in
  let a_pages =
    List.sort
      (fun a b ->
        match compare (hot_score b) (hot_score a) with
        | 0 -> compare a.p_id b.p_id
        | c -> c)
      a_pages
  in
  { a_end = !last_time; a_events = !n_events; a_locks; a_pages; a_barriers; a_procs }

(* ---- rendering ---- *)

let ms ns = Printf.sprintf "%.3f" (float_of_int ns /. 1e6)

(* Per-something averages: traces with no acquires (or one processor)
   have a zero denominator; render "-" instead of dividing. *)
let avg_ms num den = if den <= 0 then "-" else ms (num / den)

let take n l =
  let rec go n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: go (n - 1) tl
  in
  go n l

let report ?findings a =
  let b = Buffer.create 2048 in
  let add s =
    Buffer.add_string b s;
    Buffer.add_char b '\n'
  in
  add
    (Printf.sprintf "trace: %d events over %s ms of virtual time" a.a_events
       (ms a.a_end));
  add "";
  (match findings with
  | Some table ->
    add table;
    add ""
  | None -> ());
  (if a.a_locks = [] then add "no lock activity."
   else
     let rows =
       List.map
         (fun l ->
           [ string_of_int l.l_id; string_of_int l.l_acquires;
             string_of_int l.l_local; string_of_int l.l_queued;
             ms l.l_wait_ns; ms l.l_hold_ns;
             avg_ms l.l_wait_ns l.l_acquires;
             avg_ms l.l_hold_ns l.l_acquires ])
         (take 10 a.a_locks)
     in
     add
       (Tablefmt.render ~title:"Lock contention (top 10 by total wait)"
          ~header:
            [ "lock"; "acquires"; "local"; "queued"; "wait ms"; "hold ms";
              "avg wait"; "avg hold" ]
          rows));
  (let hot = List.filter (fun p -> hot_score p > 0) a.a_pages in
   if hot = [] then add "no page activity."
   else
     let rows =
       List.map
         (fun p ->
           [ string_of_int p.p_id; string_of_int p.p_read_faults;
             string_of_int p.p_write_faults; string_of_int p.p_fetches;
             string_of_int p.p_invalidations; string_of_int p.p_writers;
             string_of_int p.p_diff_bytes_created;
             string_of_int p.p_diff_bytes_applied ])
         (take 10 hot)
     in
     add
       (Tablefmt.render ~title:"Hot pages (top 10; many writers = false-sharing candidate)"
          ~header:
            [ "page"; "rd faults"; "wr faults"; "fetches"; "invals"; "writers";
              "diff B out"; "diff B in" ]
          rows));
  (if a.a_barriers = [] then add "no barrier activity."
   else
     let shown = take 20 a.a_barriers in
     (* count each list once for the whole report block — [a_barriers] can
        hold one epoch per barrier of a long run *)
     let n_barriers = List.length a.a_barriers and n_shown = List.length shown in
     (* Average skew over the gaps between consecutive arrivals: n
        processors have n-1 gaps; single-processor runs have none. *)
     let gaps = List.length a.a_procs - 1 in
     let rows =
       List.map
         (fun e ->
           [ string_of_int e.be_id; string_of_int e.be_epoch;
             ms e.be_first_arrival; ms e.be_last_arrival;
             ms (e.be_last_arrival - e.be_first_arrival);
             avg_ms (e.be_last_arrival - e.be_first_arrival) gaps;
             ms (e.be_release - e.be_last_arrival) ])
         shown
     in
     add
       (Tablefmt.render ~title:"Barrier skew per epoch"
          ~header:
            [ "barrier"; "epoch"; "first ms"; "last ms"; "skew ms"; "skew/gap";
              "mgr ms" ]
          rows);
     if n_barriers > n_shown then
       add (Printf.sprintf "(… %d more epochs not shown)" (n_barriers - n_shown)));
  (if a.a_procs = [] then add "no per-processor activity."
   else
     let rows =
       List.map
         (fun p ->
           [ string_of_int p.pr_pid; ms p.pr_finish; ms p.pr_lock_wait;
             ms p.pr_barrier_wait; ms p.pr_fault_wait;
             string_of_int p.pr_frames_sent; string_of_int p.pr_bytes_sent ])
         a.a_procs
     in
     add
       (Tablefmt.render ~title:"Per-processor waits"
          ~header:
            [ "cpu"; "finish ms"; "lock wait"; "barrier wait"; "fault wait";
              "frames"; "bytes" ]
          rows));
  (match
     List.fold_left
       (fun best p ->
         match best with
         | Some q when q.pr_finish >= p.pr_finish -> best
         | _ -> Some p)
       None a.a_procs
   with
  | None -> ()
  | Some p ->
    let waits = p.pr_lock_wait + p.pr_barrier_wait + p.pr_fault_wait in
    add
      (Printf.sprintf
         "critical path: cpu %d finishes last at %s ms — %s ms lock wait, %s ms \
          barrier wait, %s ms fault wait, %s ms compute/other"
         p.pr_pid (ms p.pr_finish) (ms p.pr_lock_wait) (ms p.pr_barrier_wait)
         (ms p.pr_fault_wait)
         (ms (p.pr_finish - waits))));
  Buffer.contents b
