(* Protocol invariant oracle.

   A pass over the typed event stream (live, through a sink listener, or
   offline over a recorded JSONL trace) asserting properties every
   correct run must satisfy, whatever the application does — the oracle
   holds even for racy programs; it checks the protocol, not the app.

   I1  Vector-time monotonicity: each processor's interval-close
       timestamps are totally ordered, own-component = interval id,
       ids strictly increasing.
   I2  Incorporation exactness: a processor's close timestamp claims,
       for every peer, exactly the intervals whose records it received
       (no invented knowledge, no forgotten receipts); received ids are
       strictly increasing per (owner, receiver).
   I3  Coverage at acquire: a remote lock acquire leaves the acquirer
       knowing at least everything the granter knew when it assembled
       the grant, and a barrier release leaves every client knowing at
       least what the manager knew when it released — the records
       promised by intervals_since really all arrive.  (A stronger
       "knowledge dominates every piggybacked timestamp" check is
       unsound: a node serving a lock grant mid-barrier can legitimately
       hold a record whose timestamp references arrivals it has not
       itself incorporated yet.)
   I4  Barrier epoch agreement: all arrivals at one (id, occurrence)
       carry the same global barrier sequence number, at most nprocs of
       them, and every arrival is matched by exactly one release.
   I5  Diff conservation: every identified diff application references a
       diff previously created by its owning processor, and all
       applications of one (proc, interval, page) patch the same number
       of bytes.  (ERC's eager diffs carry interval -1 and are exempt:
       they are transient and never cached.)
   I6  GC safety: after a processor runs garbage collection, it never
       receives a write notice or applies a diff for an interval at or
       below the knowledge it held when it collected — collected records
       are truly dead.

   Crash-stop runs: a [Proc_crash] event marks its processor dead, and
   the end-of-run barrier completeness checks (I4) are relaxed by the
   number of dead processors — a crossing may legitimately complete with
   only the survivors, and the arrivals of a crossing in flight at the
   crash may exceed its releases by the dead. *)

type t = {
  o_nprocs : int;
  know : int array array;  (* know.(p).(q): highest interval of q that p incorporated *)
  grant_snap : (int * int, int array Queue.t) Hashtbl.t;
      (* (lock, requester) -> granter knowledge at each in-flight grant *)
  bar_snap : (int * int, int array) Hashtbl.t;
      (* (id, occurrence) -> manager knowledge at its release *)
  last_close : int array option array;
  bar_seq : (int * int, int) Hashtbl.t;  (* (id, pid) -> arrivals so far *)
  bar_epoch : (int * int, int) Hashtbl.t;  (* (id, occurrence) -> first epoch seen *)
  bar_in : (int * int, int) Hashtbl.t;  (* (id, occurrence) -> arrivals *)
  bar_out : (int * int, int) Hashtbl.t;  (* (id, occurrence) -> releases *)
  diff_created : (int * int * int, unit) Hashtbl.t;  (* (proc, interval, page) *)
  diff_bytes : (int * int * int, int) Hashtbl.t;
  gc_floor : int array option array;  (* per pid: know at its last Gc_end *)
  crashed : Tmk_util.Bitset.t;  (* the pids whose Proc_crash was seen *)
  mutable violations : string list;  (* newest first *)
  mutable nviol : int;
  mutable fed : int;
}

let max_recorded = 200

let create ~nprocs () =
  if nprocs <= 0 then invalid_arg "Oracle.create: nprocs must be positive";
  {
    o_nprocs = nprocs;
    know = Array.init nprocs (fun _ -> Array.make nprocs 0);
    grant_snap = Hashtbl.create 16;
    bar_snap = Hashtbl.create 16;
    last_close = Array.make nprocs None;
    bar_seq = Hashtbl.create 16;
    bar_epoch = Hashtbl.create 16;
    bar_in = Hashtbl.create 16;
    bar_out = Hashtbl.create 16;
    diff_created = Hashtbl.create 64;
    diff_bytes = Hashtbl.create 64;
    gc_floor = Array.make nprocs None;
    crashed = Tmk_util.Bitset.create nprocs;
    violations = [];
    nviol = 0;
    fed = 0;
  }

let nprocs t = t.o_nprocs

let viol t fmt =
  Printf.ksprintf
    (fun msg ->
      t.nviol <- t.nviol + 1;
      if t.nviol <= max_recorded then t.violations <- msg :: t.violations)
    fmt

let leq a b =
  let ok = ref true in
  Array.iteri (fun i v -> if v > b.(i) then ok := false) a;
  !ok

(* I3: at a sync completion point, [p]'s knowledge must dominate the
   snapshot taken of its sync partner (granter or barrier manager) when
   the partner assembled the records. *)
let coverage t p ~against:snap where =
  let k = t.know.(p) in
  for q = 0 to t.o_nprocs - 1 do
    if snap.(q) > k.(q) then
      viol t
        "I3 coverage: p%d %s knowing p%d only up to interval %d; its partner knew %d"
        p where q k.(q) snap.(q)
  done

let feed t (r : Tmk_trace.Sink.record) =
  t.fed <- t.fed + 1;
  let p = r.r_pid in
  let in_range = p >= 0 && p < t.o_nprocs in
  match r.r_ev with
  | Tmk_trace.Event.Interval_close { id; notices = _; vt } when in_range ->
    if Array.length vt <> t.o_nprocs then
      viol t "I1 p%d closed interval %d with a %d-entry vector timestamp (cluster has %d)"
        p id (Array.length vt) t.o_nprocs
    else begin
      if vt.(p) <> id then
        viol t "I1 p%d closed interval %d but its own vt entry says %d" p id vt.(p);
      if id <= t.know.(p).(p) then
        viol t "I1 p%d interval ids not increasing: closed %d after %d" p id t.know.(p).(p);
      (match t.last_close.(p) with
      | Some prev when not (leq prev vt) ->
        viol t "I1 p%d vector time not monotonic at interval %d" p id
      | _ -> ());
      for q = 0 to t.o_nprocs - 1 do
        if q <> p && vt.(q) <> t.know.(p).(q) then
          viol t
            "I2 p%d closed interval %d claiming p%d's interval %d; incorporation says %d"
            p id q vt.(q) t.know.(p).(q)
      done;
      t.know.(p).(p) <- id;
      t.last_close.(p) <- Some (Array.copy vt)
    end
  | Interval_recv { proc = q; id; notices = _; vt } when in_range ->
    if q = p then viol t "I2 p%d incorporated its own interval %d" p id
    else if q < 0 || q >= t.o_nprocs then
      viol t "I2 p%d incorporated an interval from unknown p%d" p q
    else begin
      if id <= t.know.(p).(q) then
        viol t "I2 p%d re-incorporated p%d's interval %d (already at %d)" p q id
          t.know.(p).(q);
      if Array.length vt = t.o_nprocs then begin
        if vt.(q) <> id then
          viol t "I2 p%d's record of p%d's interval %d carries own vt entry %d" p q id
            vt.(q)
      end
      else viol t "I2 p%d received a malformed vector timestamp from p%d" p q;
      t.know.(p).(q) <- max t.know.(p).(q) id
    end
  | Lock_grant { lock; requester; _ } when in_range ->
    (* Snapshot the granter's knowledge: the grant carries every record
       the requester lacks of it, so the requester must dominate this at
       its Lock_acquired. *)
    let q =
      match Hashtbl.find_opt t.grant_snap (lock, requester) with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.add t.grant_snap (lock, requester) q;
        q
    in
    Queue.push (Array.copy t.know.(p)) q
  | Lock_acquired { lock; local } when in_range ->
    if not local then (
      match Hashtbl.find_opt t.grant_snap (lock, p) with
      | Some q when not (Queue.is_empty q) ->
        coverage t p ~against:(Queue.pop q) "finished a remote acquire"
      | _ ->
        viol t "I3 p%d finished a remote acquire of lock %d with no grant in flight" p
          lock)
  | Barrier_arrive { id; epoch } when in_range ->
    let occ = try Hashtbl.find t.bar_seq (id, p) with Not_found -> 0 in
    Hashtbl.replace t.bar_seq (id, p) (occ + 1);
    let arrived = (try Hashtbl.find t.bar_in (id, occ) with Not_found -> 0) + 1 in
    Hashtbl.replace t.bar_in (id, occ) arrived;
    if arrived > t.o_nprocs then
      viol t "I4 barrier %d crossing %d saw %d arrivals for %d processors" id occ arrived
        t.o_nprocs;
    (match Hashtbl.find_opt t.bar_epoch (id, occ) with
    | None -> Hashtbl.add t.bar_epoch (id, occ) epoch
    | Some e ->
      if e <> epoch then
        viol t "I4 barrier %d crossing %d: p%d arrives in epoch %d, another in %d" id occ
          p epoch e)
  | Barrier_release { id; epoch = _ } when in_range ->
    let occ = (try Hashtbl.find t.bar_seq (id, p) with Not_found -> 0) - 1 in
    if occ < 0 then viol t "I4 p%d released from barrier %d it never arrived at" p id
    else begin
      (* The manager releases the clients, so its own Barrier_release is
         the first of the crossing in stream order; every client must
         then dominate the knowledge the manager released with. *)
      (match Hashtbl.find_opt t.bar_snap (id, occ) with
      | None -> Hashtbl.add t.bar_snap (id, occ) (Array.copy t.know.(p))
      | Some snap -> coverage t p ~against:snap "crossed a barrier");
      let released = (try Hashtbl.find t.bar_out (id, occ) with Not_found -> 0) + 1 in
      Hashtbl.replace t.bar_out (id, occ) released;
      if released > t.o_nprocs then
        viol t "I4 barrier %d crossing %d released %d times" id occ released
    end
  | Diff_create { page; bytes = _; proc; interval } when in_range && interval >= 0 ->
    if proc <> p then
      viol t "I5 p%d created a diff owned by p%d (interval %d, page %d)" p proc interval
        page;
    if Hashtbl.mem t.diff_created (proc, interval, page) then
      viol t "I5 diff (p%d, interval %d, page %d) created twice" proc interval page
    else Hashtbl.add t.diff_created (proc, interval, page) ()
  | Diff_apply { page; bytes; proc; interval } when in_range && interval >= 0 ->
    if not (Hashtbl.mem t.diff_created (proc, interval, page)) then
      viol t "I5 p%d applied diff (p%d, interval %d, page %d) that was never created" p
        proc interval page;
    (match Hashtbl.find_opt t.diff_bytes (proc, interval, page) with
    | None -> Hashtbl.add t.diff_bytes (proc, interval, page) bytes
    | Some b ->
      if b <> bytes then
        viol t "I5 diff (p%d, interval %d, page %d) applied with %d bytes, earlier %d"
          proc interval page bytes b);
    (match t.gc_floor.(p) with
    | Some floor when proc >= 0 && proc < t.o_nprocs && interval <= floor.(proc) ->
      viol t "I6 p%d applied diff of p%d's collected interval %d (floor %d)" p proc
        interval floor.(proc)
    | _ -> ())
  | Write_notice_recv { page; proc; interval } when in_range ->
    (match t.gc_floor.(p) with
    | Some floor when proc >= 0 && proc < t.o_nprocs && interval <= floor.(proc) ->
      viol t
        "I6 p%d received a write notice (page %d) for p%d's collected interval %d (floor %d)"
        p page proc interval floor.(proc)
    | _ -> ())
  | Gc_end _ when in_range -> t.gc_floor.(p) <- Some (Array.copy t.know.(p))
  | Proc_crash when in_range -> Tmk_util.Bitset.add t.crashed p
  | _ -> ()

let attach t sink = Tmk_trace.Sink.on_record sink (feed t)

(* End-of-run checks: every barrier crossing that gathered arrivals must
   have completed.  (A trace truncated mid-run will trip these — that is
   the point.)  Dead processors are excused: a crossing after (or during)
   a crash completes with the survivors, and a dead arriver is never
   released. *)
let finish t =
  let ndead = Tmk_util.Bitset.cardinal t.crashed in
  let pending = ref [] in
  Hashtbl.iter (fun k v -> pending := (k, v) :: !pending) t.bar_in;
  let pending = List.sort compare !pending in
  List.iter
    (fun ((id, occ), arrived) ->
      if arrived < t.o_nprocs - ndead || arrived > t.o_nprocs then
        viol t "I4 barrier %d crossing %d ended with %d/%d arrivals" id occ arrived
          t.o_nprocs;
      let released = try Hashtbl.find t.bar_out (id, occ) with Not_found -> 0 in
      if released < arrived - ndead || released > arrived then
        viol t "I4 barrier %d crossing %d: %d arrivals but %d releases" id occ arrived
          released)
    pending;
  let vs = List.rev t.violations in
  if t.nviol > max_recorded then
    vs @ [ Printf.sprintf "... and %d more violations suppressed" (t.nviol - max_recorded) ]
  else vs

let check_sink ~nprocs sink =
  let t = create ~nprocs () in
  Tmk_trace.Sink.iter (feed t) sink;
  finish t

let report = function
  | [] -> "invariant oracle: all protocol invariants hold"
  | vs ->
    Printf.sprintf "invariant oracle: %d violation(s)\n%s" (List.length vs)
      (String.concat "\n" (List.map (fun v -> "  - " ^ v) vs))
