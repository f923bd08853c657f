open Tmk_sim
module Vm = Tmk_mem.Vm
module Costs = Tmk_mem.Costs
module Rle = Tmk_util.Rle
module Bitset = Tmk_util.Bitset
module Int_map = Map.Make (Int)

type charge = Category.t -> Vtime.t -> unit

(* One record per interval and one per (interval, page) for the whole
   cluster.  What differs between nodes is which records a node's view
   holds (its [vt] above its [floor]) and, per notice, two bits: whether
   the node holds the diff and whether it is applied to the node's copy.
   The bits live in the notice, at [2 * pid] and [2 * pid + 1] of
   [wn_bits], so a node incorporating a notice sets two bits and
   allocates nothing.  A notice is settled at a node once both of the
   node's bits are set. *)
type write_notice = {
  wn_page : int;
  wn_interval : interval;
  wn_seq : int;
      (* the notice's place in its store's creation order: a writer makes
         its notices in interval order, so its newest-first list for a
         page decreases in [wn_seq] *)
  mutable wn_diff : Rle.t option;
      (* the creator's diff once made; a node holds it only when its bit
         says so *)
  wn_bits : Bytes.t;
}

and interval = {
  iv_proc : int;
  iv_id : int;
  iv_vt : Vector_time.t;
  mutable iv_notices : write_notice list;  (* in the creator's order *)
  mutable iv_msg : msg_interval option;
      (* the wire form without piggybacked diffs, built at the first send *)
  mutable iv_holders : int;
      (* live nodes that have not yet discarded the interval *)
}

and msg_interval = {
  mi_proc : int;
  mi_id : int;
  mi_vt : Vector_time.t;
  mi_pages : (int * Rle.t option) list;
      (* page and, under the hybrid update protocol, its piggybacked diff *)
}

(* A page's write notices by writer: only processors with notices for the
   page are present, each with its notices newest-first, and every walk
   visits them in increasing pid.  An untouched page holds the empty map,
   so the map costs nothing per processor. *)
type writers = write_notice list ref Int_map.t

(* Processor [q]'s intervals: [ivs.(id - base)] is interval [id] for [lo]
   <= id <= [hi] ([lo > hi] when none is held).  Ids are consecutive per
   processor, so the array is dense; [absent] fills the slots of a
   hand-built history with gaps.  Discarded intervals leave from the [lo]
   end. *)
type proc_intervals = {
  mutable ivs : interval array;
  mutable base : int;
  mutable lo : int;
  mutable hi : int;
}

type store = {
  s_nprocs : int;
  procs : proc_intervals array;
  writers : writers array;  (* per page *)
  zero : Vector_time.t;  (* the vector of a processor with no interval *)
  initial_copyset : Bitset.t;  (* {0}, every node's first copyset of every page *)
  page_pool : Vm.pool;  (* every node's page copies: twins and pages in flight *)
  mutable live : int;  (* nodes not retired *)
  mutable notices_made : int;  (* the next notice's [wn_seq] *)
}

let absent =
  {
    iv_proc = -1;
    iv_id = 0;
    iv_vt = Vector_time.create 1;
    iv_notices = [];
    iv_msg = None;
    iv_holders = 0;
  }

let create_store ~nprocs ~pages =
  let initial_copyset = Bitset.create nprocs in
  Bitset.add initial_copyset 0;
  {
    s_nprocs = nprocs;
    procs = Array.init nprocs (fun _ -> { ivs = [||]; base = 0; lo = 1; hi = 0 });
    writers = Array.make pages Int_map.empty;
    zero = Vector_time.create nprocs;
    initial_copyset;
    page_pool = Vm.create_pool ();
    live = nprocs;
    notices_made = 0;
  }

(* Interval [id] of the processor behind [pi], or [absent]. *)
let interval_at pi id = if id < pi.lo || id > pi.hi then absent else pi.ivs.(id - pi.base)

let record_notice s wn =
  let proc = wn.wn_interval.iv_proc in
  match Int_map.find proc s.writers.(wn.wn_page) with
  | l -> l := wn :: !l
  | exception Not_found ->
    s.writers.(wn.wn_page) <- Int_map.add proc (ref [ wn ]) s.writers.(wn.wn_page)

(* Add a new interval, newer than every interval of its processor, with
   its notices. *)
let publish s iv =
  let pi = s.procs.(iv.iv_proc) and id = iv.iv_id in
  if pi.lo > pi.hi then pi.lo <- id
  else if id <= pi.hi then invalid_arg "Node.publish: interval ids must increase";
  if id - pi.base >= Array.length pi.ivs || id < pi.base then begin
    let held = pi.hi - pi.lo + 1 in
    let ivs = Array.make (max 8 (2 * (id - pi.lo + 1))) absent in
    if held > 0 then Array.blit pi.ivs (pi.lo - pi.base) ivs 0 held;
    pi.ivs <- ivs;
    pi.base <- pi.lo
  end;
  pi.ivs.(id - pi.base) <- iv;
  pi.hi <- id;
  List.iter (record_notice s) iv.iv_notices

let new_notice s iv page diff =
  let seq = s.notices_made in
  s.notices_made <- seq + 1;
  { wn_page = page; wn_interval = iv; wn_seq = seq; wn_diff = diff;
    wn_bits = Bytes.make ((2 * s.s_nprocs + 7) / 8) '\000' }

(* The notices of a newest-first list with ids above [lo]. *)
let rec newer_than lo = function
  | wn :: rest when wn.wn_interval.iv_id > lo -> wn :: newer_than lo rest
  | _ -> []

(* Drop processor [q]'s oldest intervals while no live node keeps them,
   and unlink their notices from the pages' writer lists. *)
let drop_discarded s q =
  let pi = s.procs.(q) in
  let pages = ref [] in
  while pi.lo <= pi.hi && (interval_at pi pi.lo).iv_holders <= 0 do
    List.iter (fun wn -> pages := wn.wn_page :: !pages) (interval_at pi pi.lo).iv_notices;
    pi.ivs.(pi.lo - pi.base) <- absent;
    pi.lo <- pi.lo + 1
  done;
  List.iter
    (fun page ->
      match Int_map.find_opt q s.writers.(page) with
      | None -> ()
      | Some l -> (
        match newer_than (pi.lo - 1) !l with
        | [] -> s.writers.(page) <- Int_map.remove q s.writers.(page)
        | kept -> l := kept))
    !pages

(* A node with [floor] stops keeping the intervals of each processor [q]
   above [floor.(q)] up to [upto q]. *)
let stop_keeping s ~floor ~upto =
  for q = 0 to s.s_nprocs - 1 do
    let pi = s.procs.(q) in
    for id = max (Vector_time.get floor q + 1) pi.lo to min (upto q) pi.hi do
      let iv = interval_at pi id in
      if iv != absent then iv.iv_holders <- iv.iv_holders - 1
    done;
    drop_discarded s q
  done

type page_entry = {
  mutable pg_copyset : Bitset.t;
  mutable pg_twin : Bytes.t option;
  mutable pg_flags : int;  (* [has_copy], [fetched] and [no_gather], one bit each *)
  mutable pg_unsettled : int;
      (* the unsettled-notice frontier: no notice of the page in the
         node's view with a smaller [wn_seq] is unsettled, and [max_int]
         says none is.  Lowered as notices enter the view, raised only
         where every notice in it is settled. *)
}

let has_copy_bit = 1
let fetched_bit = 2
let no_gather_bit = 4
let[@inline] flag entry bit = entry.pg_flags land bit <> 0

let[@inline] set_flag entry bit on =
  entry.pg_flags <- (if on then entry.pg_flags lor bit else entry.pg_flags land lnot bit)

let[@inline] has_copy entry = flag entry has_copy_bit
let[@inline] set_has_copy entry on = set_flag entry has_copy_bit on
let[@inline] fetched entry = flag entry fetched_bit
let[@inline] set_fetched entry on = set_flag entry fetched_bit on
let[@inline] no_gather entry = flag entry no_gather_bit
let[@inline] set_no_gather entry on = set_flag entry no_gather_bit on

(* [wn] has entered the view of the node with [entry] unsettled. *)
let[@inline] unsettle entry wn =
  if wn.wn_seq < entry.pg_unsettled then entry.pg_unsettled <- wn.wn_seq

type t = {
  pid : int;
  nprocs : int;
  vm : Vm.t;
  store : store;
  vt : Vector_time.t;
  mutable floor : Vector_time.t;
  mutable snapshot : Vector_time.t option;
      (* an immutable copy of [vt], shared until [vt] next changes *)
  mutable next_interval : int;
  pages : page_entry array;
  mutable dirty : int list;
  mutable live_records : int;
  diff_cache : (int * int * int, Rle.t) Hashtbl.t;
      (* responder-side cache of served diffs, keyed (proc, interval id,
         page).  Diffs are immutable once created and interval ids are
         never reused (next_interval survives GC), so entries can never go
         stale; the table is cleared with the records it shadows at GC *)
  backup_store : (int * int * int, Rle.t) Hashtbl.t;
      (* diffs mirrored TO this node as another processor's backup
         (Config.diff_backup), keyed like the diff cache; consulted when
         the creator has crashed, cleared with everything else at GC *)
  mutable on_diff_create :
    (page:int -> proc:int -> interval:int -> diff:Rle.t -> unit) option;
      (* fires whenever a local diff is attached to its write notice —
         the protocol's diff-replication hook (None outside diff_backup
         mode) *)
  stats : Stats.t;
  emit : (Tmk_trace.Event.t -> unit) option;
      (* typed-trace emission hook; None disables (and must cost nothing) *)
}

(* Guard with [tracing] before constructing an event value so a disabled
   trace allocates nothing. *)
let tracing t = t.emit <> None
let emit t ev = match t.emit with None -> () | Some f -> f ev
let vt_array t vt = Array.init t.nprocs (Vector_time.get vt)

let create ?emit ?store ~pid ~nprocs ~pages () =
  let store = match store with Some s -> s | None -> create_store ~nprocs ~pages in
  if
    store.s_nprocs <> nprocs || Array.length store.writers <> pages || pid < 0 || pid >= nprocs
  then invalid_arg "Node.create: the store is for another cluster shape";
  let vm = Vm.create ~pages () in
  let make_entry _ =
    {
      pg_copyset = store.initial_copyset;
      pg_twin = None;
      pg_flags = (if pid = 0 then has_copy_bit else 0);
      pg_unsettled = max_int;
    }
  in
  (* Processor 0 starts with every page valid but write-protected (a first
     write must twin); everyone else has no copies at all. *)
  for page = 0 to pages - 1 do
    Vm.set_prot vm page (if pid = 0 then Vm.Read_only else Vm.No_access)
  done;
  {
    pid;
    nprocs;
    vm;
    store;
    vt = Vector_time.create nprocs;
    floor = store.zero;
    snapshot = None;
    next_interval = 1;
    pages = Array.init pages make_entry;
    dirty = [];
    live_records = 0;
    diff_cache = Hashtbl.create 64;
    backup_store = Hashtbl.create 16;
    on_diff_create = None;
    stats = Stats.create ();
    emit;
  }

let snapshot t =
  match t.snapshot with
  | Some vt -> vt
  | None ->
    let vt = Vector_time.copy t.vt in
    t.snapshot <- Some vt;
    vt

let set_vt t q id =
  Vector_time.set t.vt q id;
  t.snapshot <- None

let newest_vt t q =
  let id = Vector_time.get t.vt q in
  if id > Vector_time.get t.floor q then (interval_at t.store.procs.(q) id).iv_vt
  else t.store.zero

(* The per-node bits of a notice. *)
let bit wn i = Char.code (Bytes.unsafe_get wn.wn_bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set_bit wn i on =
  let b = Char.code (Bytes.unsafe_get wn.wn_bits (i lsr 3)) in
  let m = 1 lsl (i land 7) in
  Bytes.unsafe_set wn.wn_bits (i lsr 3)
    (Char.unsafe_chr (if on then b lor m else b land lnot m))

let holds t wn = bit wn (2 * t.pid)
let applied t wn = bit wn ((2 * t.pid) + 1)
let diff t wn = if holds t wn then wn.wn_diff else None

let set_diff_hook t f = t.on_diff_create <- Some f
let store_backup t ~proc ~interval_id ~page diff =
  Hashtbl.replace t.backup_store (proc, interval_id, page) diff

let backup_diff t ~proc ~interval_id ~page =
  Hashtbl.find_opt t.backup_store (proc, interval_id, page)

(* A writer's newest-first notices without those above [top], the ones a
   node whose [vt] entry is [top] has not seen yet. *)
let rec skip_unseen top = function
  | wn :: rest when wn.wn_interval.iv_id > top -> skip_unseen top rest
  | l -> l

(* The notices of a newest-first list with ids above [floor] and seqs
   from [frontier] up that satisfy [keep t], newest first.  The walk stops
   at the first notice below the frontier: it is settled, and so is every
   older one, whose seqs are smaller still.  [keep] is a top-level
   function, so a walk builds no closure. *)
let rec unsettled_above t keep floor frontier = function
  | wn :: rest when wn.wn_interval.iv_id > floor && wn.wn_seq >= frontier ->
    if keep t wn then wn :: unsettled_above t keep floor frontier rest
    else unsettled_above t keep floor frontier rest
  | _ -> []

(* The notices of writer [q]'s newest-first list [l] in [t]'s view, at or
   above [frontier], that satisfy [keep t]. *)
let unsettled_in_view t q keep frontier l =
  unsettled_above t keep (Vector_time.get t.floor q) frontier
    (skip_unseen (Vector_time.get t.vt q) l)

let lacks_diff t wn = not (holds t wn)
let unapplied t wn = holds t wn && not (applied t wn)

(* This node's own notices for [page], newest first; the head is in view
   when it is above the floor (own ids never exceed [vt]). *)
let own_notices t page =
  match Int_map.find_opt t.pid t.store.writers.(page) with
  | Some { contents = wn :: _ as l } when wn.wn_interval.iv_id > Vector_time.get t.floor t.pid
    -> l
  | _ -> []

let page_snapshot t page = Vm.snapshot t.store.page_pool t.vm page
let release_copy t bytes = Vm.release t.store.page_pool bytes

(* Serve the twin when the page is dirty: diffs record only the bytes
   that changed relative to their interval's base state, so a base copy
   containing uncommitted (not yet diffed) writes would be
   byte-inconsistent with the very diffs the requester applies over it. *)
let base_copy t page =
  match t.pages.(page).pg_twin with
  | Some twin -> Vm.copy t.store.page_pool twin
  | None -> page_snapshot t page

let write_fault_twin t page ~charge =
  let entry = t.pages.(page) in
  assert (entry.pg_twin = None);
  charge Category.Tmk_mem Costs.twin_copy;
  entry.pg_twin <- Some (page_snapshot t page);
  charge Category.Unix_mem Costs.mprotect;
  Vm.set_prot t.vm page Vm.Read_write;
  t.dirty <- page :: t.dirty;
  t.stats.Stats.twins_created <- t.stats.Stats.twins_created + 1;
  if tracing t then emit t (Tmk_trace.Event.Twin_create { page })

let build_msg iv page_entry =
  {
    mi_proc = iv.iv_proc;
    mi_id = iv.iv_id;
    mi_vt = iv.iv_vt;
    mi_pages = List.map page_entry iv.iv_notices;
  }

(* The wire form of [iv], its pages in the creator's order at every
   sender.  [attach] decides the piggybacked diff of each write notice
   (hybrid update protocol), so each receiver gets a form of its own.
   Without it the form depends on the record alone, whose notices are
   complete once it is published, so it is built once for the cluster. *)
let to_msg ?attach iv =
  match (attach, iv.iv_msg) with
  | Some attach, _ -> build_msg iv (fun wn -> (wn.wn_page, attach wn))
  | None, Some mi -> mi
  | None, None ->
    let mi = build_msg iv (fun wn -> (wn.wn_page, None)) in
    iv.iv_msg <- Some mi;
    mi

(* [acc] preceded by the wire forms of [pi]'s intervals with ids in (lo,
   id], oldest first, walking down from [id]. *)
let rec take_since ?attach pi lo id acc =
  if id <= lo then acc
  else
    let iv = interval_at pi id in
    take_since ?attach pi lo (id - 1) (if iv == absent then acc else to_msg ?attach iv :: acc)

(* [acc] preceded by the intervals of processor [q] in [t]'s view newer
   than [vt]'s entry for [q], oldest first. *)
let proc_intervals_since ?attach t q vt acc =
  let lo = max (Vector_time.get vt q) (Vector_time.get t.floor q) in
  take_since ?attach t.store.procs.(q) lo (Vector_time.get t.vt q) acc

(* Built from the last processor back, so each prefix is consed on once.
   [attach] can have side effects, but only on this node's own notices
   (it creates their pending diffs), all within one processor's walk. *)
let intervals_since ?attach t vt =
  let acc = ref [] in
  for q = t.nprocs - 1 downto 0 do
    acc := proc_intervals_since ?attach t q vt !acc
  done;
  !acc

let own_intervals_since ?attach t vt = proc_intervals_since ?attach t t.pid vt []

let notice_counts intervals = List.map (fun mi -> List.length mi.mi_pages) intervals

let update_bytes intervals =
  List.fold_left
    (fun acc mi ->
      List.fold_left
        (fun acc (_, diff) ->
          match diff with None -> acc | Some d -> acc + Rle.encoded_size d)
        acc mi.mi_pages)
    0 intervals

(* The one twin-to-diff step: diff [page] against its [twin], release the
   twin and count the diff.  [interval] is the notice it belongs to, -1
   for the eager protocols' diffs, which have none. *)
let diff_twin t page twin ~interval ~charge =
  charge Category.Tmk_mem (Costs.diff_create Vm.page_size);
  let diff = Vm.diff_against t.vm page ~twin in
  t.pages.(page).pg_twin <- None;
  release_copy t twin;
  t.stats.Stats.diffs_created <- t.stats.Stats.diffs_created + 1;
  t.stats.Stats.diff_bytes_created <- t.stats.Stats.diff_bytes_created + Rle.encoded_size diff;
  if tracing t then
    emit t
      (Tmk_trace.Event.Diff_create
         { page; bytes = Rle.encoded_size diff; proc = t.pid; interval });
  diff

let rec close_interval ?(eager_diffs = false) t ~charge =
  match t.dirty with
  | [] -> ()
  | dirty ->
    let id = t.next_interval in
    t.next_interval <- id + 1;
    set_vt t t.pid id;
    (* the interval's timestamp is the node's first snapshot of it *)
    let iv =
      { iv_proc = t.pid; iv_id = id; iv_vt = snapshot t; iv_notices = []; iv_msg = None;
        iv_holders = t.store.live }
    in
    charge Category.Tmk_consistency
      (Vtime.add Cpu.interval_close_base
         (Vtime.scale Cpu.interval_close_per_page (List.length dirty)));
    let add_notice page =
      let wn = new_notice t.store iv page None in
      set_bit wn ((2 * t.pid) + 1) true;
      (* applied, but its diff is not made yet *)
      unsettle t.pages.(page) wn;
      iv.iv_notices <- wn :: iv.iv_notices;
      t.live_records <- t.live_records + 1
    in
    List.iter add_notice dirty;
    publish t.store iv;
    t.live_records <- t.live_records + 1;
    t.dirty <- [];
    if tracing t then
      emit t
        (Tmk_trace.Event.Interval_close
           { id; notices = List.length iv.iv_notices; vt = vt_array t iv.iv_vt });
    (* Munin-style ablation: create every diff at the release instead of
       on demand (§2.4 argues laziness avoids many of these). *)
    if eager_diffs then List.iter (fun page -> ensure_own_diff t page ~charge) dirty

(* Compute and record the diff of a twinned page; the caller decides the
   page's subsequent protection (read-only after lazy creation, no-access
   when invalidating).  The twin's writes belong to the current interval:
   if that interval has not been materialized yet (e.g. a write notice
   arrives in a request handler while this processor is still computing,
   before any remote synchronization of its own), it is closed here so
   the diff has a notice to attach to — "a subsequent write results in a
   write notice for the next interval" (§3.2). *)
and make_diff_now t page ~charge =
  match t.pages.(page).pg_twin with
  | None -> ()
  | Some twin -> (
    (match own_notices t page with
    | wn :: _ when not (holds t wn) -> ()
    | _ -> close_interval t ~charge);
    match own_notices t page with
    | wn :: _ when not (holds t wn) ->
      let interval = wn.wn_interval.iv_id in
      let diff = diff_twin t page twin ~interval ~charge in
      t.live_records <- t.live_records + 1;
      wn.wn_diff <- Some diff;
      set_bit wn (2 * t.pid) true;
      (match t.on_diff_create with
      | Some f -> f ~page ~proc:t.pid ~interval ~diff
      | None -> ())
    | _ ->
      invalid_arg
        (Printf.sprintf "Node.make_diff_now: page %d twinned without an open notice" page))

(* Lazy diff creation (§3.2): "the actual diff is created, the page is
   read protected, and the twin is discarded". *)
and ensure_own_diff t page ~charge =
  if t.pages.(page).pg_twin <> None then begin
    make_diff_now t page ~charge;
    charge Category.Unix_mem Costs.mprotect;
    Vm.set_prot t.vm page Vm.Read_only
  end

(* The eager protocols' release step for one dirty page: its diff, made
   outside any interval, and the page write-protected. *)
let flush_page t page ~charge =
  match t.pages.(page).pg_twin with
  | None -> None
  | Some twin ->
    charge Category.Tmk_other Cpu.erc_flush_per_page;
    let diff = diff_twin t page twin ~interval:(-1) ~charge in
    charge Category.Unix_mem Costs.mprotect;
    Vm.set_prot t.vm page Vm.Read_only;
    Some diff

(* Invalidate a page on receipt of a write notice: local modifications are
   first saved as a diff (§2.4: "it is essential to make a diff"). *)
let invalidate t page ~charge =
  make_diff_now t page ~charge;
  if Vm.prot t.vm page <> Vm.No_access then begin
    charge Category.Unix_mem Costs.mprotect;
    Vm.set_prot t.vm page Vm.No_access;
    if tracing t then emit t (Tmk_trace.Event.Page_invalidate { page })
  end

let rec find_id id = function
  | wn :: rest -> if wn.wn_interval.iv_id = id then wn else find_id id rest
  | [] -> raise Not_found

let find_notice t ~proc ~interval_id ~page =
  if interval_id <= Vector_time.get t.floor proc || interval_id > Vector_time.get t.vt proc
  then raise Not_found;
  find_id interval_id !(Int_map.find proc t.store.writers.(page))

let held_diff t ~proc ~interval_id ~page =
  match find_notice t ~proc ~interval_id ~page with
  | wn -> diff t wn
  | exception Not_found -> None

let find_diff t ~proc ~interval_id ~page ~charge =
  (if proc = t.pid then
     (* Our own diff may not exist yet: this is the lazy-creation point
        for a diff request from another processor (§3.2). *)
     match own_notices t page with
     | wn :: _ when (not (holds t wn)) && wn.wn_interval.iv_id = interval_id ->
       ensure_own_diff t page ~charge
     | _ -> ());
  let wn = find_notice t ~proc ~interval_id ~page in
  match diff t wn with
  | Some diff -> diff
  | None ->
    invalid_arg
      (Printf.sprintf "Node.find_diff: notice (proc %d, interval %d, page %d) has no diff"
         proc interval_id page)

let cached_diff t ~proc ~interval_id ~page =
  Hashtbl.find_opt t.diff_cache (proc, interval_id, page)

let cache_diff t ~proc ~interval_id ~page diff =
  Hashtbl.replace t.diff_cache (proc, interval_id, page) diff

let missing_diffs t page =
  (* Scan each writer's notices down to the frontier: with piggybacked
     diffs (hybrid update protocol) a newer notice can hold its diff while
     an older one still lacks one, so the diff-less notices are not
     necessarily a prefix. *)
  let frontier = t.pages.(page).pg_unsettled in
  if frontier = max_int then []
  else
    Seq.fold_left
      (fun acc (q, l) ->
        match unsettled_in_view t q lacks_diff frontier !l with
        | [] -> acc
        | l -> (q, l) :: acc (* newest-first, like the source list *))
      [] (Int_map.to_rev_seq t.store.writers.(page))

let unapplied_diffs t page =
  let frontier = t.pages.(page).pg_unsettled in
  if frontier = max_int then []
  else
    Seq.fold_left
      (fun acc (q, l) -> unsettled_in_view t q unapplied frontier !l @ acc)
      [] (Int_map.to_rev_seq t.store.writers.(page))

let store_diff t ~proc ~interval_id ~page diff =
  let wn = find_notice t ~proc ~interval_id ~page in
  if not (holds t wn) then begin
    if wn.wn_diff = None then wn.wn_diff <- Some diff;
    set_bit wn (2 * t.pid) true;
    t.live_records <- t.live_records + 1
  end

(* The [notices] argument of [apply_missing_diffs] as a set, by physical
   identity like [List.memq].  The hash packs (interval, pid); pids fit in
   10 bits. *)
module Notice_set = Hashtbl.Make (struct
  type t = write_notice

  let equal = ( == )
  let hash wn = Hashtbl.hash ((wn.wn_interval.iv_id lsl 10) lxor wn.wn_interval.iv_proc)
end)

(* The held diffs of [page] newer than some notice of [notices], not in
   [notices] themselves: writers in increasing pid, each newest first.  In
   a total order a notice is newer than some of [notices] exactly when it
   is newer than the oldest of them.  A writer's later intervals dominate
   its earlier ones, so its newest-first list decreases in
   [compare_total] and the newer notices are a prefix of it. *)
let replay_set t page notices =
  match notices with
  | [] -> []
  | first :: rest ->
    let oldest =
      List.fold_left
        (fun vt wn ->
          if Vector_time.compare_total wn.wn_interval.iv_vt vt < 0 then wn.wn_interval.iv_vt
          else vt)
        first.wn_interval.iv_vt rest
    in
    let members = Notice_set.create (List.length notices) in
    List.iter (fun wn -> Notice_set.replace members wn ()) notices;
    let rec newer floor acc = function
      | wn :: rest
        when wn.wn_interval.iv_id > floor
             && Vector_time.compare_total oldest wn.wn_interval.iv_vt < 0 ->
        if holds t wn && not (Notice_set.mem members wn) then wn :: newer floor acc rest
        else newer floor acc rest
      | _ -> acc
    in
    Seq.fold_left
      (fun acc (q, l) ->
        newer (Vector_time.get t.floor q) acc (skip_unseen (Vector_time.get t.vt q) !l))
      [] (Int_map.to_rev_seq t.store.writers.(page))

let apply_diff t page diff ~charge =
  charge Category.Tmk_mem (Costs.diff_apply (Rle.payload_size diff));
  Vm.patch t.vm page diff;
  t.stats.Stats.diffs_applied <- t.stats.Stats.diffs_applied + 1

let apply_missing_diffs t page notices ~charge =
  (* The local (out-of-date) copy already reflects every previously held
     diff and this node's own saved modifications.  A freshly fetched diff
     can be older in the happened-before order than content already in
     the copy (its creator folded pre-synchronization writes into it,
     §3.2), so applying it alone would regress those words.  Rebuild the
     suffix instead: apply, in increasing vector-timestamp order, the
     missing diffs together with every held diff that is not ordered
     strictly before all of them. *)
  let replay = replay_set t page notices in
  let ordered =
    (* rev_append, not (@): [notices] can be long on the replay path and
       the sort is insensitive to input order (compare_total totally
       orders distinct intervals). *)
    List.sort
      (fun a b -> Vector_time.compare_total a.wn_interval.iv_vt b.wn_interval.iv_vt)
      (List.rev_append notices replay)
  in
  let apply wn =
    match diff t wn with
    | None ->
      invalid_arg
        (Printf.sprintf "Node.apply_missing_diffs: diff absent (proc %d, page %d)"
           wn.wn_interval.iv_proc page)
    | Some diff ->
      apply_diff t page diff ~charge;
      set_bit wn ((2 * t.pid) + 1) true;
      if tracing t then
        emit t
          (Tmk_trace.Event.Diff_apply
             { page; bytes = Rle.payload_size diff; proc = wn.wn_interval.iv_proc;
               interval = wn.wn_interval.iv_id })
  in
  List.iter apply ordered;
  charge Category.Unix_mem Costs.mprotect;
  Vm.set_prot t.vm page Vm.Read_only

let apply_fetched t page missing ~charge =
  (* the fetched diffs, plus any piggybacked or gathered ones not yet
     reflected; rev_append (not @): apply_missing_diffs sorts by
     timestamp *)
  let fetched = List.fold_left (fun acc (_, wns) -> List.rev_append wns acc) [] missing in
  let pending = List.filter (fun wn -> not (List.memq wn fetched)) (unapplied_diffs t page) in
  apply_missing_diffs t page (List.rev_append fetched pending) ~charge

let settle_page t page ~charge =
  (match unapplied_diffs t page with
  | [] -> ()
  | pending ->
    (* diffs that arrived piggybacked on synchronization messages (hybrid
       update protocol) while the page was invalid or twinned, or
       gathered by a fetch for another page *)
    apply_missing_diffs t page pending ~charge);
  (* nothing lacks its diff, and now nothing held is unapplied *)
  t.pages.(page).pg_unsettled <- max_int

(* Save local modifications of [pages] before the vector timestamp
   advances; see [incorporate]. *)
let rec save_twins t pages ~charge =
  match pages with
  | [] -> ()
  | (page, _) :: rest ->
    if t.pages.(page).pg_twin <> None then make_diff_now t page ~charge;
    save_twins t rest ~charge

(* The store's record of [mi], published from the wire form when no node
   has it (a history built by hand rather than by [close_interval]). *)
let interval_of_msg s mi =
  match interval_at s.procs.(mi.mi_proc) mi.mi_id with
  | iv when iv != absent -> iv
  | _ ->
    let iv =
      { iv_proc = mi.mi_proc; iv_id = mi.mi_id; iv_vt = mi.mi_vt; iv_notices = [];
        iv_msg = None; iv_holders = s.live }
    in
    iv.iv_notices <- List.map (fun (page, diff) -> new_notice s iv page diff) mi.mi_pages;
    publish s iv;
    iv

(* [fresh] maps a page to the notices of this incorporation that name it,
   newest first.  A page enters [fresh] at its first notice, through
   [Hashtbl.add], which inserts as [Hashtbl.replace] does for a new key.
   [Hashtbl.iter] settles pages in an order set by those insertions and
   the table's size, and that order fixes the order of the section's
   charges and of [Page_invalidate] records, so the table is neither
   pre-sized nor rebuilt.  [notices] are the interval's records and
   [pages] its wire form's entries, in the same order. *)
let rec add_notices t fresh notices pages ~charge =
  match (notices, pages) with
  | [], [] -> ()
  | wn :: notices, (page, diff) :: pages when wn.wn_page = page ->
    charge Category.Tmk_consistency Cpu.incorporate_per_notice;
    if diff <> None && wn.wn_diff = None then wn.wn_diff <- diff;
    set_bit wn (2 * t.pid) (diff <> None);
    set_bit wn ((2 * t.pid) + 1) false;
    unsettle t.pages.(page) wn;
    t.live_records <- t.live_records + (if diff = None then 1 else 2);
    t.stats.Stats.write_notices_in <- t.stats.Stats.write_notices_in + 1;
    if tracing t then
      emit t
        (Tmk_trace.Event.Write_notice_recv
           { page; proc = wn.wn_interval.iv_proc; interval = wn.wn_interval.iv_id });
    (match Hashtbl.find fresh page with
    | l -> l := wn :: !l
    | exception Not_found -> Hashtbl.add fresh page (ref [ wn ]));
    add_notices t fresh notices pages ~charge
  | _ -> invalid_arg "Node.incorporate: a wire form disagrees with its interval's notices"

let rec add_intervals t fresh intervals ~charge =
  match intervals with
  | [] -> ()
  | mi :: rest ->
    (* Skip intervals we already cover (possible at the barrier manager
       when two clients both forward a third party's interval). *)
    if mi.mi_id > Vector_time.get t.vt mi.mi_proc then begin
      charge Category.Tmk_consistency Cpu.incorporate_per_interval;
      let iv = interval_of_msg t.store mi in
      if tracing t then
        emit t
          (Tmk_trace.Event.Interval_recv
             {
               proc = mi.mi_proc;
               id = mi.mi_id;
               notices = List.length mi.mi_pages;
               vt = vt_array t mi.mi_vt;
             });
      add_notices t fresh iv.iv_notices mi.mi_pages ~charge;
      t.live_records <- t.live_records + 1;
      t.stats.Stats.intervals_in <- t.stats.Stats.intervals_in + 1;
      (* Advance only this processor's entry, which brings the interval
         into the view.  Folding in the interval's whole vector timestamp
         would mark transitively-covered intervals as seen before their
         records arrive (they may be later in this same message, or in
         another barrier client's arrival), and the skip above would then
         drop them forever.  The timestamp must track record coverage
         exactly. *)
      set_vt t mi.mi_proc mi.mi_id
    end;
    add_intervals t fresh rest ~charge

let rec all_held t = function [] -> true | wn :: rest -> holds t wn && all_held t rest

let incorporate t intervals ~charge =
  charge Category.Tmk_consistency Cpu.incorporate_base;
  (* Save local modifications of the named pages FIRST, before the vector
     timestamp advances: a twinned page without an open notice forces an
     interval close inside make_diff_now, and that interval's timestamp
     must not claim coverage of the incoming intervals (it would break the
     §3.5 invariant that a processor whose interval covers another's holds
     its diffs).  Only intervals that will actually be incorporated below
     count; a duplicate's pages must not be touched (the settle pass would
     never fix their protection up). *)
  let rec save_all = function
    | [] -> ()
    | mi :: rest ->
      if mi.mi_id > Vector_time.get t.vt mi.mi_proc then save_twins t mi.mi_pages ~charge;
      save_all rest
  in
  save_all intervals;
  (* Under the hybrid update protocol some notices arrive with their diff
     attached; a valid page whose fresh notices all carried diffs is
     updated in place instead of invalidated. *)
  let fresh : (int, write_notice list ref) Hashtbl.t = Hashtbl.create 8 in
  add_intervals t fresh intervals ~charge;
  let settle page notices =
    let fresh = !notices in
    let updatable =
      (* update in place only for a currently valid page with no local
         twin (a twinned page would need its twin patched too; the plain
         invalidate path handles it via the local diff) and no other diffs
         outstanding *)
      t.pages.(page).pg_twin = None
      && Vm.prot t.vm page <> Vm.No_access
      && all_held t fresh
      && missing_diffs t page = []
    in
    if updatable then apply_missing_diffs t page fresh ~charge
    else invalidate t page ~charge
  in
  Hashtbl.iter settle fresh

let validate_page t page bytes ~charge =
  charge Category.Tmk_mem Costs.page_copy;
  Vm.install_page t.vm page bytes;
  release_copy t bytes;
  set_has_copy t.pages.(page) true;
  t.stats.Stats.page_fetches <- t.stats.Stats.page_fetches + 1

let discard_all_records t =
  let discarded = t.live_records in
  (* The view empties: the floor rises to the timestamp, and the store
     forgets what no live node keeps any more. *)
  stop_keeping t.store ~floor:t.floor ~upto:(Vector_time.get t.vt);
  t.floor <- snapshot t;
  Array.iter
    (fun entry ->
      entry.pg_twin <- None;
      (* the gather blacklist describes diffs that no longer exist *)
      set_no_gather entry false;
      entry.pg_unsettled <- max_int)
    t.pages;
  t.dirty <- [];
  t.live_records <- 0;
  Hashtbl.reset t.diff_cache;
  (* the mirrored diffs shadow records every node is discarding right now *)
  Hashtbl.reset t.backup_store;
  t.stats.Stats.records_discarded <- t.stats.Stats.records_discarded + discarded;
  discarded

let retire t =
  t.store.live <- t.store.live - 1;
  stop_keeping t.store ~floor:t.floor ~upto:(fun _ -> max_int)

let modified_pages t =
  let result = ref [] in
  Array.iteri
    (fun page entry ->
      if entry.pg_twin <> None || own_notices t page <> [] then result := page :: !result)
    t.pages;
  List.rev !result
