(* Lazy release consistency (§3): the TreadMarks protocol proper.
   Multiple-writer pages with twins and lazy diffs, interval/write-notice
   records piggybacked on synchronization, minimal-responder diff fetch
   (§3.5), and the optional hybrid update protocol ([Config.lrc_updates])
   and diff replication ([Config.diff_backup]). *)

open Tmk_sim
module Transport = Tmk_net.Transport
module Vm = Tmk_mem.Vm
module Costs = Tmk_mem.Costs
module Rle = Tmk_util.Rle
module Bitset = Tmk_util.Bitset

let app_charge = Cluster.app_charge
let h_charge = Cluster.h_charge
let atomically = Cluster.atomically

let caps =
  {
    Backend.c_crash_runs = true;
    c_zero_recovery = false;
    c_diff_backup = true;
    c_max_procs = 1024;
  }

(* ------------------------------------------------------------------ *)
(* Access misses (§3.5)                                                *)

let fetch_base cl pid page =
  let node = cl.Cluster.nodes.(pid) in
  let entry = node.Node.pages.(page) in
  let mb = Transport.mailbox () in
  let serve provider h =
    let pnode = cl.Cluster.nodes.(provider) in
    h_charge h Category.Tmk_mem Costs.page_copy;
    let pentry = pnode.Node.pages.(page) in
    pentry.Node.pg_copyset <- Bitset.with_member pentry.Node.pg_copyset pid;
    Transport.hsend_value ~label:"page-fetch-reply" cl.Cluster.transport h ~dst:pid
      ~bytes:Wire.page_reply_bytes mb (Node.base_copy pnode page, pentry.Node.pg_copyset)
  in
  (* Re-issue against another live copyset member if the provider dies
     before replying.  The retry runs in timer context, so the request
     goes out as a context-free notification. *)
  let rec arm_retry provider =
    Cluster.register_pending cl ~pid ~target:provider
      ~settled:(fun () -> Transport.mailbox_filled mb)
      ~retry:(fun () ->
        match Cluster.choose_provider cl entry.Node.pg_copyset ~self:pid ~page with
        | provider' ->
          arm_retry provider';
          Transport.notify ~label:"page-fetch" cl.Cluster.transport ~src:pid ~dst:provider'
            ~bytes:Wire.page_request_bytes ~deliver:(serve provider')
        | exception Cluster.Empty_copyset _ ->
          Cluster.note_fatal cl ~pid
            (Printf.sprintf "page %d has no live copy (its only copies died with the crash)"
               page))
  in
  match Cluster.choose_provider cl entry.Node.pg_copyset ~self:pid ~page with
  | exception Cluster.Empty_copyset _ ->
    Cluster.degrade_app cl ~pid
      (Printf.sprintf "page %d has no live copy (its only copies died with the crash)" page)
  | provider ->
    app_charge Category.Tmk_other Cpu.page_request_build;
    Transport.send ~label:"page-fetch" cl.Cluster.transport ~src:pid ~dst:provider
      ~bytes:Wire.page_request_bytes ~deliver:(serve provider);
    arm_retry provider;
    let bytes, copyset = Transport.await_value cl.Cluster.transport mb in
    if Engine.tracing cl.Cluster.engine then
      Cluster.emit cl ~pid (Tmk_trace.Event.Page_fetch { page; from_ = provider });
    atomically cl (fun charge ->
        Node.validate_page node page bytes ~charge;
        entry.Node.pg_copyset <-
          Bitset.with_member (Bitset.union entry.Node.pg_copyset copyset) pid)

(* Serve one gathered diff-request entry on responder [r].  In batched
   mode repeated fetches of the same (proc, interval, page) diff hit the
   responder's cache instead of recomputing/relocating the RLE (diffs are
   immutable and interval ids never reused, so a hit is always current). *)

(* A speculative (other-page) diff rides a gathered reply only if it is
   small: gathering targets the many-small-messages regime the paper
   highlights (§4.7), where a round trip costs far more than the payload;
   a large diff would instead dominate the reply the fault is stalled on,
   losing more latency than the saved round trip.  The faulting page's
   own diffs are always served in full.  Entries the responder declines
   simply stay missing at the requester (which blacklists the page from
   future gathering) and are fetched on their own later miss — cheaply,
   since serving them here already warmed the responder's diff cache. *)
let gather_entry_max = 512

let serve_diff_entry cl r h (page, proc, interval_id) =
  let rnode = cl.Cluster.nodes.(r) in
  let batched = cl.Cluster.cfg.Config.batching in
  let cached = if batched then Node.cached_diff rnode ~proc ~interval_id ~page else None in
  match cached with
  | Some diff ->
    h_charge h Category.Tmk_other Cpu.diff_cache_hit;
    rnode.Node.stats.Stats.diff_cache_hits <- rnode.Node.stats.Stats.diff_cache_hits + 1;
    if Engine.htracing h then
      Engine.hemit h (Tmk_trace.Event.Diff_cache { page; hit = true });
    (page, proc, interval_id, diff)
  | None ->
    h_charge h Category.Tmk_other Cpu.diff_lookup_per_entry;
    let diff = Node.find_diff rnode ~proc ~interval_id ~page ~charge:(h_charge h) in
    if batched then begin
      Node.cache_diff rnode ~proc ~interval_id ~page diff;
      rnode.Node.stats.Stats.diff_cache_misses <-
        rnode.Node.stats.Stats.diff_cache_misses + 1;
      if Engine.htracing h then
        Engine.hemit h (Tmk_trace.Event.Diff_cache { page; hit = false })
    end;
    (page, proc, interval_id, diff)

(* Locate a diff whose creator (or original responder) has crashed: a
   live processor's own notice records (§3.5: a processor that modified
   the page in a covering interval holds the diff), then the diff-backup
   mirror stores ([Config.diff_backup]).  [None] means the diff died with
   the crash. *)
let lookup_diff_anywhere cl ~proc ~interval_id ~page =
  let n = cl.Cluster.cfg.Config.nprocs in
  let rec scan p =
    if p >= n then None
    else if cl.Cluster.dead.(p) then scan (p + 1)
    else
      let pn = cl.Cluster.nodes.(p) in
      match Node.held_diff pn ~proc ~interval_id ~page with
      | Some _ as found -> found
      | None -> (
        match Node.backup_diff pn ~proc ~interval_id ~page with
        | Some _ as found -> found
        | None -> scan (p + 1))
  in
  scan 0

(* Re-issue a gathered diff fetch whose responder died before replying.
   The surviving replacement responder re-serves every entry: its own
   diffs through the normal path, a dead creator's through
   [lookup_diff_anywhere].  Charging all lookups at one coordinator is a
   deliberate simplification — the real recovery would fan out, but the
   total work is the same and the simulator keeps one reply message. *)
let retry_diff_fetch cl ~pid ~entries ~mb =
  match Cluster.lowest_live_other cl pid with
  | None -> Cluster.note_fatal cl ~pid "no live peer left to serve diffs"
  | Some c ->
    let n = List.length entries in
    Transport.notify ~label:"diff-fetch" ~parts:n cl.Cluster.transport ~src:pid ~dst:c
      ~bytes:(Wire.gathered_diff_request_bytes n)
      ~deliver:(fun h ->
        let missing = ref None in
        let replies =
          List.filter_map
            (fun (page, proc, interval_id) ->
              h_charge h Category.Tmk_other Cpu.diff_lookup_per_entry;
              let diff =
                if not cl.Cluster.dead.(proc) then
                  match
                    Node.find_diff cl.Cluster.nodes.(proc) ~proc ~interval_id ~page
                      ~charge:(h_charge h)
                  with
                  | d -> Some d
                  | exception (Not_found | Invalid_argument _) ->
                    lookup_diff_anywhere cl ~proc ~interval_id ~page
                else lookup_diff_anywhere cl ~proc ~interval_id ~page
              in
              match diff with
              | Some d -> Some (page, proc, interval_id, d)
              | None ->
                if !missing = None then missing := Some (page, proc, interval_id);
                None)
            entries
        in
        match !missing with
        | Some (page, proc, interval_id) ->
          Cluster.note_fatal cl ~pid
            (Printf.sprintf "diff (proc %d, interval %d, page %d) died with the crash" proc
               interval_id page)
        | None ->
          let sizes = List.map (fun (_, _, _, d) -> Rle.encoded_size d) replies in
          Transport.hsend_value ~label:"diff-fetch-reply" ~parts:(List.length replies)
            cl.Cluster.transport h ~dst:pid
            ~bytes:(Wire.gathered_diff_reply_bytes sizes)
            mb replies)

(* §3.5 responder assignment for one page: the newest lacking notice per
   processor is a head; undominated heads are the minimal responder set,
   and each processor's lacking notices go to a responder whose newest
   interval covers them (a processor that modified the page in interval i
   holds all of the page's diffs for intervals with smaller timestamps).
   Every coverage test asks whether [q]'s interval is covered, so it reads
   [q]'s entry first ([Vector_time.leq_at]): a concurrent interval that
   has not counted [q]'s fails there, and the full comparison decides
   every pair that passes. *)
let plan_page_fetch missing =
  let heads =
    List.map
      (fun (q, wns) ->
        match wns with
        | wn :: _ -> (q, wn.Node.wn_interval.Node.iv_vt)
        | [] -> assert false)
      missing
  in
  let dominated (q, vt) =
    List.exists (fun (r, vt') -> r <> q && Vector_time.leq_at q vt vt') heads
  in
  (heads, List.filter (fun h -> not (dominated h)) heads)

(* Fetch the diffs for [missing] (per-processor groups of notices lacking
   diffs) from the minimal processor set, in parallel, then apply them in
   vector-timestamp order.  In batched mode the requests additionally
   gather other invalidated pages' lacking diffs whenever an
   already-contacted responder provably holds them, so a page-miss burst
   at scale costs one request/response pair per responder instead of one
   per (responder, page). *)
let fetch_and_apply_diffs cl pid page missing =
  let node = cl.Cluster.nodes.(pid) in
  let total_notices = List.fold_left (fun acc (_, wns) -> acc + List.length wns) 0 missing in
  app_charge Category.Tmk_consistency (Vtime.scale Cpu.miss_plan total_notices);
  let _, responders = plan_page_fetch missing in
  let assignments = Hashtbl.create 4 in
  (* per-responder entry buffers, appended in plan order (a reverse-and-flip
     list accumulation here was quadratic in the number of lacking
     processors before it grew a rev_append; the buffer keeps it linear and
     allocation-light) *)
  let entries_for r =
    match Hashtbl.find_opt assignments r with
    | Some v -> v
    | None ->
      let v = Tmk_util.Vec.create () in
      Hashtbl.add assignments r v;
      v
  in
  let assign (q, wns) =
    let vt_q = (List.hd wns).Node.wn_interval.Node.iv_vt in
    let r =
      match List.find_opt (fun (_r, vt_r) -> Vector_time.leq_at q vt_q vt_r) responders with
      | Some (r, _) -> r
      | None -> assert false (* q's own head is undominated or covered *)
    in
    let v = entries_for r in
    List.iter (fun wn -> Tmk_util.Vec.push v (page, q, wn.Node.wn_interval.Node.iv_id)) wns
  in
  List.iter assign missing;
  (* Multi-page gathering (batched mode): ride the requests already going
     out.  Another page's lacking group can be attached to a contacted
     responder [r] when [r] is the group's own creator, or when [r] itself
     modified that page in an interval covering the group's head — either
     way §3.5 guarantees [r] holds the diffs.  Only pages this processor
     has faulted on since their last gather are eligible ([pg_fetched],
     armed by a genuine access miss, disarmed by each gather) — the
     hybrid update protocol's "receiver actively uses the page"
     heuristic, with a one-strike bound: a page the processor has stopped
     touching wastes at most one speculative fetch before gathering stops
     until its next real miss.  Pages whose entries a responder has
     previously declined ([pg_no_gather]: diffs too large to ride a
     reply) are never retried.  Unattached groups are simply fetched on
     their own later miss. *)
  let gathered = ref 0 in
  if cl.Cluster.cfg.Config.batching then begin
    let contacted = Hashtbl.fold (fun r _ acc -> r :: acc) assignments [] in
    Array.iteri
      (fun q_page pentry ->
        if
          q_page <> page && Node.fetched pentry
          && (not (Node.no_gather pentry))
          && Node.has_copy pentry
        then
          match Node.missing_diffs node q_page with
          | [] -> ()
          | groups ->
            let heads =
              List.map
                (fun (g, wns) -> (g, (List.hd wns).Node.wn_interval.Node.iv_vt))
                groups
            in
            List.iter
              (fun (g, wns) ->
                if g <> pid then begin
                  let vt_g = (List.hd wns).Node.wn_interval.Node.iv_vt in
                  let holds r =
                    r = g
                    || List.exists
                         (fun (p, vt_p) -> p = r && Vector_time.leq_at g vt_g vt_p)
                         heads
                  in
                  match List.find_opt holds contacted with
                  | None -> ()
                  | Some r ->
                    let v = entries_for r in
                    List.iter
                      (fun wn ->
                        Tmk_util.Vec.push v (q_page, g, wn.Node.wn_interval.Node.iv_id))
                      wns;
                    gathered := !gathered + List.length wns;
                    Node.set_fetched pentry false
                end)
              groups)
      node.Node.pages;
    if !gathered > 0 then begin
      node.Node.stats.Stats.diff_prefetch_entries <-
        node.Node.stats.Stats.diff_prefetch_entries + !gathered;
      app_charge Category.Tmk_consistency (Vtime.scale Cpu.miss_plan !gathered)
    end
  end;
  let promises =
    Hashtbl.fold
      (fun r entry_buf acc ->
        let entries = Tmk_util.Vec.to_list entry_buf in
        let n = Tmk_util.Vec.length entry_buf in
        app_charge Category.Tmk_other Cpu.page_request_build;
        if cl.Cluster.dead.(r) then begin
          (* The planned responder died before this fetch was issued —
             its write notices still dominate, so the assignment keeps
             naming it.  Route the entries through a live coordinator
             (surviving notice records, then the diff-backup mirrors)
             instead of timing out against a silent peer: suspicion for
             an already-dead processor is ignored, so nothing else
             would ever complete this fetch. *)
          let mb = Transport.mailbox () in
          (match Cluster.lowest_live_other cl pid with
          | Some c ->
            Cluster.register_pending cl ~pid ~target:c
              ~settled:(fun () -> Transport.mailbox_filled mb)
              ~retry:(fun () -> retry_diff_fetch cl ~pid ~entries ~mb)
          | None -> ());
          retry_diff_fetch cl ~pid ~entries ~mb;
          (entries, mb) :: acc
        end
        else begin
          if Engine.tracing cl.Cluster.engine then begin
            (* one Diff_fetch per (responder, page) group of the request *)
            let by_page = Hashtbl.create 4 in
            List.iter
              (fun (p, _, _) ->
                Hashtbl.replace by_page p
                  (1 + Option.value ~default:0 (Hashtbl.find_opt by_page p)))
              entries;
            Hashtbl.iter
              (fun p count ->
                Cluster.emit cl ~pid (Tmk_trace.Event.Diff_fetch { page = p; from_ = r; count }))
              by_page
          end;
          let mb = Transport.mailbox () in
          Cluster.register_pending cl ~pid ~target:r
            ~settled:(fun () -> Transport.mailbox_filled mb)
            ~retry:(fun () -> retry_diff_fetch cl ~pid ~entries ~mb);
          Transport.send ~label:"diff-fetch" ~parts:n cl.Cluster.transport ~src:pid ~dst:r
            ~bytes:(Wire.gathered_diff_request_bytes n)
            ~deliver:(fun h ->
              let replies =
                List.filter_map
                  (fun ((p, _, _) as entry) ->
                    let ((_, _, _, d) as reply) = serve_diff_entry cl r h entry in
                    if p = page || Rle.encoded_size d <= gather_entry_max then Some reply
                    else None)
                  entries
              in
              let sizes = List.map (fun (_, _, _, d) -> Rle.encoded_size d) replies in
              Transport.hsend_value ~label:"diff-fetch-reply"
                ~parts:(List.length replies) cl.Cluster.transport h ~dst:pid
                ~bytes:(Wire.gathered_diff_reply_bytes sizes) mb replies);
          (entries, mb) :: acc
        end)
      assignments []
  in
  let receive (entries, promise) =
    let replies = Transport.await_value cl.Cluster.transport promise in
    List.iter
      (fun (p, proc, interval_id, diff) ->
        Node.store_diff node ~proc ~interval_id ~page:p diff)
      replies;
    (* Drop feedback: a gathered entry the responder declined to serve
       means that page's diffs are too large to prefetch — blacklist the
       page so the request/decline cycle is not repeated at every miss. *)
    List.iter
      (fun ((p, _, _) as entry) ->
        if
          p <> page
          && not (List.exists (fun (p', q', i', _) -> (p', q', i') = entry) replies)
        then Node.set_no_gather node.Node.pages.(p) true)
      entries
  in
  List.iter receive promises;
  atomically cl (fun charge -> Node.apply_fetched node page missing ~charge)

(* Bring [page] current: new write notices can be incorporated by a
   request handler while we wait for replies (this node may be the
   barrier manager); loop until every known diff has been applied. *)
let settle cl pid page =
  let node = cl.Cluster.nodes.(pid) in
  let rec loop () =
    match Node.missing_diffs node page with
    | [] ->
      (* no scheduling point since [missing_diffs]: nothing entered the
         view *)
      atomically cl (fun charge ->
          Node.settle_page node page ~charge;
          if Vm.prot node.Node.vm page = Vm.No_access then begin
            charge Category.Unix_mem Costs.mprotect;
            Vm.set_prot node.Node.vm page Vm.Read_only
          end)
    | missing ->
      fetch_and_apply_diffs cl pid page missing;
      loop ()
  in
  loop ()

let miss cl pid page =
  Cluster.note_miss cl pid page;
  let entry = cl.Cluster.nodes.(pid).Node.pages.(page) in
  (* A genuine access miss (re-)arms the page for speculative gathering;
     each gather disarms it (one-strike policy, see
     [fetch_and_apply_diffs]). *)
  Node.set_fetched entry true;
  if not (Node.has_copy entry) then fetch_base cl pid page;
  settle cl pid page

(* ------------------------------------------------------------------ *)
(* Hybrid update protocol (§2.2's alternative to invalidation): when
   enabled, synchronization messages piggyback the diffs of pages the
   receiver is believed to cache, and the receiver updates valid pages in
   place. *)

let attach_for cl node ~receiver ~charge =
  if not cl.Cluster.cfg.Config.lrc_updates then None
  else
    Some
      (fun wn ->
        let page = wn.Node.wn_page in
        if Bitset.mem node.Node.pages.(page).Node.pg_copyset receiver then begin
          (* a pending local diff is created now (it is the newest
             diff-less local notice by the lazy-diffing invariant) *)
          if wn.Node.wn_interval.Node.iv_proc = node.Node.pid && Node.diff node wn = None
          then Node.ensure_own_diff node page ~charge;
          Node.diff node wn
        end
        else None)

(* Diff mirroring requires the diff to exist the moment its interval
   closes (a lazily deferred diff would die with its creator), so
   [Config.diff_backup] forces eager creation. *)
let eager_diffs cl =
  (not cl.Cluster.cfg.Config.lazy_diffs) || cl.Cluster.cfg.Config.diff_backup

(* ------------------------------------------------------------------ *)
(* Synchronization payloads                                            *)

(* A new interval logically begins at the release-to-another-processor:
   the grant carries exactly the granter's knowledge not covered by the
   requester's timestamp, so incorporation alone realises the
   pairwise-maximum rule of §2.2; the timestamp itself must only ever
   track incorporated records (see Node.incorporate).  Every timestamp
   taken here is a [Node.snapshot], one copy per change of [vt] however
   many requests, grants and releases read it. *)
let make_acquire cl ~pid =
  let node = cl.Cluster.nodes.(pid) in
  let request_vt = Node.snapshot node in
  {
    Backend.a_grant =
      (fun ~granter ~charge ->
        let gnode = cl.Cluster.nodes.(granter) in
        Node.close_interval ~eager_diffs:(eager_diffs cl) gnode ~charge;
        let attach = attach_for cl gnode ~receiver:pid ~charge in
        let intervals = Node.intervals_since ?attach gnode request_vt in
        charge Category.Unix_comm Cpu.lock_grant_kernel;
        charge Category.Tmk_other Cpu.lock_grant_dsm;
        let bytes =
          Wire.lock_grant_bytes ~nprocs:cl.Cluster.cfg.Config.nprocs
            (Node.notice_counts intervals)
          + Node.update_bytes intervals
        in
        let granter_vt = Node.snapshot gnode in
        {
          Backend.p_bytes = bytes;
          p_parts = 1 + List.length intervals;
          p_absorb =
            (fun ~charge ->
              Node.close_interval ~eager_diffs:(eager_diffs cl) node ~charge;
              Node.incorporate node intervals ~charge;
              assert (Vector_time.leq granter_vt node.Node.vt));
        });
  }

let make_arrival cl ~pid ~mgr ~relay =
  let node = cl.Cluster.nodes.(pid) in
  let mgr_node = cl.Cluster.nodes.(mgr) in
  let nprocs = cl.Cluster.cfg.Config.nprocs in
  (* Send the manager our intervals it does not know about: everything
     newer than the last manager timestamp we have seen (§3.4).  A
     first-hop arrival carries only this processor's own intervals; a
     tree-relay arrival must forward everything it knows that the parent
     may lack — the children's intervals it just absorbed travel on
     inside it.  Both are safe over-approximations of what the manager
     actually lacks: [Node.incorporate] skips covered intervals. *)
  let mgr_known_vt = Node.newest_vt node mgr in
  let own =
    atomically cl (fun charge ->
        let attach = attach_for cl node ~receiver:mgr ~charge in
        if relay then Node.intervals_since ?attach node mgr_known_vt
        else Node.own_intervals_since ?attach node mgr_known_vt)
  in
  let arrival_vt = Node.snapshot node in
  {
    Backend.v_bytes =
      Wire.barrier_arrival_bytes ~nprocs (Node.notice_counts own) + Node.update_bytes own;
    v_parts = 1 + List.length own;
    v_absorb_mgr = (fun ~charge -> Node.incorporate mgr_node own ~charge);
    v_release =
      (* interval selection (and any hybrid-protocol diff creation) runs
         at the manager, atomic with respect to its handlers; the
         timestamp is snapshotted in the same atomic section as the
         interval list — a release whose timestamp claims intervals it
         does not contain breaks the acquirer's coverage invariant at
         the receiving client. *)
      (fun ~charge ->
        let attach = attach_for cl mgr_node ~receiver:pid ~charge in
        let intervals = Node.intervals_since ?attach mgr_node arrival_vt in
        let release_vt = Node.snapshot mgr_node in
        {
          Backend.p_bytes =
            Wire.barrier_release_bytes ~nprocs (Node.notice_counts intervals)
            + Node.update_bytes intervals;
          p_parts = 1 + List.length intervals;
          p_absorb =
            (fun ~charge ->
              Node.incorporate node intervals ~charge;
              assert (Vector_time.leq release_vt node.Node.vt));
        });
  }

(* GC step 1 (§3.6): validate every page this node modified — flush
   twins to diffs, fetch and apply whatever is missing. *)
let gc_validate cl ~pid =
  let node = cl.Cluster.nodes.(pid) in
  let validate page =
    atomically cl (fun charge -> Node.ensure_own_diff node page ~charge);
    settle cl pid page
  in
  List.iter validate (Node.modified_pages node)

(* Copysets by physical identity: entries share them. *)
module Shared = Hashtbl.Make (struct
  type t = Bitset.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

(* Drop the dead processor from every live node's copysets, and its view
   from the record store.  Each distinct set that names it is replaced
   once, so entries that shared a set share its replacement. *)
let on_death cl dead_pid =
  Node.retire cl.Cluster.nodes.(dead_pid);
  let replaced = Shared.create 64 in
  let prune entry =
    let cs = entry.Node.pg_copyset in
    if Bitset.mem cs dead_pid then begin
      if not (Shared.mem replaced cs) then
        Shared.add replaced cs (Bitset.without_member cs dead_pid);
      entry.Node.pg_copyset <- Shared.find replaced cs
    end
  in
  Array.iteri
    (fun pid node -> if not cl.Cluster.dead.(pid) then Array.iter prune node.Node.pages)
    cl.Cluster.nodes

(* Diff replication: mirror each locally created diff to its creator's
   deterministic backup peer the moment it exists. *)
let install_diff_backup cl =
  Array.iter
    (fun node ->
      Node.set_diff_hook node (fun ~page ~proc ~interval ~diff ->
          match Cluster.backup_peer cl proc with
          | None -> ()
          | Some b ->
            let bytes = Wire.diff_backup_bytes (Rle.encoded_size diff) in
            node.Node.stats.Stats.diff_backups <- node.Node.stats.Stats.diff_backups + 1;
            node.Node.stats.Stats.diff_backup_bytes <-
              node.Node.stats.Stats.diff_backup_bytes + bytes;
            if Engine.tracing cl.Cluster.engine then
              Engine.emit cl.Cluster.engine ~pid:proc
                (Tmk_trace.Event.Diff_backup { page; proc; interval; bytes; to_ = b });
            Transport.notify ~label:"diff-backup" cl.Cluster.transport ~src:proc ~dst:b
              ~bytes
              ~deliver:(fun h ->
                h_charge h Category.Tmk_mem (Costs.diff_apply 0);
                Node.store_backup cl.Cluster.nodes.(b) ~proc ~interval_id:interval ~page diff)))
    cl.Cluster.nodes

let make cl =
  if cl.Cluster.cfg.Config.diff_backup then install_diff_backup cl;
  {
    (Backend.plain caps ~nprocs:cl.Cluster.cfg.Config.nprocs
       ~fault:(Cluster.rc_fault cl (miss cl)))
    with
    Backend.b_make_acquire = (fun ~pid -> make_acquire cl ~pid);
    b_barrier_begin =
      (fun ~pid ->
        atomically cl (fun charge ->
            Node.close_interval ~eager_diffs:(eager_diffs cl) cl.Cluster.nodes.(pid) ~charge));
    b_make_arrival = (fun ~pid ~mgr ~relay -> make_arrival cl ~pid ~mgr ~relay);
    b_want_gc =
      (fun ~pid ->
        cl.Cluster.nodes.(pid).Node.live_records > cl.Cluster.cfg.Config.gc_threshold);
    b_gc_validate = (fun ~pid -> gc_validate cl ~pid);
    b_on_death = (fun dead_pid -> on_death cl dead_pid);
  }
