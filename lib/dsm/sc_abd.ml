(* SC-ABD: shared memory as majority-quorum replicated registers.

   Every processor keeps a full replica of every page, and every 8-byte
   word of a page is a last-writer-wins register with its own timestamp
   (encoded [counter * nprocs + pid], so timestamps are totally ordered
   and writer-unique).  There is no owner, no directory and no manager:

   - A release (or barrier arrival, or acquire of any kind) flushes the
     dirty pages with a two-phase ABD write: query every live replica for
     the maximum timestamp over the dirty words, pick a larger one, then
     store the diffs at every live replica and wait until a majority
     acknowledges.  Receivers apply a store word-filtered (only where the
     incoming timestamp wins), so concurrent writers to disjoint words of
     the same page never lose updates.
   - A miss reads a majority: collect (page, word-timestamps) from live
     replicas, merge word-wise with the local copy, and write the merged
     value back only when the replies disagreed (ABD read-repair).
   - An acquire invalidates the whole cache after its flush — pages are
     re-read through a quorum on next touch.  Invalidating at the
     acquire (rather than when some payload arrives) also covers
     re-acquires of locally cached locks, which exchange no messages.

   Because any majority intersects any other, a read quorum always sees
   the newest completed write, whatever minority of processors has
   crashed — so a crash needs {e no} recovery protocol at all: no state
   is rebuilt, no diffs are re-homed, nothing is re-issued.  The price is
   paid up front, on every miss and every flush, in quorum round-trips. *)

open Tmk_sim
module Transport = Tmk_net.Transport
module Vm = Tmk_mem.Vm
module Costs = Tmk_mem.Costs
module Rle = Tmk_util.Rle

let app_charge = Cluster.app_charge
let h_charge = Cluster.h_charge
let atomically = Cluster.atomically

let caps =
  {
    Backend.c_crash_runs = true;
    c_zero_recovery = true;
    c_diff_backup = false;
    (* two-phase quorum traffic over full replicas: past 64 processors
       every word access costs hundreds of frames — reject rather than
       simulate something the design cannot mean *)
    c_max_procs = 64;
  }

let words = Wire.abd_words_per_page

type t = {
  cl : Cluster.t;
  wordts : int array array;
      (* wordts.(pid).(page * words + w): timestamp of processor [pid]'s
         replica of word [w] of [page] *)
}

let nprocs t = t.cl.Cluster.cfg.Config.nprocs

(* Majority of the {e full} membership: crashed processors still count
   toward the denominator (their replicas are frozen, not forgotten). *)
let needed t = nprocs t / 2

let live_peers t pid =
  List.filter (fun q -> q <> pid && Cluster.live t.cl q) (List.init (nprocs t) Fun.id)

let require_quorum t pid peers =
  if List.length peers < needed t then
    Cluster.degrade_app t.cl ~pid
      (Printf.sprintf "sc-abd: quorum lost (%d live peers, need %d)" (List.length peers)
         (needed t))

(* One quorum round from [pid] (application context): a [label] request
   to every peer, whose receive handler charges [Cpu.abd_serve], runs
   [serve q h] and answers with a [reply_label] message.  Returns once
   [needed t] replies are in, with their values newest first; later
   replies are ignored. *)
let quorum t pid peers ~label ?parts ~bytes ~reply_label ~reply_bytes serve =
  let cl = t.cl in
  let need = needed t in
  let replies = ref [] and got = ref 0 in
  let enough = Engine.Ivar.create () in
  List.iter
    (fun q ->
      Transport.send ~label ?parts cl.Cluster.transport ~src:pid ~dst:q ~bytes
        ~deliver:(fun h ->
          h_charge h Category.Tmk_other Cpu.abd_serve;
          let v = serve q h in
          Transport.hsend ~label:reply_label cl.Cluster.transport h ~dst:pid
            ~bytes:reply_bytes
            ~deliver:(fun hr ->
              if !got < need then begin
                replies := v :: !replies;
                incr got;
                if !got = need then Engine.fill cl.Cluster.engine enough ~at:(Engine.hnow hr) ()
              end)))
    peers;
  if need > 0 then Engine.await enough;
  !replies

(* Apply [diff] to [dst]'s replica of [page], keeping only the words
   where [ts] beats the replica's word timestamp.  The twin is patched
   too when the page is locally dirty, so the incoming words do not
   reappear in [dst]'s own next diff. *)
let apply_store t ~from_ dst page diff ~ts ~charge =
  let node = t.cl.Cluster.nodes.(dst) in
  let row = t.wordts.(dst) in
  let base = page * words in
  let snap = Node.page_snapshot node page in
  let twin = node.Node.pages.(page).Node.pg_twin in
  List.iter
    (fun { Rle.offset; bytes } ->
      let len = Bytes.length bytes in
      for w = offset / 8 to (offset + len - 1) / 8 do
        if ts > row.(base + w) then begin
          row.(base + w) <- ts;
          let lo = max (w * 8) offset and hi = min ((w + 1) * 8) (offset + len) in
          Bytes.blit bytes (lo - offset) snap lo (hi - lo);
          match twin with
          | Some tw -> Bytes.blit bytes (lo - offset) tw lo (hi - lo)
          | None -> ()
        end
      done)
    (Rle.runs diff);
  Vm.install_page node.Node.vm page snap;
  Node.release_copy node snap;
  charge Category.Tmk_mem (Costs.diff_apply (Rle.payload_size diff));
  node.Node.stats.Stats.diffs_applied <- node.Node.stats.Stats.diffs_applied + 1;
  if Engine.tracing t.cl.Cluster.engine then
    Cluster.emit t.cl ~pid:dst
      (Tmk_trace.Event.Diff_apply
         { page; bytes = Rle.payload_size diff; proc = from_; interval = -1 })

(* Word-filtered full-page overwrite (read-repair write-back). *)
let apply_writeback t dst page merged mrow ~charge =
  let node = t.cl.Cluster.nodes.(dst) in
  let row = t.wordts.(dst) in
  let base = page * words in
  let snap = Node.page_snapshot node page in
  let twin = node.Node.pages.(page).Node.pg_twin in
  for w = 0 to words - 1 do
    if mrow.(w) > row.(base + w) then begin
      row.(base + w) <- mrow.(w);
      Bytes.blit merged (w * 8) snap (w * 8) 8;
      match twin with
      | Some tw -> Bytes.blit merged (w * 8) tw (w * 8) 8
      | None -> ()
    end
  done;
  Vm.install_page node.Node.vm page snap;
  Node.release_copy node snap;
  charge Category.Tmk_mem Costs.page_copy

(* ------------------------------------------------------------------ *)
(* Quorum read (application context, from a miss)                      *)

let quorum_read t pid page =
  let cl = t.cl in
  Cluster.note_miss cl pid page;
  let node = cl.Cluster.nodes.(pid) in
  let peers = live_peers t pid in
  require_quorum t pid peers;
  node.Node.stats.Stats.quorum_reads <- node.Node.stats.Stats.quorum_reads + 1;
  app_charge Category.Tmk_other Cpu.page_request_build;
  let got_replies =
    quorum t pid peers ~label:"abd-read" ~bytes:Wire.abd_read_request_bytes
      ~reply_label:"abd-read-reply" ~reply_bytes:Wire.abd_read_reply_bytes (fun q h ->
        h_charge h Category.Tmk_mem Costs.page_copy;
        let snap = Node.page_snapshot cl.Cluster.nodes.(q) page in
        (snap, Array.sub t.wordts.(q) (page * words) words))
  in
  app_charge Category.Tmk_other
    (Vtime.scale Cpu.abd_merge_per_reply (List.length got_replies));
  let base = page * words in
  let my = t.wordts.(pid) in
  let merged = Node.page_snapshot node page in
  let disagree =
    atomically cl (fun charge ->
        List.iter
          (fun (snap, row) ->
            for w = 0 to words - 1 do
              if row.(w) > my.(base + w) then begin
                my.(base + w) <- row.(w);
                Bytes.blit snap (w * 8) merged (w * 8) 8
              end
            done)
          got_replies;
        let disagree =
          List.exists
            (fun (_, row) ->
              let stale = ref false in
              for w = 0 to words - 1 do
                if row.(w) < my.(base + w) then stale := true
              done;
              !stale)
            got_replies
        in
        Vm.install_page node.Node.vm page merged;
        charge Category.Unix_mem Costs.mprotect;
        Vm.set_prot node.Node.vm page Vm.Read_only;
        Node.set_has_copy node.Node.pages.(page) true;
        disagree)
  in
  if Engine.tracing cl.Cluster.engine then
    Cluster.emit cl ~pid
      (Tmk_trace.Event.Quorum_read { page; replies = List.length got_replies });
  if disagree then begin
    (* ABD read-repair: the value about to be returned must survive at a
       majority before any later read may be allowed to miss it. *)
    let mrow = Array.sub my base words in
    ignore
      (quorum t pid peers ~label:"abd-writeback" ~bytes:Wire.abd_writeback_bytes
         ~reply_label:"abd-ack" ~reply_bytes:Wire.ack_bytes (fun q h ->
           apply_writeback t q page merged mrow ~charge:(h_charge h)))
  end

(* ------------------------------------------------------------------ *)
(* Two-phase quorum flush (application context)                        *)

let flush t pid =
  let cl = t.cl in
  let node = cl.Cluster.nodes.(pid) in
  let dirty = node.Node.dirty in
  node.Node.dirty <- [];
  let entries =
    List.filter_map
      (fun page ->
        match atomically cl (fun charge -> Node.flush_page node page ~charge) with
        | Some diff when not (Rle.is_empty diff) -> Some (page, diff)
        | _ -> None)
      dirty
  in
  if entries <> [] then begin
    let peers = live_peers t pid in
    let need = needed t in
    require_quorum t pid peers;
    let n_dirty = List.length entries in
    (* Phase 1: learn the maximum timestamp any live replica holds for
       the dirty words, so the store's timestamp beats them all. *)
    let seen =
      quorum t pid peers ~label:"abd-ts" ~bytes:(Wire.abd_ts_query_bytes n_dirty)
        ~reply_label:"abd-ts-reply" ~reply_bytes:(Wire.abd_ts_reply_bytes n_dirty)
        (fun q _ ->
          let row = t.wordts.(q) in
          let m = ref 0 in
          List.iter
            (fun (page, _) ->
              let base = page * words in
              for w = 0 to words - 1 do
                if row.(base + w) > !m then m := row.(base + w)
              done)
            entries;
          !m)
    in
    let own_max =
      List.fold_left
        (fun acc (page, _) ->
          let base = page * words in
          let m = ref acc in
          for w = 0 to words - 1 do
            if t.wordts.(pid).(base + w) > !m then m := t.wordts.(pid).(base + w)
          done;
          !m)
        0 entries
    in
    let max_seen = List.fold_left max own_max seen in
    let n = nprocs t in
    let ts = (((max_seen / n) + 1) * n) + pid in
    (* Stamp the local replica: it is one of the majority. *)
    atomically cl (fun charge ->
        charge Category.Tmk_consistency Cpu.incorporate_base;
        List.iter
          (fun (page, diff) ->
            let base = page * words in
            List.iter
              (fun { Rle.offset; bytes } ->
                let len = Bytes.length bytes in
                for w = offset / 8 to (offset + len - 1) / 8 do
                  t.wordts.(pid).(base + w) <- ts
                done)
              (Rle.runs diff))
          entries);
    (* Phase 2: store everywhere, proceed once a majority holds it. *)
    let sizes = List.map (fun (_, d) -> Rle.encoded_size d) entries in
    ignore
      (quorum t pid peers ~label:"abd-store" ~parts:n_dirty
         ~bytes:(Wire.abd_store_bytes sizes) ~reply_label:"abd-store-ack"
         ~reply_bytes:Wire.ack_bytes (fun q h ->
           List.iter
             (fun (page, diff) -> apply_store t ~from_:pid q page diff ~ts ~charge:(h_charge h))
             entries));
    node.Node.stats.Stats.quorum_writes <- node.Node.stats.Stats.quorum_writes + 1;
    if Engine.tracing cl.Cluster.engine then
      Cluster.emit cl ~pid (Tmk_trace.Event.Quorum_write { pages = n_dirty; acks = need })
  end

(* Drop the whole cache: the next touch of any page re-reads a quorum.
   One mprotect charge — a real implementation revokes the entire
   contiguous range with a single syscall.  Always runs post-flush, so
   no twins exist. *)
let invalidate_all t pid ~charge =
  if nprocs t > 1 then begin
    let node = t.cl.Cluster.nodes.(pid) in
    charge Category.Unix_mem Costs.mprotect;
    for page = 0 to t.cl.Cluster.cfg.Config.pages - 1 do
      if Vm.prot node.Node.vm page <> Vm.No_access then begin
        Vm.set_prot node.Node.vm page Vm.No_access;
        Node.set_has_copy node.Node.pages.(page) false
      end
    done
  end

let make cl =
  let n = cl.Cluster.cfg.Config.nprocs in
  let npages = cl.Cluster.cfg.Config.pages in
  (* Full replication: every processor starts with a valid all-zero
     replica of every page, timestamp 0. *)
  Array.iter
    (fun node ->
      for page = 0 to npages - 1 do
        Vm.set_prot node.Node.vm page Vm.Read_only;
        Node.set_has_copy node.Node.pages.(page) true
      done)
    cl.Cluster.nodes;
  let t = { cl; wordts = Array.init n (fun _ -> Array.make (npages * words) 0) } in
  {
    (Backend.plain caps ~nprocs:n ~fault:(Cluster.rc_fault cl (quorum_read t))) with
    Backend.b_lock_request_bytes = Wire.abd_sync_bytes;
    b_pre_acquire =
      (fun ~pid ->
        flush t pid;
        atomically cl (fun charge -> invalidate_all t pid ~charge));
    b_make_acquire =
      (fun ~pid:_ ->
        {
          Backend.a_grant =
            (fun ~granter:_ ~charge ->
              charge Category.Unix_comm Cpu.lock_grant_kernel;
              charge Category.Tmk_other Cpu.lock_grant_dsm;
              {
                Backend.p_bytes = Wire.abd_sync_bytes;
                p_parts = 1;
                p_absorb = Backend.plain_absorb;
              });
        });
    b_pre_release = (fun ~pid -> flush t pid);
    b_pre_barrier = (fun ~pid -> flush t pid);
    b_make_arrival =
      (fun ~pid ~mgr:_ ~relay:_ ->
        {
          Backend.v_bytes = Wire.abd_sync_bytes;
          v_parts = 1;
          v_absorb_mgr = Backend.plain_absorb;
          v_release =
            (fun ~charge:_ ->
              {
                Backend.p_bytes = Wire.abd_sync_bytes;
                p_parts = 1;
                p_absorb =
                  (fun ~charge ->
                    charge Category.Tmk_consistency Cpu.incorporate_base;
                    invalidate_all t pid ~charge);
              });
        });
    b_barrier_depart =
      (fun ~pid -> atomically cl (fun charge -> invalidate_all t pid ~charge));
  }
