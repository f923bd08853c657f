(* Tardis-style timestamp coherence: logical leases instead of vector
   timestamps.

   Every page has a write timestamp [wts] (the logical time of its last
   write) and a read timestamp [rts] (the logical time its current value
   is leased through); every processor has a scalar logical clock [pts].
   A read leases the page forward ([rts] grows by [lease_span] past the
   reader's clock); a write must pick [wts > rts], so it never rewrites
   logical times at which somebody may still be reading the old value —
   stale copies stay {e logically} valid until their lease runs out, and
   no invalidation fan-out is ever sent.  Synchronization carries one
   scalar timestamp: the acquirer merges the granter's clock and then
   expires every cached page whose lease is older than the merged clock
   (a local sweep, no messages).  For data-race-free programs this gives
   the same guarantees as the vector-timestamp protocols: granting a
   lease forces the owner to read-only, so any later write picks
   [wts > lease] and propagates a larger clock through the sync chain
   that expires the lease at the next acquire.

   Page requests are serialized per page through a static manager
   ([Cluster.page_owner]), Li–Hudak style, but the manager keeps only the
   (owner, wts, rts) triple — no copyset, because there is nothing to
   invalidate.  An ownership transfer leaves the old owner a leased
   read-only copy valid through [wts - 1]. *)

open Tmk_sim
module Transport = Tmk_net.Transport
module Vm = Tmk_mem.Vm
module Costs = Tmk_mem.Costs

let caps =
  {
    Backend.c_crash_runs = false;
    c_zero_recovery = false;
    c_diff_backup = false;
    c_max_procs = 1024;
  }

(* How far past the reader's clock a read leases the page.  Larger spans
   mean fewer re-reads of stable pages across synchronization; smaller
   spans expire sooner.  Leases are logical, so the span costs nothing
   when nobody writes. *)
let lease_span = 8

type request = {
  rq_pid : int;
  rq_kind : Vm.access;
  rq_pts : int;  (* requester clock at fault time *)
  rq_version : int;  (* wts of the bytes the requester still caches; -1 = none *)
  rq_done : unit Engine.Ivar.t;
}

(* The manager-side record of one page.  At most one request per page is
   in flight ([ps_current]); the rest queue FIFO. *)
type page_state = {
  ps_page : int;
  mutable ps_owner : int;
  mutable ps_wts : int;
  mutable ps_rts : int;
  mutable ps_current : request option;
  ps_queue : request Queue.t;
}

type t = {
  cl : Cluster.t;
  pstates : page_state array;
  pts : int array;  (* per-processor scalar logical clock *)
  lease : int array array;  (* lease.(pid).(page): valid-through rts *)
  version : int array array;  (* version.(pid).(page): wts of cached bytes; -1 = none *)
}


(* One manager serializes each page: its static home, or its ring owner
   under [Config.sharding]. *)
let manager_of t page = Cluster.page_owner t.cl page
let h_charge = Cluster.h_charge

(* ------------------------------------------------------------------ *)
(* Page requests (manager-serialized, handler context throughout)      *)

let rec complete t st _rq h =
  h_charge h Category.Tmk_other Cpu.manager_step;
  st.ps_current <- None;
  match Queue.take_opt st.ps_queue with
  | None -> ()
  | Some next -> start t st next h

(* Runs at the requester: install the page (unless its cached bytes are
   already the current version), record version and lease, advance the
   clock past the write it just read, wake the application. *)
and grant t st rq ~wts ~lease ~prot ~from_ ~page_bytes h =
  let node = t.cl.Cluster.nodes.(rq.rq_pid) in
  (match page_bytes with
  | Some bytes ->
    Node.validate_page node st.ps_page bytes ~charge:(h_charge h);
    if Engine.htracing h then
      Engine.hemit h (Tmk_trace.Event.Page_fetch { page = st.ps_page; from_ })
  | None -> Node.set_has_copy node.Node.pages.(st.ps_page) true);
  h_charge h Category.Unix_mem Costs.mprotect;
  Vm.set_prot node.Node.vm st.ps_page prot;
  t.version.(rq.rq_pid).(st.ps_page) <- wts;
  t.lease.(rq.rq_pid).(st.ps_page) <- lease;
  t.pts.(rq.rq_pid) <- max t.pts.(rq.rq_pid) wts;
  Engine.fill t.cl.Cluster.engine rq.rq_done ~at:(Engine.hnow h) ();
  Transport.hsend ~label:"tardis-complete" t.cl.Cluster.transport h
    ~dst:(manager_of t st.ps_page) ~bytes:Wire.ack_bytes
    ~deliver:(fun hm -> complete t st rq hm)

(* Serve a read at the owner: downgrade to read-only (the granted lease
   forbids writing at times <= rts without a fresh wts) and ship the
   page unless the requester's cached bytes are already current. *)
and owner_serve_read t st rq ~rts h =
  let owner = st.ps_owner in
  let onode = t.cl.Cluster.nodes.(owner) in
  if Vm.prot onode.Node.vm st.ps_page = Vm.Read_write then begin
    h_charge h Category.Unix_mem Costs.mprotect;
    Vm.set_prot onode.Node.vm st.ps_page Vm.Read_only
  end;
  let wts = st.ps_wts in
  let with_page = rq.rq_version <> wts in
  let page_bytes =
    if with_page then begin
      h_charge h Category.Tmk_mem Costs.page_copy;
      Some (Node.page_snapshot onode st.ps_page)
    end
    else None
  in
  Transport.hsend ~label:"tardis-page" t.cl.Cluster.transport h ~dst:rq.rq_pid
    ~bytes:(Wire.tardis_page_reply_bytes ~with_page)
    ~deliver:(grant t st rq ~wts ~lease:rts ~prot:Vm.Read_only ~from_:owner ~page_bytes)

(* Ownership transfer at the old owner.  The old owner relinquishes
   eagerly — in its own handler, so a concurrent lease sweep at this
   processor either still sees it as owner (copy current, skip) or sees
   the lease set here — keeping a read-only copy leased through the new
   write time minus one. *)
and owner_transfer t st rq ~wts ~old_wts ~need_page h =
  let owner = st.ps_owner in
  let onode = t.cl.Cluster.nodes.(owner) in
  let page_bytes =
    if need_page then begin
      h_charge h Category.Tmk_mem Costs.page_copy;
      Some (Node.page_snapshot onode st.ps_page)
    end
    else None
  in
  if Vm.prot onode.Node.vm st.ps_page = Vm.Read_write then begin
    h_charge h Category.Unix_mem Costs.mprotect;
    Vm.set_prot onode.Node.vm st.ps_page Vm.Read_only
  end;
  t.lease.(owner).(st.ps_page) <- wts - 1;
  t.version.(owner).(st.ps_page) <- old_wts;
  st.ps_owner <- rq.rq_pid;
  Transport.hsend ~label:"tardis-transfer" t.cl.Cluster.transport h ~dst:rq.rq_pid
    ~bytes:(Wire.tardis_page_reply_bytes ~with_page:need_page)
    ~deliver:(grant t st rq ~wts ~lease:wts ~prot:Vm.Read_write ~from_:owner ~page_bytes)

(* Begin serving a request (manager context). *)
and start t st rq h =
  st.ps_current <- Some rq;
  h_charge h Category.Tmk_other Cpu.manager_step;
  match rq.rq_kind with
  | Vm.Read ->
    (* lease the current value forward past the reader's clock *)
    let rts = max st.ps_rts (rq.rq_pts + lease_span) in
    st.ps_rts <- rts;
    Transport.hsend ~label:"tardis-read" t.cl.Cluster.transport h ~dst:st.ps_owner
      ~bytes:Wire.tardis_page_request_bytes
      ~deliver:(fun ho -> owner_serve_read t st rq ~rts ho)
  | Vm.Write ->
    (* the write happens after every outstanding lease and after the
       writer's own clock: no invalidations needed, ever *)
    let wts = 1 + max st.ps_wts (max st.ps_rts rq.rq_pts) in
    let old_wts = st.ps_wts in
    st.ps_wts <- wts;
    st.ps_rts <- max st.ps_rts wts;
    if st.ps_owner = rq.rq_pid then
      (* pure upgrade: the owner's bytes are current by construction *)
      Transport.hsend ~label:"tardis-upgrade" t.cl.Cluster.transport h ~dst:rq.rq_pid
        ~bytes:Wire.ack_bytes
        ~deliver:
          (grant t st rq ~wts ~lease:wts ~prot:Vm.Read_write ~from_:rq.rq_pid
             ~page_bytes:None)
    else
      let need_page = rq.rq_version <> old_wts in
      Transport.hsend ~label:"tardis-ownership" t.cl.Cluster.transport h ~dst:st.ps_owner
        ~bytes:Wire.tardis_page_request_bytes
        ~deliver:(owner_transfer t st rq ~wts ~old_wts ~need_page)

let manager_handle _t st rq h =
  if st.ps_current = None then start _t st rq h else Queue.add rq st.ps_queue

(* The service of a fault: every fault is a miss, served by the page's
   manager. *)
let request t pid kind page =
  Cluster.note_miss t.cl pid page;
  let rq =
    {
      rq_pid = pid;
      rq_kind = kind;
      rq_pts = t.pts.(pid);
      rq_version = t.version.(pid).(page);
      rq_done = Engine.Ivar.create ();
    }
  in
  Engine.advance Category.Tmk_other Cpu.page_request_build;
  let st = t.pstates.(page) in
  Transport.send ~label:"tardis-request" t.cl.Cluster.transport ~src:pid
    ~dst:(manager_of t page) ~bytes:Wire.tardis_page_request_bytes
    ~deliver:(fun h -> manager_handle t st rq h);
  Engine.await rq.rq_done

(* ------------------------------------------------------------------ *)
(* Synchronization: merge the granter's clock, sweep expired leases.   *)

(* Expire every cached page whose lease is older than this processor's
   (just-merged) clock.  The owner of a page never expires its own copy:
   ownership means holding the newest bytes.  [version] is kept — it
   records which bytes are still in memory, so a later re-read whose
   version matches the current wts costs no page transfer. *)
let sweep t pid ~charge =
  let node = t.cl.Cluster.nodes.(pid) in
  let npages = t.cl.Cluster.cfg.Config.pages in
  charge Category.Tmk_consistency (Vtime.scale Cpu.lease_sweep_per_page npages);
  let now = t.pts.(pid) in
  for page = 0 to npages - 1 do
    if
      t.version.(pid).(page) >= 0
      && t.pstates.(page).ps_owner <> pid
      && Vm.prot node.Node.vm page <> Vm.No_access
      && t.lease.(pid).(page) < now
    then begin
      charge Category.Unix_mem Costs.mprotect;
      Vm.set_prot node.Node.vm page Vm.No_access;
      Node.set_has_copy node.Node.pages.(page) false;
      node.Node.stats.Stats.lease_expiries <- node.Node.stats.Stats.lease_expiries + 1;
      if Engine.tracing t.cl.Cluster.engine then
        Cluster.emit t.cl ~pid (Tmk_trace.Event.Lease_expire { page })
    end
  done

(* Absorb one synchronization timestamp: merge, sweep, trace. *)
let absorb t pid ~from_pts ~charge =
  charge Category.Tmk_consistency Cpu.incorporate_base;
  t.pts.(pid) <- max t.pts.(pid) from_pts;
  sweep t pid ~charge;
  if Engine.tracing t.cl.Cluster.engine then
    Cluster.emit t.cl ~pid (Tmk_trace.Event.Ts_sync { ts = t.pts.(pid) })

let make_acquire t ~pid =
  {
    Backend.a_grant =
      (fun ~granter ~charge ->
        charge Category.Unix_comm Cpu.lock_grant_kernel;
        charge Category.Tmk_other Cpu.lock_grant_dsm;
        let granter_pts = t.pts.(granter) in
        {
          Backend.p_bytes = Wire.tardis_lock_grant_bytes;
          p_parts = 1;
          p_absorb = (fun ~charge -> absorb t pid ~from_pts:granter_pts ~charge);
        });
  }

(* The scalar clock makes tree combining trivial: absorbing an arrival
   is a [max] merge, so an interior node's own arrival (built after its
   children's merges) already carries its whole subtree — [relay] needs
   no special handling. *)
let make_arrival t ~pid ~mgr =
  let arrival_pts = t.pts.(pid) in
  {
    Backend.v_bytes = Wire.tardis_barrier_arrival_bytes;
    v_parts = 1;
    v_absorb_mgr =
      (fun ~charge ->
        charge Category.Tmk_consistency Cpu.incorporate_base;
        t.pts.(mgr) <- max t.pts.(mgr) arrival_pts);
    v_release =
      (fun ~charge:_ ->
        let merged = t.pts.(mgr) in
        {
          Backend.p_bytes = Wire.tardis_barrier_release_bytes;
          p_parts = 1;
          p_absorb = (fun ~charge -> absorb t pid ~from_pts:merged ~charge);
        });
  }

let make cl =
  let npages = cl.Cluster.cfg.Config.pages in
  let n = cl.Cluster.cfg.Config.nprocs in
  let t =
    {
      cl;
      pstates =
        Array.init npages (fun page ->
            {
              ps_page = page;
              ps_owner = 0;
              ps_wts = 0;
              ps_rts = 0;
              ps_current = None;
              ps_queue = Queue.create ();
            });
      pts = Array.make n 0;
      lease = Array.make_matrix n npages 0;
      version =
        Array.init n (fun pid -> Array.make npages (if pid = 0 then 0 else -1));
    }
  in
  let fault ~pid kind page = Cluster.fault cl ~pid kind page request t in
  {
    (Backend.plain caps ~nprocs:n ~fault) with
    Backend.b_lock_request_bytes = Wire.tardis_lock_request_bytes;
    b_make_acquire = (fun ~pid -> make_acquire t ~pid);
    b_make_arrival = (fun ~pid ~mgr ~relay:_ -> make_arrival t ~pid ~mgr);
    b_barrier_depart =
      (* the manager merged every arrival into its own clock; sweep it
         (clients sweep inside their release payload's absorb) *)
      (fun ~pid ->
        Cluster.atomically cl (fun charge ->
            sweep t pid ~charge;
            if Engine.tracing cl.Cluster.engine then
              Cluster.emit cl ~pid (Tmk_trace.Event.Ts_sync { ts = t.pts.(pid) })));
  }
