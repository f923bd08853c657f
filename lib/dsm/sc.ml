open Tmk_sim
module Transport = Tmk_net.Transport
module Vm = Tmk_mem.Vm
module Costs = Tmk_mem.Costs
module Bitset = Tmk_util.Bitset

type kind = Read_miss | Write_miss

type request = { rq_pid : int; rq_kind : kind; rq_done : unit Engine.Ivar.t }

(* The manager-side record of one page: current owner, the processors
   holding read copies, and the FIFO of requests still to serve.  At most
   one request per page is in flight ([current]). *)
type page_state = {
  ps_page : int;
  mutable ps_owner : int;
  ps_copyset : Bitset.t;
  mutable ps_current : request option;
  mutable ps_awaiting_acks : int;
  ps_queue : request Queue.t;
}

type t = {
  engine : Engine.t;
  transport : Transport.t;
  nodes : Node.t array;
  pstates : page_state array;
  page_home : int -> int;  (* manager placement: static mod, or the sharding ring *)
}

let manager_of t page = t.page_home page

(* manager-side bookkeeping per protocol step *)
let manager_cpu = Vtime.us 25

let create ~page_home ~engine ~transport ~nodes ~pages =
  let make page =
    let copyset = Bitset.create (Array.length nodes) in
    Bitset.add copyset 0;
    {
      ps_page = page;
      ps_owner = 0;
      ps_copyset = copyset;
      ps_current = None;
      ps_awaiting_acks = 0;
      ps_queue = Queue.create ();
    }
  in
  { engine; transport; nodes; pstates = Array.init pages make; page_home }

let h_charge h cat dt = Engine.hcharge h cat dt

(* ------------------------------------------------------------------ *)
(* Request completion: runs at the manager, updates ownership records
   and starts the next queued request.                                  *)

let rec complete t st rq h =
  h_charge h Category.Tmk_other manager_cpu;
  (match rq.rq_kind with
  | Read_miss -> Bitset.add st.ps_copyset rq.rq_pid
  | Write_miss ->
    st.ps_owner <- rq.rq_pid;
    Bitset.clear st.ps_copyset;
    Bitset.add st.ps_copyset rq.rq_pid);
  st.ps_current <- None;
  match Queue.take_opt st.ps_queue with
  | None -> ()
  | Some next -> start t st next h

(* Grant the access at the requester: install the page if one travelled,
   set the protection, wake the application, and notify the manager. *)
and grant_at_requester t st rq ~page_bytes ~prot h =
  let node = t.nodes.(rq.rq_pid) in
  (match page_bytes with
  | Some bytes ->
    h_charge h Category.Tmk_mem Costs.page_copy;
    Vm.install_page node.Node.vm st.ps_page bytes;
    Node.set_has_copy node.Node.pages.(st.ps_page) true;
    node.Node.stats.Stats.page_fetches <- node.Node.stats.Stats.page_fetches + 1;
    (* the shipped copy always comes from the current owner (ownership
       records update only afterwards, in [complete]) *)
    if Engine.htracing h then
      Engine.hemit h
        (Tmk_trace.Event.Page_fetch { page = st.ps_page; from_ = st.ps_owner })
  | None -> ());
  h_charge h Category.Unix_mem Costs.mprotect;
  Vm.set_prot node.Node.vm st.ps_page prot;
  Engine.fill t.engine rq.rq_done ~at:(Engine.hnow h) ();
  Transport.hsend ~label:"sc-complete" t.transport h ~dst:(manager_of t st.ps_page)
    ~bytes:Wire.ack_bytes ~deliver:(fun hm -> complete t st rq hm)

(* Ownership (and page, when the writer holds no current copy) transfer
   from the old owner. *)
and owner_transfer_write t st rq ~need_page h =
  let onode = t.nodes.(st.ps_owner) in
  let page_bytes =
    if need_page then begin
      h_charge h Category.Tmk_mem Costs.page_copy;
      Some (Vm.page_snapshot onode.Node.vm st.ps_page)
    end
    else None
  in
  (* the old owner's copy is invalidated by the write *)
  h_charge h Category.Unix_mem Costs.mprotect;
  Vm.set_prot onode.Node.vm st.ps_page Vm.No_access;
  Node.set_has_copy onode.Node.pages.(st.ps_page) false;
  let bytes = if need_page then Wire.page_reply_bytes else Wire.ack_bytes in
  Transport.hsend ~label:"sc-transfer" t.transport h ~dst:rq.rq_pid ~bytes
    ~deliver:(grant_at_requester t st rq ~page_bytes ~prot:Vm.Read_write)

(* After all invalidation acknowledgements: move the page to the writer. *)
and write_transfer t st rq h =
  if st.ps_owner = rq.rq_pid then
    (* the writer already owns the page (it was downgraded by readers):
       a pure upgrade, no transfer *)
    Transport.hsend ~label:"sc-upgrade" t.transport h ~dst:rq.rq_pid ~bytes:Wire.ack_bytes
      ~deliver:(grant_at_requester t st rq ~page_bytes:None ~prot:Vm.Read_write)
  else begin
    let need_page = not (Bitset.mem st.ps_copyset rq.rq_pid) in
    Transport.hsend ~label:"sc-ownership" t.transport h ~dst:st.ps_owner
      ~bytes:Wire.page_request_bytes ~deliver:(owner_transfer_write t st rq ~need_page)
  end

(* Serve a read at the owner: downgrade to read-only, ship the page. *)
and owner_serve_read t st rq h =
  let onode = t.nodes.(st.ps_owner) in
  if Vm.prot onode.Node.vm st.ps_page = Vm.Read_write then begin
    h_charge h Category.Unix_mem Costs.mprotect;
    Vm.set_prot onode.Node.vm st.ps_page Vm.Read_only
  end;
  h_charge h Category.Tmk_mem Costs.page_copy;
  let bytes = Vm.page_snapshot onode.Node.vm st.ps_page in
  Transport.hsend ~label:"sc-page" t.transport h ~dst:rq.rq_pid ~bytes:Wire.page_reply_bytes
    ~deliver:(grant_at_requester t st rq ~page_bytes:(Some bytes) ~prot:Vm.Read_only)

(* Begin serving a request (manager context). *)
and start t st rq h =
  st.ps_current <- Some rq;
  h_charge h Category.Tmk_other manager_cpu;
  match rq.rq_kind with
  | Read_miss ->
    Transport.hsend ~label:"sc-read" t.transport h ~dst:st.ps_owner
      ~bytes:Wire.page_request_bytes ~deliver:(fun ho -> owner_serve_read t st rq ho)
  | Write_miss ->
    (* invalidate every other copy, then transfer *)
    let victims =
      List.filter
        (fun q -> q <> rq.rq_pid && q <> st.ps_owner)
        (Bitset.to_list st.ps_copyset)
    in
    st.ps_awaiting_acks <- List.length victims;
    if victims = [] then write_transfer t st rq h
    else
      List.iter
        (fun victim ->
          Transport.hsend ~label:"sc-invalidate" t.transport h ~dst:victim
            ~bytes:(2 * Wire.ack_bytes)
            ~deliver:(fun hv ->
              let vnode = t.nodes.(victim) in
              if Vm.prot vnode.Node.vm st.ps_page <> Vm.No_access then begin
                h_charge hv Category.Unix_mem Costs.mprotect;
                Vm.set_prot vnode.Node.vm st.ps_page Vm.No_access
              end;
              Node.set_has_copy vnode.Node.pages.(st.ps_page) false;
              Transport.hsend ~label:"sc-inval-ack" t.transport hv
                ~dst:(manager_of t st.ps_page) ~bytes:Wire.ack_bytes
                ~deliver:(fun hm ->
                  st.ps_awaiting_acks <- st.ps_awaiting_acks - 1;
                  if st.ps_awaiting_acks = 0 then write_transfer t st rq hm)))
        victims

let manager_handle t st rq h =
  if st.ps_current = None then start t st rq h else Queue.add rq st.ps_queue

let handle_fault t ~pid kind page =
  let node = t.nodes.(pid) in
  Engine.advance Category.Unix_mem Costs.sigsegv;
  Engine.advance Category.Tmk_other Cpu.fault_dispatch;
  (match kind with
  | Vm.Read -> node.Node.stats.Stats.read_faults <- node.Node.stats.Stats.read_faults + 1
  | Vm.Write -> node.Node.stats.Stats.write_faults <- node.Node.stats.Stats.write_faults + 1);
  node.Node.stats.Stats.remote_misses <- node.Node.stats.Stats.remote_misses + 1;
  let rq_kind = match kind with Vm.Read -> Read_miss | Vm.Write -> Write_miss in
  let ekind =
    match kind with Vm.Read -> Tmk_trace.Event.Read | Vm.Write -> Tmk_trace.Event.Write
  in
  if Engine.tracing t.engine then
    Engine.emit t.engine ~pid (Tmk_trace.Event.Page_fault { page; kind = ekind });
  let rq = { rq_pid = pid; rq_kind; rq_done = Engine.Ivar.create () } in
  Engine.advance Category.Tmk_other Cpu.page_request_build;
  let st = t.pstates.(page) in
  Transport.send ~label:"sc-request" t.transport ~src:pid ~dst:(manager_of t page)
    ~bytes:Wire.page_request_bytes ~deliver:(fun h -> manager_handle t st rq h);
  (* the grant handler runs on this processor and has already charged the
     delivery costs; the application just sleeps until it fires *)
  Engine.await rq.rq_done;
  if Engine.tracing t.engine then
    Engine.emit t.engine ~pid (Tmk_trace.Event.Page_fault_done { page; kind = ekind })

(* ------------------------------------------------------------------ *)
(* Backend packaging                                                   *)

let caps =
  {
    Backend.c_name = Config.protocol_name Config.Sc;
    c_crash_runs = false;
    c_zero_recovery = false;
    c_diff_backup = false;
    c_vt_on_wire = true;
    c_max_procs = 1024;
  }

let make cl =
  let t =
    create
      ~page_home:(fun page -> Cluster.page_owner cl page)
      ~engine:cl.Cluster.engine ~transport:cl.Cluster.transport
      ~nodes:cl.Cluster.nodes ~pages:cl.Cluster.cfg.Config.pages
  in
  let nprocs = cl.Cluster.cfg.Config.nprocs in
  {
    Backend.b_caps = caps;
    b_handle_fault = (fun ~pid kind page -> handle_fault t ~pid kind page);
    b_lock_request_bytes = Wire.lock_request_bytes ~nprocs;
    b_pre_acquire = Backend.noop_pid;
    b_make_acquire =
      (fun ~pid:_ ->
        { Backend.a_grant = (fun ~granter ~charge -> Backend.plain_grant ~nprocs ~granter ~charge) });
    b_pre_release = Backend.noop_pid;
    b_pre_barrier = Backend.noop_pid;
    b_barrier_begin = Backend.noop_pid;
    b_make_arrival = (fun ~pid:_ ~mgr:_ ~relay:_ -> Backend.plain_arrival ~nprocs);
    b_barrier_depart = Backend.noop_pid;
    b_want_gc = (fun ~pid:_ -> false);
    b_gc_validate = Backend.noop_pid;
    b_on_death = (fun _ -> ());
  }
