open Tmk_sim
module Transport = Tmk_net.Transport
module Vm = Tmk_mem.Vm
module Costs = Tmk_mem.Costs
module Bitset = Tmk_util.Bitset

type request = { rq_pid : int; rq_kind : Vm.access; rq_done : unit Engine.Ivar.t }

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

type t = { cl : Cluster.t; pstates : page_state array }

(* manager placement: static mod, or the sharding ring *)
let manager_of t page = Cluster.page_owner t.cl page

let create cl =
  let make page =
    let copyset = Bitset.create cl.Cluster.cfg.Config.nprocs in
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
  { cl; pstates = Array.init cl.Cluster.cfg.Config.pages make }

let h_charge = Cluster.h_charge

(* ------------------------------------------------------------------ *)
(* Request completion: runs at the manager, updates ownership records
   and starts the next queued request.                                  *)

let rec complete t st rq h =
  h_charge h Category.Tmk_other Cpu.manager_step;
  (match rq.rq_kind with
  | Vm.Read -> Bitset.add st.ps_copyset rq.rq_pid
  | Vm.Write ->
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
  let node = t.cl.Cluster.nodes.(rq.rq_pid) in
  (match page_bytes with
  | Some bytes ->
    Node.validate_page node st.ps_page bytes ~charge:(h_charge h);
    (* the shipped copy always comes from the current owner (ownership
       records update only afterwards, in [complete]) *)
    if Engine.htracing h then
      Engine.hemit h
        (Tmk_trace.Event.Page_fetch { page = st.ps_page; from_ = st.ps_owner })
  | None -> ());
  h_charge h Category.Unix_mem Costs.mprotect;
  Vm.set_prot node.Node.vm st.ps_page prot;
  Engine.fill t.cl.Cluster.engine rq.rq_done ~at:(Engine.hnow h) ();
  Transport.hsend ~label:"sc-complete" t.cl.Cluster.transport h ~dst:(manager_of t st.ps_page)
    ~bytes:Wire.ack_bytes ~deliver:(fun hm -> complete t st rq hm)

(* Ownership (and page, when the writer holds no current copy) transfer
   from the old owner. *)
and owner_transfer_write t st rq ~need_page h =
  let onode = t.cl.Cluster.nodes.(st.ps_owner) in
  let page_bytes =
    if need_page then begin
      h_charge h Category.Tmk_mem Costs.page_copy;
      Some (Node.page_snapshot onode st.ps_page)
    end
    else None
  in
  (* the old owner's copy is invalidated by the write *)
  h_charge h Category.Unix_mem Costs.mprotect;
  Vm.set_prot onode.Node.vm st.ps_page Vm.No_access;
  Node.set_has_copy onode.Node.pages.(st.ps_page) false;
  let bytes = if need_page then Wire.page_reply_bytes else Wire.ack_bytes in
  Transport.hsend ~label:"sc-transfer" t.cl.Cluster.transport h ~dst:rq.rq_pid ~bytes
    ~deliver:(grant_at_requester t st rq ~page_bytes ~prot:Vm.Read_write)

(* After all invalidation acknowledgements: move the page to the writer. *)
and write_transfer t st rq h =
  if st.ps_owner = rq.rq_pid then
    (* the writer already owns the page (it was downgraded by readers):
       a pure upgrade, no transfer *)
    Transport.hsend ~label:"sc-upgrade" t.cl.Cluster.transport h ~dst:rq.rq_pid
      ~bytes:Wire.ack_bytes
      ~deliver:(grant_at_requester t st rq ~page_bytes:None ~prot:Vm.Read_write)
  else begin
    let need_page = not (Bitset.mem st.ps_copyset rq.rq_pid) in
    Transport.hsend ~label:"sc-ownership" t.cl.Cluster.transport h ~dst:st.ps_owner
      ~bytes:Wire.page_request_bytes ~deliver:(owner_transfer_write t st rq ~need_page)
  end

(* Serve a read at the owner: downgrade to read-only, ship the page. *)
and owner_serve_read t st rq h =
  let onode = t.cl.Cluster.nodes.(st.ps_owner) in
  if Vm.prot onode.Node.vm st.ps_page = Vm.Read_write then begin
    h_charge h Category.Unix_mem Costs.mprotect;
    Vm.set_prot onode.Node.vm st.ps_page Vm.Read_only
  end;
  h_charge h Category.Tmk_mem Costs.page_copy;
  let bytes = Node.page_snapshot onode st.ps_page in
  Transport.hsend ~label:"sc-page" t.cl.Cluster.transport h ~dst:rq.rq_pid
    ~bytes:Wire.page_reply_bytes
    ~deliver:(grant_at_requester t st rq ~page_bytes:(Some bytes) ~prot:Vm.Read_only)

(* Begin serving a request (manager context). *)
and start t st rq h =
  st.ps_current <- Some rq;
  h_charge h Category.Tmk_other Cpu.manager_step;
  match rq.rq_kind with
  | Vm.Read ->
    Transport.hsend ~label:"sc-read" t.cl.Cluster.transport h ~dst:st.ps_owner
      ~bytes:Wire.page_request_bytes ~deliver:(fun ho -> owner_serve_read t st rq ho)
  | Vm.Write ->
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
          Transport.hsend ~label:"sc-invalidate" t.cl.Cluster.transport h ~dst:victim
            ~bytes:(2 * Wire.ack_bytes)
            ~deliver:(fun hv ->
              let vnode = t.cl.Cluster.nodes.(victim) in
              if Vm.prot vnode.Node.vm st.ps_page <> Vm.No_access then begin
                h_charge hv Category.Unix_mem Costs.mprotect;
                Vm.set_prot vnode.Node.vm st.ps_page Vm.No_access
              end;
              Node.set_has_copy vnode.Node.pages.(st.ps_page) false;
              Transport.hsend ~label:"sc-inval-ack" t.cl.Cluster.transport hv
                ~dst:(manager_of t st.ps_page) ~bytes:Wire.ack_bytes
                ~deliver:(fun hm ->
                  st.ps_awaiting_acks <- st.ps_awaiting_acks - 1;
                  if st.ps_awaiting_acks = 0 then write_transfer t st rq hm)))
        victims

let manager_handle t st rq h =
  if st.ps_current = None then start t st rq h else Queue.add rq st.ps_queue

(* The service of a fault: every fault is a miss, served by the page's
   manager. *)
let request t pid kind page =
  Cluster.note_miss t.cl pid page;
  let rq = { rq_pid = pid; rq_kind = kind; rq_done = Engine.Ivar.create () } in
  Engine.advance Category.Tmk_other Cpu.page_request_build;
  let st = t.pstates.(page) in
  Transport.send ~label:"sc-request" t.cl.Cluster.transport ~src:pid ~dst:(manager_of t page)
    ~bytes:Wire.page_request_bytes ~deliver:(fun h -> manager_handle t st rq h);
  (* the grant handler runs on this processor and has already charged the
     delivery costs; the application just sleeps until it fires *)
  Engine.await rq.rq_done

(* ------------------------------------------------------------------ *)
(* Backend packaging                                                   *)

let caps =
  {
    Backend.c_crash_runs = false;
    c_zero_recovery = false;
    c_diff_backup = false;
    c_max_procs = 1024;
  }

let make cl =
  let t = create cl in
  let fault ~pid kind page = Cluster.fault cl ~pid kind page request t in
  Backend.plain caps ~nprocs:cl.Cluster.cfg.Config.nprocs ~fault
