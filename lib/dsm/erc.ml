(* Eager release consistency (§5.1): at every release and barrier
   arrival, diff every dirty page and push the updates to every cacher
   (DASH-style), blocking until all are acknowledged.  Locks and barriers
   carry no consistency payload and pages are never invalidated. *)

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
    Backend.c_crash_runs = false;
    c_zero_recovery = false;
    c_diff_backup = false;
    c_max_procs = 1024;
  }

type t = {
  cl : Cluster.t;
  dir : Bitset.t array;  (* copyset directory (one entry per page) *)
  pending : (int, Rle.t list) Hashtbl.t array;  (* updates for absent pages *)
  inflight : int array;  (* update messages not yet delivered, per page *)
}

(* Cold fetch through the global directory; updates that raced ahead of
   the base copy are queued and applied on installation.  A provider with
   update messages still in flight to it cannot produce a current
   snapshot, and the requester is not yet a copyset member so it would
   never receive those updates: the serve stalls (the handler re-arms
   itself) until the page's in-flight update count drains.  Flushes are
   bursts bounded by their acknowledgements, so the wait is short. *)
let fetch_base t pid page =
  let cl = t.cl in
  let node = cl.Cluster.nodes.(pid) in
  let provider = Cluster.choose_provider_lowest cl t.dir.(page) ~self:pid ~page in
  app_charge Category.Tmk_other Cpu.page_request_build;
  let mb = Transport.mailbox () in
  let rec serve h =
    if t.inflight.(page) > 0 then begin
      h_charge h Category.Tmk_other (Vtime.us 5);
      Engine.post_handler cl.Cluster.engine ~pid:provider
        ~at:(Vtime.add (Engine.hnow h) (Vtime.us 200))
        serve
    end
    else begin
      h_charge h Category.Tmk_mem Costs.page_copy;
      (* Joining the copyset here makes every later flush reach the new
         member (possibly before the base installs; see [t.pending]). *)
      Bitset.add t.dir.(page) pid;
      Transport.hsend_value ~label:"page-fetch-reply" cl.Cluster.transport h ~dst:pid
        ~bytes:Wire.page_reply_bytes mb
        (Node.page_snapshot cl.Cluster.nodes.(provider) page)
    end
  in
  Transport.send ~label:"page-fetch" cl.Cluster.transport ~src:pid ~dst:provider
    ~bytes:Wire.page_request_bytes ~deliver:serve;
  let bytes = Transport.await_value cl.Cluster.transport mb in
  if Engine.tracing cl.Cluster.engine then
    Cluster.emit cl ~pid (Tmk_trace.Event.Page_fetch { page; from_ = provider });
  atomically cl (fun charge ->
      Node.validate_page node page bytes ~charge;
      (match Hashtbl.find_opt t.pending.(pid) page with
      | None -> ()
      | Some diffs ->
        List.iter
          (fun diff ->
            Node.apply_diff node page diff ~charge;
            if Engine.tracing cl.Cluster.engine then
              Cluster.emit cl ~pid
                (Tmk_trace.Event.Diff_apply
                   (* queued while the base copy was in flight; the sender's
                      identity was not kept *)
                   { page; bytes = Rle.payload_size diff; proc = -1; interval = -1 }))
          (List.rev diffs);
        Hashtbl.remove t.pending.(pid) page);
      charge Category.Unix_mem Costs.mprotect;
      Vm.set_prot node.Node.vm page Vm.Read_only)

let miss t pid page =
  Cluster.note_miss t.cl pid page;
  (* Update protocol: pages are never invalidated, so a miss is always a
     cold fetch. *)
  assert (not (Node.has_copy t.cl.Cluster.nodes.(pid).Node.pages.(page)));
  fetch_base t pid page

(* Release flush (§5.1): diff every dirty page and push updates to every
   cacher, then wait for all acknowledgements. *)
let flush t pid =
  let cl = t.cl in
  let node = cl.Cluster.nodes.(pid) in
  let dirty = node.Node.dirty in
  node.Node.dirty <- [];
  if dirty <> [] then begin
    (* First pass: create every diff and collect the update fan-out so the
       acknowledgement count is known before any ack can arrive. *)
    if Cluster.debugging () then
      Cluster.Log.debug (fun m ->
          m "[t=%d] erc flush by %d, %d dirty pages" (Engine.now cl.Cluster.engine) pid
            (List.length dirty));
    let updates =
      List.filter_map
        (fun page ->
          match atomically cl (fun charge -> Node.flush_page node page ~charge) with
          | None -> None
          | Some diff ->
            let members = List.filter (fun q -> q <> pid) (Bitset.to_list t.dir.(page)) in
            (* Reserve the deliveries while still atomic with the
               membership read, so concurrent cold fetches stall until
               these updates land (see [fetch_base]). *)
            t.inflight.(page) <- t.inflight.(page) + List.length members;
            if members = [] then None else Some (page, diff, members))
        dirty
    in
    (* Regroup the (page → members) fan-out into per-member batches: one
       update message per cacher carrying all of its pages' diffs (one
       frame when batching, back-to-back fragments otherwise), answered by
       one aggregate acknowledgement. *)
    let by_member = Hashtbl.create 8 in
    List.iter
      (fun (page, diff, members) ->
        List.iter
          (fun m ->
            let prev = Option.value ~default:[] (Hashtbl.find_opt by_member m) in
            Hashtbl.replace by_member m ((page, diff) :: prev))
          members)
      updates;
    let batches =
      Hashtbl.fold (fun m rev_pages acc -> (m, List.rev rev_pages) :: acc) by_member []
    in
    if batches <> [] then begin
      let remaining = ref (List.length batches) in
      let all_acked = Engine.Ivar.create () in
      let send_batch (m, entries) =
        let n = List.length entries in
        let bytes =
          List.fold_left
            (fun acc (_, diff) -> acc + Wire.erc_update_bytes (Rle.encoded_size diff))
            0 entries
        in
        let deliver h =
          let mnode = cl.Cluster.nodes.(m) in
          let charge = h_charge h in
          List.iter
            (fun (page, diff) ->
              t.inflight.(page) <- t.inflight.(page) - 1;
              if Cluster.debugging () then
                Cluster.Log.debug (fun msg ->
                    msg "[t=%d] erc update page %d from %d at %d (%d runs, has_copy=%b)"
                      (Engine.now cl.Cluster.engine) page pid m
                      (Tmk_util.Rle.run_count diff)
                      (Node.has_copy mnode.Node.pages.(page)));
              if Node.has_copy mnode.Node.pages.(page) then begin
                Node.apply_diff mnode page diff ~charge;
                (match mnode.Node.pages.(page).Node.pg_twin with
                | Some tw -> Rle.apply diff tw
                | None -> ());
                if Engine.htracing h then
                  Engine.hemit h
                    (Tmk_trace.Event.Diff_apply
                       { page; bytes = Rle.payload_size diff; proc = pid; interval = -1 })
              end
              else begin
                (* The base copy is still in flight: queue the update. *)
                let prev =
                  Option.value ~default:[] (Hashtbl.find_opt t.pending.(m) page)
                in
                Hashtbl.replace t.pending.(m) page (diff :: prev)
              end)
            entries;
          Transport.hsend ~label:"erc-ack" ~parts:n cl.Cluster.transport h ~dst:pid
            ~bytes:(n * Wire.ack_bytes)
            ~deliver:(fun ha ->
              decr remaining;
              if !remaining = 0 then
                Engine.fill cl.Cluster.engine all_acked ~at:(Engine.hnow ha) ())
        in
        Transport.send ~label:"erc-update" ~parts:n cl.Cluster.transport ~src:pid ~dst:m
          ~bytes ~deliver
      in
      (* Send in member order for determinism (by_member is a Hashtbl). *)
      List.iter send_batch (List.sort (fun (a, _) (b, _) -> compare a b) batches);
      (* The release "is not allowed to perform" until every update is
         acknowledged (section 5.1's DASH-style requirement). *)
      if Cluster.debugging () then
        Cluster.Log.debug (fun m ->
            m "[t=%d] erc flush by %d awaiting %d acks" (Engine.now cl.Cluster.engine) pid
              !remaining);
      Engine.await all_acked;
      if Cluster.debugging () then
        Cluster.Log.debug (fun m ->
            m "[t=%d] erc flush by %d complete" (Engine.now cl.Cluster.engine) pid)
    end
  end

let make cl =
  let nprocs = cl.Cluster.cfg.Config.nprocs in
  let dir =
    Array.init cl.Cluster.cfg.Config.pages (fun _ ->
        let b = Bitset.create nprocs in
        Bitset.add b 0;
        b)
  in
  let t =
    {
      cl;
      dir;
      pending = Array.init nprocs (fun _ -> Hashtbl.create 4);
      inflight = Array.make cl.Cluster.cfg.Config.pages 0;
    }
  in
  {
    (Backend.plain caps ~nprocs ~fault:(Cluster.rc_fault cl (miss t))) with
    Backend.b_pre_release = (fun ~pid -> flush t pid);
    b_pre_barrier = (fun ~pid -> flush t pid);
    b_on_death = (fun dead_pid -> Array.iter (fun d -> Bitset.remove d dead_pid) t.dir);
  }
