(* The backend-agnostic protocol core: locks (distributed queue with
   static managers and forwarding, §3.3), barriers (§3.4) and garbage
   collection orchestration (§3.6) over one combining tree whose default
   width makes it the paper's centralized manager, and crash detection /
   metadata failover.  Everything coherence-specific — fault handling,
   what synchronization messages carry and what absorbing them does —
   lives behind the {!Backend} hook table selected from
   [Config.protocol]. *)

open Tmk_sim
module Transport = Tmk_net.Transport
module Vm = Tmk_mem.Vm
module Bitset = Tmk_util.Bitset
module Vec = Tmk_util.Vec

type recovery = {
  rc_pid : int;
  rc_epoch : int;
  rc_crash_at : Vtime.t;
  rc_detected_at : Vtime.t;
  rc_locks_rehomed : int;
  rc_retries : int;
}

(* Every detected death, whether or not it produced a recovery record: a
   zero-recovery backend (SC-ABD) rides out a crash without rebuilding
   anything, but the grace-window bookkeeping below still needs the
   detection times. *)
type death = { d_pid : int; d_crash_at : Vtime.t; d_detected_at : Vtime.t }

type lock_request = {
  lr_lock : int;
  lr_requester : int;
  lr_acq : Backend.acq;  (* grant builder, capturing the request-time state *)
  lr_mb : Backend.payload Transport.mailbox;
  lr_epoch : int;
      (* membership epoch at creation; requests stamped with an older
         epoch are stale routing from before a crash and are dropped
         (recovery re-injects a fresh record for every live waiter) *)
}

type barrier_release = { br_payload : Backend.payload; br_gc : bool }

type lock_state = { mutable held : bool; mutable cached : bool; pending : lock_request Queue.t }
type mgr_state = { mutable last_requester : int }

type barrier_client = {
  bc_pid : int;
  bc_release : charge:Node.charge -> Backend.payload;
  bc_mb : barrier_release Transport.mailbox;
}

(* One direct child's GC message: the flattened (pid, keep bitmap)
   contributions of its whole subtree, plus the mailbox its keepers
   reply goes down through. *)
type gc_client = {
  gc_pid : int;
  gc_contribs : (int * Bitset.t) list;
  gc_mb : Bitset.t array Transport.mailbox;
}

(* One node's state in one round of a barrier or of the GC exchange:
   the children heard from so far, and the ivar the node waits on until
   every live child is in.  Only barriers use [wants_gc]: whether some
   child's subtree asked for garbage collection. *)
type 'a round = {
  heard : 'a Tmk_util.Vec.t;
  all_in : unit Engine.Ivar.t;
  mutable wants_gc : bool;
}

type t = {
  cl : Cluster.t;
  backend : Backend.t;
  lock_states : (int, lock_state) Hashtbl.t array;  (* per node *)
  lock_mgrs : (int, mgr_state) Hashtbl.t array;  (* per node, manager role *)
  barrier_rounds : (int * int, barrier_client round) Hashtbl.t;
      (* (node pid, barrier id) -> that node's current round *)
  gc_rounds : (int, gc_client round) Hashtbl.t;  (* node pid -> its GC round *)
  waiting_acquires : (int, lock_request) Hashtbl.t array;
      (* per pid: lock -> the outstanding remote acquire, if any *)
  grant_target : (int, lock_request) Hashtbl.t;
      (* lock -> request a grant is in flight to (token owner in transit) *)
  mutable deaths : death list;  (* newest first *)
  mutable recoveries : recovery list;  (* newest first *)
}

let config t = t.cl.Cluster.cfg
let engine t = t.cl.Cluster.engine
let transport t = t.cl.Cluster.transport
let node t pid = t.cl.Cluster.nodes.(pid)

let backend_caps = function
  | Config.Lrc -> Lrc.caps
  | Config.Erc -> Erc.caps
  | Config.Sc -> Sc.caps
  | Config.Tardis -> Tardis.caps
  | Config.Sc_abd -> Sc_abd.caps

(* --- liveness helpers --- *)

let epoch t = t.cl.Cluster.epoch
let fatality t = t.cl.Cluster.fatal
let recoveries t = List.rev t.recoveries

let note_fatal t ~pid reason = Cluster.note_fatal t.cl ~pid reason

module Log = Cluster.Log

let app_charge = Cluster.app_charge
let h_charge = Cluster.h_charge
let atomically t f = Cluster.atomically t.cl f
let emit t ~pid ev = Cluster.emit t.cl ~pid ev

(* The checker's hooks (the race detector first, then the lint suite).
   Sync edges are reported from application context at the four points
   the happens-before relation needs: release before the grant can leave,
   acquired after the grant is absorbed, barrier arrival before the
   arrival message goes out, departure after the release is absorbed. *)
let hooks_of t =
  match (config t).Config.check with
  | Some c -> Tmk_check.Checker.hooks c
  | None -> []

let hook_lock_acquired t ~pid ~lock =
  List.iter (fun h -> h.Tmk_check.Hooks.h_lock_acquired ~pid ~lock) (hooks_of t)

let hook_lock_release t ~pid ~lock =
  List.iter (fun h -> h.Tmk_check.Hooks.h_lock_release ~pid ~lock) (hooks_of t)

let hook_barrier_arrive t ~pid ~id =
  List.iter (fun h -> h.Tmk_check.Hooks.h_barrier_arrive ~pid ~id) (hooks_of t)

let hook_barrier_depart t ~pid ~id =
  List.iter (fun h -> h.Tmk_check.Hooks.h_barrier_depart ~pid ~id) (hooks_of t)

let lock_state_of t pid lock =
  match Hashtbl.find_opt t.lock_states.(pid) lock with
  | Some st -> st
  | None ->
    (* The manager starts out holding the token of each lock it manages.
       Using the live (post-crash) manager keeps first-touch
       initialisation globally consistent after a failover: recovery
       explicitly rebuilds every lock that was ever touched, so this lazy
       rule only ever runs for locks with no token anywhere. *)
    let st =
      { held = false; cached = Cluster.lock_home t.cl lock = pid; pending = Queue.create () }
    in
    Hashtbl.add t.lock_states.(pid) lock st;
    st

let mgr_state_of t pid lock =
  match Hashtbl.find_opt t.lock_mgrs.(pid) lock with
  | Some st -> st
  | None ->
    let st = { last_requester = pid } in
    Hashtbl.add t.lock_mgrs.(pid) lock st;
    st

(* ------------------------------------------------------------------ *)
(* Locks (§3.3)                                                        *)

(* Grant from a request handler: the lock was free (cached) at this node. *)
let grant_from_handler t granter req h =
  let payload = req.lr_acq.Backend.a_grant ~granter ~charge:(h_charge h) in
  if Engine.htracing h then
    Engine.hemit h
      (Tmk_trace.Event.Lock_grant
         {
           lock = req.lr_lock;
           requester = req.lr_requester;
           intervals = payload.Backend.p_parts - 1;
           bytes = payload.Backend.p_bytes;
         });
  Transport.hsend_value ~label:"lock-grant" ~parts:payload.Backend.p_parts (transport t) h
    ~dst:req.lr_requester ~bytes:payload.Backend.p_bytes req.lr_mb payload

(* Grant from application context (at release time).  The event is
   emitted inside the atomic section: each chunk the section charges
   after it ends at a scheduling point, and a handler running there can
   raise the granter's knowledge past what the grant carries, while the
   invariant oracle snapshots knowledge at the event. *)
let grant_from_app t granter req =
  let payload =
    atomically t (fun charge ->
        let payload = req.lr_acq.Backend.a_grant ~granter ~charge in
        if Engine.tracing (engine t) then
          emit t ~pid:granter
            (Tmk_trace.Event.Lock_grant
               {
                 lock = req.lr_lock;
                 requester = req.lr_requester;
                 intervals = payload.Backend.p_parts - 1;
                 bytes = payload.Backend.p_bytes;
               });
        payload)
  in
  Transport.send_value ~label:"lock-grant" ~parts:payload.Backend.p_parts (transport t)
    ~src:granter ~dst:req.lr_requester ~bytes:payload.Backend.p_bytes req.lr_mb payload

(* A request is stale routing when it predates the current membership
   epoch (recovery re-injected a fresh copy for every live waiter), when
   its requester has died, or when its grant already went out. *)
let stale_request t req =
  req.lr_epoch < epoch t
  || (not (Cluster.live t.cl req.lr_requester))
  || Transport.mailbox_filled req.lr_mb

(* Track the request a grant is in flight to: if the requester dies the
   token dies with it and recovery regenerates it; if the granter dies
   the already-sent grant still arrives (crash-stop drops only frames
   sent after the crash). *)
let note_grant_inflight t req =
  if t.cl.Cluster.crashes_planned then Hashtbl.replace t.grant_target req.lr_lock req

(* A lock request reaching the node at the end of the forwarding chain. *)
let transfer_request t target req h =
  if stale_request t req then ()
  else begin
    let st = lock_state_of t target req.lr_lock in
    if Cluster.debugging () then
      Log.debug (fun m ->
          m "[t=%d] lock %d transfer-request at %d from %d (held=%b cached=%b)"
            (Engine.now (engine t)) req.lr_lock target req.lr_requester st.held st.cached);
    if st.held || not st.cached then begin
      if Engine.htracing h then
        Engine.hemit h
          (Tmk_trace.Event.Lock_queued { lock = req.lr_lock; requester = req.lr_requester });
      Queue.add req st.pending
    end
    else begin
      st.cached <- false;
      note_grant_inflight t req;
      grant_from_handler t target req h
    end
  end

(* The (effective) manager: record the requester, forward to the
   previous one (§3.3). *)
let manager_handle t mgr req h =
  if stale_request t req then ()
  else begin
    let ms = mgr_state_of t mgr req.lr_lock in
    let target = ms.last_requester in
    assert (target <> req.lr_requester);
    ms.last_requester <- req.lr_requester;
    if Engine.htracing h then
      Engine.hemit h
        (Tmk_trace.Event.Lock_request_recv
           { lock = req.lr_lock; requester = req.lr_requester });
    if target = mgr then transfer_request t mgr req h
    else begin
      h_charge h Category.Tmk_other Cpu.lock_forward;
      if Engine.htracing h then
        Engine.hemit h
          (Tmk_trace.Event.Lock_forward
             { lock = req.lr_lock; requester = req.lr_requester; target });
      Transport.hsend ~label:"lock-forward" (transport t) h ~dst:target
        ~bytes:t.backend.Backend.b_lock_request_bytes
        ~deliver:(fun h2 -> transfer_request t target req h2)
    end
  end

let acquire t ~pid ~lock =
  t.backend.Backend.b_pre_acquire ~pid;
  let node = t.cl.Cluster.nodes.(pid) in
  let st = lock_state_of t pid lock in
  node.Node.stats.Stats.lock_acquires <- node.Node.stats.Stats.lock_acquires + 1;
  if Engine.tracing (engine t) then
    emit t ~pid (Tmk_trace.Event.Lock_acquire { lock; local = st.cached });
  if st.cached then begin
    (* Mark the lock held before charging: Engine.advance is a scheduling
       point, and a request handler running inside it must see the token
       as taken or it would grant it away (the real implementation masks
       SIGIO around the lock internals). *)
    st.held <- true;
    if Cluster.debugging () then
      Log.debug (fun m ->
          m "[t=%d] lock %d local acquire by %d" (Engine.now (engine t)) lock pid);
    app_charge Category.Tmk_other Cpu.lock_local;
    if Engine.tracing (engine t) then
      emit t ~pid (Tmk_trace.Event.Lock_acquired { lock; local = true });
    hook_lock_acquired t ~pid ~lock
  end
  else begin
    node.Node.stats.Stats.lock_remote <- node.Node.stats.Stats.lock_remote + 1;
    app_charge Category.Unix_comm Cpu.lock_request_build_kernel;
    app_charge Category.Tmk_other Cpu.lock_request_build_dsm;
    let mb = Transport.mailbox () in
    let req =
      {
        lr_lock = lock;
        lr_requester = pid;
        lr_acq = t.backend.Backend.b_make_acquire ~pid;
        lr_mb = mb;
        lr_epoch = epoch t;
      }
    in
    if t.cl.Cluster.crashes_planned then Hashtbl.replace t.waiting_acquires.(pid) lock req;
    let mgr = Cluster.lock_home t.cl lock in
    Transport.send ~label:"lock-request" (transport t) ~src:pid ~dst:mgr
      ~bytes:t.backend.Backend.b_lock_request_bytes
      ~deliver:(fun h -> manager_handle t mgr req h);
    let payload = Transport.await_value (transport t) mb in
    if Cluster.debugging () then
      Log.debug (fun m ->
          m "[t=%d] lock %d granted to %d (%d parts)" (Engine.now (engine t)) lock pid
            payload.Backend.p_parts);
    atomically t (fun charge -> payload.Backend.p_absorb ~charge);
    st.held <- true;
    st.cached <- true;
    (* Deregister only after the token flags are set: recovery must never
       observe a grant that is in neither the registry nor [st.cached]. *)
    if t.cl.Cluster.crashes_planned then begin
      Hashtbl.remove t.waiting_acquires.(pid) lock;
      match Hashtbl.find_opt t.grant_target lock with
      | Some r when r.lr_requester = pid -> Hashtbl.remove t.grant_target lock
      | _ -> ()
    end;
    if Engine.tracing (engine t) then
      emit t ~pid (Tmk_trace.Event.Lock_acquired { lock; local = false });
    hook_lock_acquired t ~pid ~lock
  end

let release t ~pid ~lock =
  let st = lock_state_of t pid lock in
  if Cluster.debugging () then
    Log.debug (fun m ->
        m "[t=%d] lock %d release by %d (pending=%d)" (Engine.now (engine t)) lock pid
          (Queue.length st.pending));
  if not st.held then
    invalid_arg (Printf.sprintf "Protocol.release: processor %d does not hold lock %d" pid lock);
  hook_lock_release t ~pid ~lock;
  t.backend.Backend.b_pre_release ~pid;
  st.held <- false;
  (* Skip waiters invalidated by a crash: stale epochs, dead requesters,
     requests already granted elsewhere by recovery. *)
  let rec next_waiter () =
    match Queue.take_opt st.pending with
    | Some req when stale_request t req -> next_waiter ()
    | other -> other
  in
  match next_waiter () with
  | None ->
    (* token stays cached here *)
    if Engine.tracing (engine t) then
      emit t ~pid (Tmk_trace.Event.Lock_release { lock; granted_to = None })
  | Some req ->
    if Cluster.debugging () then
      Log.debug (fun m ->
          m "[t=%d] lock %d release-grant by %d to %d" (Engine.now (engine t)) lock pid
            req.lr_requester);
    if Engine.tracing (engine t) then
      emit t ~pid
        (Tmk_trace.Event.Lock_release { lock; granted_to = Some req.lr_requester });
    st.cached <- false;
    note_grant_inflight t req;
    grant_from_app t pid req;
    (* Any stragglers chase the token to its new holder. *)
    Queue.iter
      (fun r ->
        if not (stale_request t r) then
          Transport.send ~label:"lock-forward" (transport t) ~src:pid ~dst:req.lr_requester
            ~bytes:t.backend.Backend.b_lock_request_bytes
            ~deliver:(fun h -> transfer_request t req.lr_requester r h))
      st.pending;
    Queue.clear st.pending

(* ------------------------------------------------------------------ *)
(* The barrier tree

   Barriers (§3.4) and the GC exchange (§3.6) run over one arity-k tree
   rooted at the barrier manager: processor [i]'s children are
   [k*i+1 .. k*i+k] and its parent is [(i-1)/k].  The paper's
   centralized manager is the width-(nprocs-1) tree, in which every
   other processor is a direct child of processor 0; [Config.barrier_tree]
   narrows it to [Config.tree_arity]. *)

let tree_arity t =
  let cfg = config t in
  if cfg.Config.barrier_tree then cfg.Config.tree_arity else cfg.Config.nprocs - 1

let tree_parent t pid = (pid - 1) / tree_arity t
let first_child t pid = (tree_arity t * pid) + 1

let tree_nchildren t pid =
  let first = first_child t pid and n = (config t).Config.nprocs in
  if first >= n then 0 else min (tree_arity t) (n - first)

let round_of tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> r
  | None ->
    let r = { heard = Vec.create (); all_in = Engine.Ivar.create (); wants_gc = false } in
    Hashtbl.add tbl key r;
    r

(* [pid]'s round completes once every live child has been heard from.
   A child heard from that has since died stays in [heard] but is not
   counted.  Until the first detected death every child lives, so the
   scans run only after one (barriers are hot). *)
let all_children_in t pid r pid_of =
  let n = tree_nchildren t pid in
  if epoch t = 0 then Vec.length r.heard >= n
  else begin
    let first = first_child t pid in
    let live_children = ref 0 in
    for c = first to first + n - 1 do
      if Cluster.live t.cl c then incr live_children
    done;
    Vec.fold_left (fun n x -> if Cluster.live t.cl (pid_of x) then n + 1 else n) 0 r.heard
    >= !live_children
  end

let wake_when_in t pid r pid_of ~at =
  if all_children_in t pid r pid_of && not (Engine.Ivar.is_filled r.all_in) then
    Engine.fill (engine t) r.all_in ~at ()

(* ------------------------------------------------------------------ *)
(* Garbage collection (§3.6)                                           *)

let gc_child_pid c = c.gc_pid

(* The keep-bitmap exchange: each node waits for its live children's
   messages — carrying the flattened (pid, keep bitmap) contributions of
   their whole subtrees — prepends its own, and forwards upward.  The
   root aggregates the live contributions and the keepers array flows
   back down edge by edge, so no processor ever receives more than
   [tree_arity] GC messages.  Dead children get no reply.  Each node
   adopts the keepers and discards every consistency record before its
   first reply: a reply is a scheduling point, and an early child's next
   arrival, absorbed before the discard, would lose intervals this
   node's vector time counts.  Returns the number of records discarded. *)
let gc_exchange t pid ~npages ~keep =
  let r = round_of t.gc_rounds pid in
  if not (all_children_in t pid r gc_child_pid) then Engine.await r.all_in;
  let children = Vec.to_list r.heard in
  (* Drop the entry before any reply goes out: a child cannot start its
     next GC until it gets this round's keepers through us. *)
  Hashtbl.remove t.gc_rounds pid;
  let contribs = (pid, keep) :: List.concat_map (fun c -> c.gc_contribs) children in
  let keepers =
    if pid = Cluster.barrier_manager then begin
      let keepers = Array.init npages (fun _ -> Bitset.create (config t).Config.nprocs) in
      List.iter
        (fun (who, bitmap) ->
          if Cluster.live t.cl who then
            Bitset.iter (fun page -> Bitset.add keepers.(page) who) bitmap)
        contribs;
      keepers
    end
    else begin
      let parent = tree_parent t pid in
      let mb = Transport.mailbox () in
      let count = List.length contribs in
      Transport.send ~label:"gc-bitmap" ~parts:count (transport t) ~src:pid ~dst:parent
        ~bytes:(count * Wire.gc_keep_bitmap_bytes ~npages)
        ~deliver:(fun _h ->
          let pr = round_of t.gc_rounds parent in
          Vec.push pr.heard { gc_pid = pid; gc_contribs = contribs; gc_mb = mb };
          (* Wake the parent at the handler's start, not after its
             charges: this keeps the timings of the centralized exchange. *)
          wake_when_in t parent pr gc_child_pid ~at:(Engine.now (engine t)));
      Transport.await_value (transport t) mb
    end
  in
  (* Every node adopts the root's sets themselves, which nothing mutates
     after the root built them.  [Gc_end] marks the discard, where the
     floor rises. *)
  let node = t.cl.Cluster.nodes.(pid) in
  Array.iteri
    (fun page entry ->
      entry.Node.pg_copyset <- keepers.(page);
      if not (Bitset.mem keepers.(page) pid) then Node.set_has_copy entry false)
    node.Node.pages;
  let discarded = Node.discard_all_records node in
  if Engine.tracing (engine t) then emit t ~pid (Tmk_trace.Event.Gc_end { discarded });
  let reply_bytes = (config t).Config.nprocs * Wire.gc_keep_bitmap_bytes ~npages in
  List.iter
    (fun c ->
      if Cluster.live t.cl c.gc_pid then
        Transport.send_value ~label:"gc-copysets" (transport t) ~src:pid ~dst:c.gc_pid
          ~bytes:reply_bytes c.gc_mb keepers)
    children;
  discarded

let gc_phase t pid =
  let node = t.cl.Cluster.nodes.(pid) in
  let npages = (config t).Config.pages in
  if Cluster.debugging () then
    Log.debug (fun m ->
        m "[t=%d] gc at %d (%d live records)" (Engine.now (engine t)) pid
          node.Node.live_records);
  node.Node.stats.Stats.gc_runs <- node.Node.stats.Stats.gc_runs + 1;
  if Engine.tracing (engine t) then
    emit t ~pid (Tmk_trace.Event.Gc_begin { live = node.Node.live_records });
  (* 1. Backend-specific validation: bring every page this node modified
     to a fully applied state so the records become discardable. *)
  t.backend.Backend.b_gc_validate ~pid;
  (* 2. Exchange keep-bitmaps so everyone learns the new copysets. *)
  let keep = Bitset.create npages in
  for page = 0 to npages - 1 do
    if Vm.prot node.Node.vm page <> Vm.No_access then Bitset.add keep page
  done;
  (* 3. Adopt the new copysets and discard every consistency record,
     within the exchange. *)
  let discarded = gc_exchange t pid ~npages ~keep in
  (* charged after the replies, so that no reply waits for it *)
  app_charge Category.Tmk_other (Vtime.scale Cpu.gc_per_record discarded)

(* ------------------------------------------------------------------ *)
(* Barriers (§3.4)                                                     *)

let client_pid bc = bc.bc_pid

(* The backend builds each client's release payload in an atomic
   section: payload selection (interval deltas, timestamp snapshots,
   hybrid-protocol diffs) must not interleave with this node's handlers
   — the per-client charge below is a scheduling point, and a handler
   interleaving there (e.g. a fast client's arrival at the NEXT barrier)
   would advance the releaser's state past what this release claims to
   carry. *)
let barrier_release_clients t ~pid ~run_gc clients =
  let release_one bc =
    let payload = atomically t (fun charge -> bc.bc_release ~charge) in
    app_charge Category.Tmk_other Cpu.barrier_release_per_client;
    Transport.send_value ~label:"barrier-release" ~parts:payload.Backend.p_parts
      (transport t) ~src:pid ~dst:bc.bc_pid ~bytes:payload.Backend.p_bytes bc.bc_mb
      { br_payload = payload; br_gc = run_gc }
  in
  (* Release in client order for determinism; dead clients get none. *)
  List.iter release_one
    (List.sort
       (fun a b -> compare a.bc_pid b.bc_pid)
       (List.filter (fun bc -> Cluster.live t.cl bc.bc_pid) clients))

(* One crossing at [pid], over the barrier tree.  Arrivals are absorbed
   edge by edge on the way up — an interior node forwards with [relay],
   carrying everything its parent may lack, not just its own records —
   and releases flow back down the same edges, each parent rebuilding
   per-child payloads after absorbing its own release.
   Over-approximation along the way is safe because incorporation is
   idempotent (VT-covered intervals are skipped).  At the default width
   every client is a leaf whose arrival goes straight to the manager:
   the centralized barrier.  A narrower tree has no processor touch more
   than [tree_arity] messages per barrier where the manager touches
   [nprocs - 1]. *)
let barrier_round t ~pid ~id ~epoch ~want_gc =
  let r = round_of t.barrier_rounds (pid, id) in
  if not (all_children_in t pid r client_pid) then Engine.await r.all_in;
  let clients = Vec.to_list r.heard in
  let subtree_gc = want_gc || r.wants_gc in
  (* Drop the occurrence's state before any release goes out: a child
     cannot re-arrive at this id until released through this node. *)
  Hashtbl.remove t.barrier_rounds (pid, id);
  if pid = Cluster.barrier_manager then begin
    barrier_release_clients t ~pid ~run_gc:subtree_gc clients;
    if Engine.tracing (engine t) then
      emit t ~pid (Tmk_trace.Event.Barrier_release { id; epoch });
    hook_barrier_depart t ~pid ~id;
    t.backend.Backend.b_barrier_depart ~pid;
    if subtree_gc then gc_phase t pid
  end
  else begin
    let parent = tree_parent t pid in
    let mb = Transport.mailbox () in
    let arr =
      t.backend.Backend.b_make_arrival ~pid ~mgr:parent ~relay:(tree_nchildren t pid > 0)
    in
    Transport.send ~label:"barrier-arrival" ~parts:arr.Backend.v_parts (transport t)
      ~src:pid ~dst:parent ~bytes:arr.Backend.v_bytes
      ~deliver:(fun h ->
        let pr = round_of t.barrier_rounds (parent, id) in
        arr.Backend.v_absorb_mgr ~charge:(h_charge h);
        Vec.push pr.heard { bc_pid = pid; bc_release = arr.Backend.v_release; bc_mb = mb };
        pr.wants_gc <- pr.wants_gc || subtree_gc;
        wake_when_in t parent pr client_pid ~at:(Engine.hnow h));
    let rel = Transport.await_value (transport t) mb in
    atomically t (fun charge -> rel.br_payload.Backend.p_absorb ~charge);
    if Engine.tracing (engine t) then
      emit t ~pid (Tmk_trace.Event.Barrier_release { id; epoch });
    hook_barrier_depart t ~pid ~id;
    (* This node now has its parent's full knowledge; rebuild and send
       the children's releases from it. *)
    barrier_release_clients t ~pid ~run_gc:rel.br_gc clients;
    if rel.br_gc then gc_phase t pid
  end

let barrier t ~pid ~id =
  let node = t.cl.Cluster.nodes.(pid) in
  if Cluster.debugging () then
    Log.debug (fun m -> m "[t=%d] barrier %d arrival by %d" (Engine.now (engine t)) id pid);
  node.Node.stats.Stats.barriers <- node.Node.stats.Stats.barriers + 1;
  (* epoch = this processor's global barrier sequence number *)
  let epoch = node.Node.stats.Stats.barriers - 1 in
  if Engine.tracing (engine t) then
    emit t ~pid (Tmk_trace.Event.Barrier_arrive { id; epoch });
  hook_barrier_arrive t ~pid ~id;
  t.backend.Backend.b_pre_barrier ~pid;
  app_charge Category.Unix_comm Cpu.barrier_arrival_build_kernel;
  app_charge Category.Tmk_other Cpu.barrier_arrival_build_dsm;
  t.backend.Backend.b_barrier_begin ~pid;
  let want_gc = t.backend.Backend.b_want_gc ~pid in
  if (config t).Config.nprocs = 1 then begin
    if Engine.tracing (engine t) then
      emit t ~pid (Tmk_trace.Event.Barrier_release { id; epoch });
    hook_barrier_depart t ~pid ~id
  end
  else barrier_round t ~pid ~id ~epoch ~want_gc

let charge_compute _t ~pid:_ ns = app_charge Category.Computation (Vtime.ns ns)

(* ------------------------------------------------------------------ *)
(* Failure detection and recovery

   Runs in timer/handler context (from a transport suspicion), so it
   never calls [Engine.advance]: messages go out as context-free
   notifications and deferred work is posted to handlers.  The simulator
   rebuilds the metadata with global visibility — the real system's
   recovery rounds are modelled by the death notices below, and the
   recovery is treated as instantaneous at the detection time.           *)

(* Rebuild one lock's metadata.  The token is located with global
   visibility: a live casher keeps it; a grant in flight to a live
   requester is left to land; otherwise it died with the crash and is
   regenerated at the effective manager.  Every live waiter whose grant
   can no longer reach it is re-injected (fresh epoch) into the owner's
   queue in pid order; stale in-flight routing is dropped by
   [stale_request]. *)
let recover_lock t lock =
  (* every pid, not just the live ones: dead pids' queues are cleared too *)
  let waiters = ref [] in
  for p = (config t).Config.nprocs - 1 downto 0 do
    (match Hashtbl.find_opt t.lock_states.(p) lock with
    | Some st -> Queue.clear st.pending
    | None -> ());
    if Cluster.live t.cl p then
      match Hashtbl.find_opt t.waiting_acquires.(p) lock with
      | Some req when not (Transport.mailbox_filled req.lr_mb) -> waiters := req :: !waiters
      | _ -> ()
  done;
  (* the lowest live processor that caches the token *)
  let rec cached_from p =
    match Bitset.next_member t.cl.Cluster.members p with
    | None -> None
    | Some p -> (
      match Hashtbl.find_opt t.lock_states.(p) lock with
      | Some st when st.cached -> Some p
      | _ -> cached_from (p + 1))
  in
  let in_flight_to =
    match Hashtbl.find_opt t.grant_target lock with
    | Some req when Cluster.live t.cl req.lr_requester -> Some req.lr_requester
    | _ -> None
  in
  let owner, regenerated =
    match (cached_from 0, in_flight_to) with
    | Some p, _ -> (p, false)
    | None, Some r -> (r, false)
    | None, None -> (Cluster.lock_home t.cl lock, true)
  in
  let owner_st =
    match Hashtbl.find_opt t.lock_states.(owner) lock with
    | Some st -> st
    | None ->
      let st = { held = false; cached = false; pending = Queue.create () } in
      Hashtbl.add t.lock_states.(owner) lock st;
      st
  in
  if regenerated then owner_st.cached <- true;
  let waiters =
    List.filter
      (fun req -> req.lr_requester <> owner || regenerated)
      (List.sort (fun a b -> compare a.lr_requester b.lr_requester) !waiters)
  in
  List.iter
    (fun old ->
      let fresh = { old with lr_epoch = epoch t } in
      Hashtbl.replace t.waiting_acquires.(old.lr_requester) lock fresh;
      Queue.add fresh owner_st.pending)
    waiters;
  (* Re-home the forwarding chain at the effective manager: the next new
     request chases the tail of the rebuilt queue. *)
  let ms = mgr_state_of t (Cluster.lock_home t.cl lock) lock in
  (match List.rev waiters with
  | last :: _ -> ms.last_requester <- last.lr_requester
  | [] -> ms.last_requester <- owner);
  (* A free token (regenerated, or parked at a live casher) with waiters
     starts moving immediately; a grant in flight drains its queue when
     the new holder releases.  As at release time, the stragglers chase
     the token to its new holder — leaving them queued at [owner], which
     no longer has the token, would strand them forever. *)
  if owner_st.cached && (not owner_st.held) && not (Queue.is_empty owner_st.pending) then begin
    match Queue.take_opt owner_st.pending with
    | Some req ->
      owner_st.cached <- false;
      note_grant_inflight t req;
      Engine.post_handler (engine t) ~pid:owner ~at:(Engine.now (engine t)) (fun h ->
          grant_from_handler t owner req h);
      Queue.iter
        (fun r ->
          if not (stale_request t r) then
            Transport.notify ~label:"lock-forward" (transport t) ~src:owner
              ~dst:req.lr_requester ~bytes:t.backend.Backend.b_lock_request_bytes
              ~deliver:(fun h -> transfer_request t req.lr_requester r h))
        owner_st.pending;
      Queue.clear owner_st.pending
    | None -> ()
  end

let recover_locks t =
  let known = Hashtbl.create 16 in
  let note l _ = if not (Hashtbl.mem known l) then Hashtbl.add known l () in
  Array.iter (fun tbl -> Hashtbl.iter note tbl) t.lock_states;
  Array.iter (fun tbl -> Hashtbl.iter note tbl) t.lock_mgrs;
  Array.iter (fun tbl -> Hashtbl.iter note tbl) t.waiting_acquires;
  let locks = List.sort compare (Hashtbl.fold (fun l () acc -> l :: acc) known []) in
  List.iter (recover_lock t) locks;
  List.length locks

(* Re-issue every registered in-flight operation that was waiting on the
   dead processor, in deterministic (pid, registration) order. *)
let retry_pending_ops t dead_pid =
  let keep = Vec.create () in
  let hit =
    Vec.fold_left
      (fun acc op ->
        if op.Cluster.po_settled () then acc
        else if op.Cluster.po_target = dead_pid then op :: acc
        else begin
          Vec.push keep op;
          acc
        end)
      [] t.cl.Cluster.pending_ops
  in
  t.cl.Cluster.pending_ops <- keep;
  let hit =
    List.sort
      (fun a b ->
        compare (a.Cluster.po_pid, a.Cluster.po_seq) (b.Cluster.po_pid, b.Cluster.po_seq))
      hit
  in
  List.iter (fun op -> op.Cluster.po_retry ()) hit;
  List.length hit

(* Metadata failover, run once per detected death. *)
let note_death t dead_pid =
  if Cluster.live t.cl dead_pid then begin
    Cluster.mark_dead t.cl dead_pid;
    let detected_at = Engine.now (engine t) in
    let crash_at =
      Option.value ~default:detected_at (Engine.crash_time (engine t) dead_pid)
    in
    if Engine.tracing (engine t) then
      Engine.emit (engine t) ~pid:dead_pid
        (Tmk_trace.Event.Failover { dead = dead_pid; epoch = epoch t });
    if Cluster.debugging () then
      Log.debug (fun m ->
          m "[t=%d] processor %d declared dead (epoch %d)" (Engine.now (engine t)) dead_pid
            (epoch t));
    if dead_pid = Cluster.barrier_manager then
      (* Processor 0 is the barrier/GC manager and the initial copyset of
         every page: its state is not recoverable. *)
      note_fatal t ~pid:dead_pid "barrier manager (processor 0) crashed"
    else begin
      (* Death notices: every live peer learns the new epoch (the
         simulator applies the membership change with global visibility;
         the notices model the traffic). *)
      let monitor = Cluster.barrier_manager in
      Bitset.iter
        (fun q ->
          if q <> monitor then
            Transport.notify ~label:"death-notice" (transport t) ~src:monitor ~dst:q
              ~bytes:Wire.death_notice_bytes
              ~deliver:(fun h -> h_charge h Category.Tmk_other Cpu.lock_forward))
        t.cl.Cluster.members;
      t.backend.Backend.b_on_death dead_pid;
      let locks = recover_locks t in
      let retries = retry_pending_ops t dead_pid in
      (* Barrier and GC rounds whose completion waited on the dead child. *)
      let now = Engine.now (engine t) in
      Hashtbl.iter
        (fun (pid, _id) r -> wake_when_in t pid r client_pid ~at:now)
        t.barrier_rounds;
      Hashtbl.iter (fun pid r -> wake_when_in t pid r gc_child_pid ~at:now) t.gc_rounds;
      t.deaths <- { d_pid = dead_pid; d_crash_at = crash_at; d_detected_at = detected_at } :: t.deaths;
      (* A zero-recovery backend rode out the crash by construction:
         record a recovery only when something was actually rebuilt. *)
      let counted =
        (not t.backend.Backend.b_caps.Backend.c_zero_recovery) || locks > 0 || retries > 0
      in
      if counted then begin
        if Engine.tracing (engine t) then
          Engine.emit (engine t) ~pid:Cluster.barrier_manager
            (Tmk_trace.Event.Recovery_done { dead = dead_pid; locks; retries });
        t.recoveries <-
          {
            rc_pid = dead_pid;
            rc_epoch = epoch t;
            rc_crash_at = crash_at;
            rc_detected_at = detected_at;
            rc_locks_rehomed = locks;
            rc_retries = retries;
          }
          :: t.recoveries
      end
    end
  end

(* Transport suspicion: a crashed peer triggers failover; a peer that is
   merely unreachable (fault-plan partition) stops the run cleanly, as
   recovery from a false positive is out of scope.  Heartbeat probes are
   the exception: their retry budget is deliberately small so crashes are
   detected quickly, which makes a false suspicion of a live peer
   possible under bursty traffic (a congested handler queue can delay
   the probe ack past the whole backoff sequence).  A live peer that
   missed its probes is retried at the next tick; only the data path —
   with the full retransmit budget behind it — declares a live peer
   unreachable. *)
let on_suspicion t ~src ~dst ~label ~attempts =
  if Cluster.live t.cl dst then begin
    if Engine.crashed (engine t) dst then note_death t dst
    else if label <> "hb" then
      Engine.request_stop (engine t)
        (Printf.sprintf "peer %d unreachable (from %d after %d attempts)" dst src attempts)
  end

(* Failure detector: while a crash plan is armed, the lowest functioning
   processor probes every live peer on a short period with a small retry
   budget; budget exhaustion raises the suspicion that drives
   [note_death].  The monitor is recomputed every tick so that the crash of
   the monitor itself (processor 0, usually) leaves a successor probing —
   otherwise its death would go undetected with everyone parked on
   ivars.  Probing stops once every live processor has finished so the
   heartbeat never delays quiescence. *)
let heartbeat_period = Vtime.us 25_000
let heartbeat_budget = 4

(* Recovery restores protocol metadata, but it cannot restore
   application state the dead processor alone held — a task it popped
   from a shared work queue and never completed, say.  Survivors then
   poll forever, and because the heartbeat itself keeps the event queue
   non-empty the simulation would never end.  So once every planned
   crash is resolved, survivors owe {e progress} within a grace window:
   generous (30 simulated seconds, or [crash_grace_factor] times the
   crash instant for long runs, whichever is larger), and renewed each
   time a surviving processor reaches another barrier or finishes.
   Barrier arrivals are the one progress signal livelock cannot fake:
   workers polling a shared queue for a task that died with its owner
   keep faulting and keep cycling the queue lock, but they never reach
   the next barrier — while a legitimately slow run (full-replication
   backends move whole pages where LRC moves diffs) keeps arriving and
   keeps its lease.  Only a run that is both past its deadline and
   barrier-silent for a whole window gets the typed degradation. *)
let crash_grace = Vtime.s 30
let crash_grace_factor = 10

let arm_heartbeat t =
  let members = t.cl.Cluster.members in
  (* the lowest live processor at or above [p] that has not crashed *)
  let rec monitor_from p =
    match Bitset.next_member members p with
    | Some p when Engine.crashed (engine t) p -> monitor_from (p + 1)
    | found -> found
  in
  let unfinished_live () =
    Bitset.fold (fun p alive -> alive || not (Engine.finished (engine t) p)) members false
  in
  (* A planned crash is resolved once its victim is dead (detected and
     handled) or finished before the crash instant ever arrived. *)
  let all_crashes_resolved () =
    List.for_all
      (fun { Tmk_net.Fault_plan.cr_pid; _ } ->
        (not (Cluster.live t.cl cr_pid)) || Engine.finished (engine t) cr_pid)
      (Tmk_net.Fault_plan.crashes (config t).Config.faults)
  in
  let allowance () =
    List.fold_left
      (fun acc d ->
        Vtime.max acc (Vtime.max crash_grace (Vtime.scale d.d_crash_at crash_grace_factor)))
      Vtime.zero t.deaths
  in
  let grace_deadline () =
    List.fold_left
      (fun acc d -> Vtime.max acc (Vtime.add d.d_detected_at (allowance ())))
      Vtime.zero t.deaths
  in
  (* Barrier arrivals plus run completions across the survivors: the
     progress signal that renews the grace lease (see the comment at
     [crash_grace]).  Deliberately excludes locks and page faults — a
     work-queue livelock generates both at full speed. *)
  let progress_marker () =
    Bitset.fold
      (fun p m ->
        let m = m + t.cl.Cluster.nodes.(p).Node.stats.Stats.barriers in
        if Engine.finished (engine t) p then m + 1 else m)
      members 0
  in
  let last_marker = ref (-1) in
  let progress_at = ref Vtime.zero in
  let note_progress () =
    let m = progress_marker () in
    if m <> !last_marker then begin
      last_marker := m;
      progress_at := Engine.now (engine t)
    end
  in
  let probe () =
    match monitor_from 0 with
    | None -> ()
    | Some monitor ->
      Bitset.iter
        (fun q ->
          if q <> monitor && not (Engine.finished (engine t) q) then
            Transport.notify ~label:"hb" ~retry_budget:heartbeat_budget (transport t)
              ~src:monitor ~dst:q ~bytes:Wire.heartbeat_bytes
              ~deliver:(fun _h -> ()))
        members
  in
  let rec tick at =
    Engine.schedule (engine t) ~at (fun () ->
        if Engine.stop_reason (engine t) = None && unfinished_live () then
          if not (all_crashes_resolved ()) then begin
            probe ();
            tick (Vtime.add at heartbeat_period)
          end
          else
            match t.deaths with
            | [] ->
              (* Every victim finished before its crash instant: nothing
                 to detect or to count down.  Stand down so a genuine
                 application deadlock still surfaces as one. *)
              ()
            | d :: _ ->
              note_progress ();
              let now = Engine.now (engine t) in
              if now > grace_deadline () && now > Vtime.add !progress_at (allowance ())
              then
                (* The protocol absorbed the crash long ago and the
                   survivors have been barrier-silent for a whole grace
                   window: they are stuck on application state only the
                   dead processor could produce.  Give them the typed
                   ending, not an endless simulation. *)
                note_fatal t ~pid:d.d_pid
                  (Printf.sprintf
                     "survivors made no progress for %.0f s after recovery: \
                      application state lost in the crash of processor %d \
                      cannot be reproduced"
                     (Vtime.to_s (Vtime.sub now !progress_at))
                     d.d_pid)
              else tick (Vtime.add at heartbeat_period))
  in
  tick heartbeat_period

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

(* Every typed access of a checked run passes through here: a loop, not
   [List.iter] with a closure, so that dispatching it allocates nothing. *)
let rec dispatch_access hooks ~pid kind ~addr ~width =
  match hooks with
  | [] -> ()
  | h :: rest ->
    h.Tmk_check.Hooks.h_access ~pid kind ~addr ~width;
    dispatch_access rest ~pid kind ~addr ~width

let create cfg =
  Config.validate cfg;
  let caps = backend_caps cfg.Config.protocol in
  let name = Config.protocol_name cfg.Config.protocol in
  let planned_crashes = Tmk_net.Fault_plan.crashes cfg.Config.faults in
  if planned_crashes <> [] && not caps.Backend.c_crash_runs then
    invalid_arg
      (Printf.sprintf "Config: crash recovery is not supported by the %s backend" name);
  if cfg.Config.diff_backup && not caps.Backend.c_diff_backup then
    invalid_arg (Printf.sprintf "Config: diff_backup is not supported by the %s backend" name);
  if cfg.Config.nprocs > caps.Backend.c_max_procs then
    invalid_arg
      (Printf.sprintf "Config: the %s backend supports at most %d processors (nprocs = %d)"
         name caps.Backend.c_max_procs cfg.Config.nprocs);
  let cl = Cluster.create cfg in
  let backend =
    match cfg.Config.protocol with
    | Config.Lrc -> Lrc.make cl
    | Config.Erc -> Erc.make cl
    | Config.Sc -> Sc.make cl
    | Config.Tardis -> Tardis.make cl
    | Config.Sc_abd -> Sc_abd.make cl
  in
  let t =
    {
      cl;
      backend;
      lock_states = Array.init cfg.Config.nprocs (fun _ -> Hashtbl.create 16);
      lock_mgrs = Array.init cfg.Config.nprocs (fun _ -> Hashtbl.create 16);
      barrier_rounds = Hashtbl.create 16;
      gc_rounds = Hashtbl.create 16;
      waiting_acquires = Array.init cfg.Config.nprocs (fun _ -> Hashtbl.create 4);
      grant_target = Hashtbl.create 16;
      deaths = [];
      recoveries = [];
    }
  in
  Array.iteri
    (fun pid node ->
      Vm.set_fault_handler node.Node.vm (fun kind page ->
          backend.Backend.b_handle_fault ~pid kind page))
    cl.Cluster.nodes;
  (match hooks_of t with
  | [] -> ()
  | hooks ->
    Array.iteri
      (fun pid node ->
        Vm.set_access_hook node.Node.vm (fun kind addr width ->
            let kind =
              match kind with
              | Vm.Read -> Tmk_check.Hooks.Read
              | Vm.Write -> Tmk_check.Hooks.Write
            in
            dispatch_access hooks ~pid kind ~addr ~width))
      cl.Cluster.nodes);
  (* Suspicions from retry-budget exhaustion drive failure handling. *)
  Transport.on_suspect cl.Cluster.transport (fun ~src ~dst ~label ~attempts ->
      on_suspicion t ~src ~dst ~label ~attempts);
  (* Crash injection: silence the processor at its planned instant;
     detection and failover run through the suspicion path. *)
  List.iter
    (fun { Tmk_net.Fault_plan.cr_pid; cr_at } ->
      Engine.schedule cl.Cluster.engine ~at:cr_at (fun () ->
          if not (Engine.finished cl.Cluster.engine cr_pid) then begin
            if Engine.tracing cl.Cluster.engine then
              Engine.emit cl.Cluster.engine ~pid:cr_pid Tmk_trace.Event.Proc_crash;
            Engine.mark_crashed cl.Cluster.engine cr_pid
          end))
    planned_crashes;
  if cl.Cluster.crashes_planned then arm_heartbeat t;
  t
