open Tmk_sim
module Transport = Tmk_net.Transport
module Vm = Tmk_mem.Vm
module Costs = Tmk_mem.Costs
module Bitset = Tmk_util.Bitset

type pending_op = {
  po_pid : int;
  po_seq : int;
  po_target : int;
  po_settled : unit -> bool;
  po_retry : unit -> unit;
}

type t = {
  cfg : Config.t;
  engine : Engine.t;
  transport : Transport.t;
  nodes : Node.t array;
  crashes_planned : bool;
  dead : bool array;
  live_pids : Bitset.t;
  ring : Ring.t option;
  mutable epoch : int;
  mutable pending_ops : pending_op Tmk_util.Vec.t;
  mutable next_op : int;
  mutable fatal : (int * string) option;
}

let barrier_manager = 0

exception Empty_copyset of { pid : int; page : int }

let () =
  Printexc.register_printer (function
    | Empty_copyset { pid; page } ->
      Some
        (Printf.sprintf "Tmk_dsm.Protocol.Empty_copyset(pid %d, page %d): no live copy" pid
           page)
    | _ -> None)

let live t pid = not t.dead.(pid)

(* Deaths funnel through here so the live bitset and the membership
   epoch can never drift from the [dead] flags. *)
let mark_dead t pid =
  if not t.dead.(pid) then begin
    t.dead.(pid) <- true;
    Bitset.remove t.live_pids pid;
    t.epoch <- t.epoch + 1
  end

let lowest_live_other t pid =
  match Bitset.next_member t.live_pids 0 with
  | Some p when p <> pid -> Some p
  | Some p -> Bitset.next_member t.live_pids (p + 1)
  | None -> None

let backup_peer t proc =
  match Bitset.next_member t.live_pids (proc + 1) with
  | Some p -> Some p
  | None -> (
    match Bitset.next_member t.live_pids 0 with
    | Some p when p <> proc -> Some p
    | _ -> None)

(* Ownership: which processor plays manager for a page or a lock.  Under
   [Config.sharding] the consistent-hash ring decides (and, because ring
   lookups walk past dead processors, re-decides at each membership
   epoch); otherwise the flat TreadMarks layout — static [mod nprocs] —
   applies.  Only locks fail over in the flat layout: the backends that
   consult [page_owner] refuse crash plans. *)
let page_owner t page =
  match t.ring with
  | Some ring -> Ring.owner ring ~live:(fun p -> not t.dead.(p)) (Ring.page_key page)
  | None -> page mod t.cfg.Config.nprocs

(* A flat lock's managership migrates to the next live processor in
   cyclic pid order from its static home; with no deaths it stays home. *)
let lock_home t lock =
  match t.ring with
  | Some ring -> Ring.owner ring ~live:(fun p -> not t.dead.(p)) (Ring.lock_key lock)
  | None ->
    let n = t.cfg.Config.nprocs in
    let rec seek m = if t.dead.(m) then seek ((m + 1) mod n) else m in
    seek (lock mod n)

(* A run degrades when surviving processors would need consistency state
   that only the dead processor held.  Safe from any context: records the
   fatality and asks the engine to stop at the next event boundary. *)
let note_fatal t ~pid reason =
  if t.fatal = None then begin
    t.fatal <- Some (pid, reason);
    Engine.request_stop t.engine ("degraded: " ^ reason)
  end

(* Application-context variant: parks the calling process forever (the
   engine stops before the park can deadlock anything). *)
let degrade_app t ~pid reason =
  note_fatal t ~pid reason;
  Engine.await (Engine.Ivar.create ())

(* Protocol event tracing: enable with Logs at Debug level on the
   "tmk.protocol" source (tmk_run --verbose). *)
let log_src = Logs.Src.create "tmk.protocol" ~doc:"TreadMarks protocol events"

module Log = (val Logs.src_log log_src : Logs.LOG)

let debugging () = match Logs.Src.level log_src with Some Logs.Debug -> true | _ -> false

let app_charge cat dt = Engine.advance cat dt
let h_charge = Engine.hcharge

(* Typed-trace emission.  Always guard with [Engine.tracing] (or
   [Engine.htracing] in handler context) at the call site so the event
   value is never even allocated when tracing is off. *)
let emit t ~pid ev = Engine.emit t.engine ~pid ev

(* Application-context protocol bookkeeping must not interleave with this
   processor's request handlers: [Engine.advance] is a scheduling point,
   so charging time in the middle of a mutation sequence would let a
   handler observe (and mutate) half-updated consistency structures.  The
   real implementation masks signals around these sections; we run the
   mutations instantaneously and charge the accumulated CPU afterwards,
   one chunk per charge, with one suspension of the process. *)
let atomically t f = Engine.section t.engine f

(* Pick a live processor believed to cache the page (never ourselves).
   The choice hashes (page, faulting pid) over the members so concurrent
   cold misses spread across the copyset instead of all landing on the
   lowest member (processor 0 holds every page initially, which made it a
   hot spot).  @raise Empty_copyset when no live candidate remains. *)
let choose_provider t copyset ~self ~page =
  let members =
    Bitset.fold (fun q acc -> if q <> self && not t.dead.(q) then q :: acc else acc) copyset []
  in
  match List.rev members with
  | [] -> raise (Empty_copyset { pid = self; page })
  | members ->
    let h = (((page + 1) * 2654435761) + (self * 40503)) land max_int in
    List.nth members (h mod List.length members)

(* ERC variant: always the lowest live member.  The update protocol's
   directory admits members whose base copy is still in flight (the
   faulter joins at serve time, before its reply lands), so an arbitrary
   member is not yet guaranteed to hold current bytes; the lowest member
   is the longest-standing one — in practice the page's origin. *)
let choose_provider_lowest t copyset ~self ~page =
  let provider =
    Bitset.fold
      (fun q acc -> if q <> self && (not t.dead.(q)) && acc < 0 then q else acc)
      copyset (-1)
  in
  if provider < 0 then raise (Empty_copyset { pid = self; page }) else provider

(* Register a re-issuable remote operation (only while a crash plan is
   armed; the registry would otherwise grow for nothing). *)
let register_pending t ~pid ~target ~settled ~retry =
  if t.crashes_planned then begin
    let seq = t.next_op in
    t.next_op <- seq + 1;
    Tmk_util.Vec.push t.pending_ops
      { po_pid = pid; po_seq = seq; po_target = target; po_settled = settled; po_retry = retry }
  end

(* The debug line is built only under debug logging: its closure would
   otherwise be allocated on every miss. *)
let note_miss t pid page =
  let node = t.nodes.(pid) in
  if debugging () then
    Log.debug (fun m -> m "[t=%d] miss at %d on page %d" (Engine.now t.engine) pid page);
  node.Node.stats.Stats.remote_misses <- node.Node.stats.Stats.remote_misses + 1

(* The SIGSEGV handler (§3.7), the one fault entry of every backend:
   the signal and dispatch charges, the fault count and the fault events
   around the backend's service of the fault. *)
let fault t ~pid kind page serve arg =
  let node = t.nodes.(pid) in
  app_charge Category.Unix_mem Costs.sigsegv;
  app_charge Category.Tmk_other Cpu.fault_dispatch;
  (match kind with
  | Vm.Read -> node.Node.stats.Stats.read_faults <- node.Node.stats.Stats.read_faults + 1
  | Vm.Write -> node.Node.stats.Stats.write_faults <- node.Node.stats.Stats.write_faults + 1);
  let ekind =
    match kind with Vm.Read -> Tmk_trace.Event.Read | Vm.Write -> Tmk_trace.Event.Write
  in
  if Engine.tracing t.engine then
    emit t ~pid (Tmk_trace.Event.Page_fault { page; kind = ekind });
  serve arg pid kind page;
  if Engine.tracing t.engine then
    emit t ~pid (Tmk_trace.Event.Page_fault_done { page; kind = ekind })

(* The service of the release-consistent backends: twin creation on a
   write to a valid page, and the miss for invalid pages. *)
let rc_serve (t, miss) pid kind page =
  let node = t.nodes.(pid) in
  match (Vm.prot node.Node.vm page, kind) with
  | Vm.Read_only, Vm.Write ->
    atomically t (fun charge -> Node.write_fault_twin node page ~charge)
  | Vm.No_access, Vm.Read -> miss pid page
  | Vm.No_access, Vm.Write ->
    miss pid page;
    (* The miss can leave the page invalid again if a notice raced in;
       the Vm fault dispatcher retries and we fall into the miss path
       once more. *)
    if Vm.prot node.Node.vm page = Vm.Read_only then
      atomically t (fun charge -> Node.write_fault_twin node page ~charge)
  | (Vm.Read_only | Vm.Read_write), _ -> assert false

let rc_fault t miss =
  let rc = (t, miss) in
  fun ~pid kind page -> fault t ~pid kind page rc_serve rc

let create cfg =
  let engine = Engine.create ~nprocs:cfg.Config.nprocs in
  (match cfg.Config.trace with
  | Some sink -> Engine.set_sink engine sink
  | None -> ());
  let prng = Tmk_util.Prng.split_named (Tmk_util.Prng.create cfg.Config.seed) "net" in
  let transport =
    Transport.create ~plan:cfg.Config.faults ~batching:cfg.Config.batching ~engine
      ~params:cfg.Config.net ~prng ()
  in
  (* one record store per cluster, never a global: clusters run on
     parallel domains *)
  let store = Node.create_store ~nprocs:cfg.Config.nprocs ~pages:cfg.Config.pages in
  let nodes =
    Array.init cfg.Config.nprocs (fun pid ->
        let emit =
          match cfg.Config.trace with
          | None -> None
          | Some _ -> Some (fun ev -> Engine.emit engine ~pid ev)
        in
        Node.create ?emit ~store ~pid ~nprocs:cfg.Config.nprocs ~pages:cfg.Config.pages ())
  in
  let live_pids = Bitset.create cfg.Config.nprocs in
  for p = 0 to cfg.Config.nprocs - 1 do
    Bitset.add live_pids p
  done;
  {
    cfg;
    engine;
    transport;
    nodes;
    crashes_planned = Tmk_net.Fault_plan.crashes cfg.Config.faults <> [];
    dead = Array.make cfg.Config.nprocs false;
    live_pids;
    ring =
      (if cfg.Config.sharding then
         Some (Ring.create ~nprocs:cfg.Config.nprocs ~seed:cfg.Config.seed ())
       else None);
    epoch = 0;
    pending_ops = Tmk_util.Vec.create ();
    next_op = 0;
    fatal = None;
  }
