open Tmk_sim
module Vm = Tmk_mem.Vm

type farray = { f_base : int; f_len : int }
type iarray = { i_base : int; i_len : int }

type ctx = {
  cluster : Protocol.t;
  cpid : int;
  node : Node.t;
  mutable alloc_next : int;  (* bump allocator, replicated per processor *)
  mutable alloc_seq : int;  (* index into the shared allocation log *)
  cprng : Tmk_util.Prng.t;
  alloc_log : (int, int * int) Hashtbl.t;  (* shared across processors: step -> (size, base) *)
  mutable coll_scratch : (farray * iarray) option;
      (* per-processor slot arrays for the collectives, allocated lazily
         on the first reduce (collective calls are SPMD-synchronous, so
         the lazy allocation happens at the same sequence step everywhere) *)
}

type run_result = {
  cluster : Protocol.t;
  total_time : Vtime.t;
  proc_finish : Vtime.t array;
  busy : Vtime.t array array;
  idle : Vtime.t array;
  stats : Stats.t array;
  total_stats : Stats.t;
  messages : int;
  proc_msgs : int array;
  bytes : int;
  retransmissions : int;
  frames_coalesced : int;
  stopped : string option;
  recoveries : Protocol.recovery list;
}

exception Degraded of { pid : int; reason : string }

let () =
  Printexc.register_printer (function
    | Degraded { pid; reason } ->
      Some (Printf.sprintf "Tmk_dsm.Api.Degraded(processor %d: %s)" pid reason)
    | _ -> None)

let pid (ctx : ctx) = ctx.cpid
let nprocs (ctx : ctx) = Protocol.config ctx.cluster |> fun c -> c.Config.nprocs
let config (ctx : ctx) = Protocol.config ctx.cluster
let prng (ctx : ctx) = ctx.cprng

(* ------------------------------------------------------------------ *)
(* Shared memory                                                       *)

let malloc ?(align = 8) (ctx : ctx) ~bytes =
  if bytes <= 0 then invalid_arg "Api.malloc: bytes must be positive";
  if align <= 0 || align land (align - 1) <> 0 then
    invalid_arg "Api.malloc: align must be a power of two";
  let base = (ctx.alloc_next + align - 1) land lnot (align - 1) in
  let limit = (Protocol.config ctx.cluster).Config.pages * Vm.page_size in
  if base + bytes > limit then
    invalid_arg
      (Printf.sprintf "Api.malloc: out of shared memory (%d + %d > %d); raise Config.pages"
         base bytes limit);
  ctx.alloc_next <- base + bytes;
  (* SPMD discipline check: every processor must produce the identical
     allocation sequence. *)
  let seq = ctx.alloc_seq in
  ctx.alloc_seq <- seq + 1;
  (match Hashtbl.find_opt ctx.alloc_log seq with
  | Some (expected_bytes, expected_base) ->
    if expected_bytes <> bytes || expected_base <> base then
      invalid_arg
        (Printf.sprintf
           "Api.malloc: allocation sequences diverge at step %d (processor %d asked %d@%d, \
            first caller got %d@%d)"
           seq ctx.cpid bytes base expected_bytes expected_base)
  | None -> Hashtbl.add ctx.alloc_log seq (bytes, base));
  base

let falloc ?align ctx len = { f_base = malloc ?align ctx ~bytes:(8 * len); f_len = len }
let ialloc ?align ctx len = { i_base = malloc ?align ctx ~bytes:(8 * len); i_len = len }
let flen a = a.f_len
let ilen a = a.i_len

let[@inline] read_f64 (ctx : ctx) addr = Vm.read_f64 ctx.node.Node.vm addr
let[@inline] write_f64 (ctx : ctx) addr v = Vm.write_f64 ctx.node.Node.vm addr v
let[@inline] read_int (ctx : ctx) addr = Vm.read_int ctx.node.Node.vm addr
let[@inline] write_int (ctx : ctx) addr v = Vm.write_int ctx.node.Node.vm addr v

let[@inline] fget ctx a i =
  if i < 0 || i >= a.f_len then invalid_arg "Api.fget: index out of bounds";
  read_f64 ctx (a.f_base + (8 * i))

let[@inline] fset ctx a i v =
  if i < 0 || i >= a.f_len then invalid_arg "Api.fset: index out of bounds";
  write_f64 ctx (a.f_base + (8 * i)) v

let[@inline] iget ctx a i =
  if i < 0 || i >= a.i_len then invalid_arg "Api.iget: index out of bounds";
  read_int ctx (a.i_base + (8 * i))

let[@inline] iset ctx a i v =
  if i < 0 || i >= a.i_len then invalid_arg "Api.iset: index out of bounds";
  write_int ctx (a.i_base + (8 * i)) v

(* ------------------------------------------------------------------ *)
(* Synchronization and computation                                     *)

let acquire (ctx : ctx) lock = Protocol.acquire ctx.cluster ~pid:ctx.cpid ~lock
let release (ctx : ctx) lock = Protocol.release ctx.cluster ~pid:ctx.cpid ~lock

let with_lock ctx lock f =
  acquire ctx lock;
  match f () with
  | v ->
    release ctx lock;
    v
  | exception e ->
    release ctx lock;
    raise e

let barrier (ctx : ctx) id = Protocol.barrier ctx.cluster ~pid:ctx.cpid ~id

(* Declare an intentionally unsynchronized span (e.g. TSP's unsynchronized
   read of the global bound, §5.2: a stale value only costs extra search).
   When a race detector is riding along, its view of the accesses made
   inside [f] is suppressed entirely — they neither raise findings nor
   update the read/write frontiers, so a later properly locked access is
   not compared against them either. *)
let unsynchronized (ctx : ctx) f =
  let hooks =
    match (Protocol.config ctx.cluster).Config.check with
    | Some c -> Tmk_check.Checker.hooks c
    | None -> []
  in
  match hooks with
  | [] -> f ()
  | hooks ->
    let set on = List.iter (fun h -> h.Tmk_check.Hooks.h_suppress ~pid:ctx.cpid on) hooks in
    set true;
    Fun.protect ~finally:(fun () -> set false) f

let compute_ns (ctx : ctx) ns = Protocol.charge_compute ctx.cluster ~pid:ctx.cpid ns

(* nanoseconds per application floating-point operation *)
let flop_ns = 200

let compute_flops (ctx : ctx) n = if n > 0 then compute_ns ctx (n * flop_ns)

(* ------------------------------------------------------------------ *)
(* Collectives (barrier composition; see the interface for the contract) *)

(* Barrier ids at and above this value are reserved for the collectives
   (sequential reuse of a barrier id is safe: the manager resets the
   barrier's state before sending the releases). *)
let coll_barrier_base = 1 lsl 30

let scratch (ctx : ctx) =
  match ctx.coll_scratch with
  | Some s -> s
  | None ->
    let n = nprocs ctx in
    let s = (falloc ctx n, ialloc ctx n) in
    ctx.coll_scratch <- Some s;
    s

(* Every processor deposits its contribution in its own slot, meets at a
   barrier, folds the slots in pid order (deterministic: all processors
   compute the identical result, bit for bit), and meets again so nobody
   can overwrite a slot for the next collective while a slow processor is
   still folding. *)
let reduce_f (ctx : ctx) f v =
  let n = nprocs ctx in
  if n = 1 then v
  else begin
    let fa, _ = scratch ctx in
    fset ctx fa ctx.cpid v;
    barrier ctx coll_barrier_base;
    let acc = ref (fget ctx fa 0) in
    for q = 1 to n - 1 do
      acc := f !acc (fget ctx fa q)
    done;
    barrier ctx (coll_barrier_base + 1);
    !acc
  end

let reduce_i (ctx : ctx) f v =
  let n = nprocs ctx in
  if n = 1 then v
  else begin
    let _, ia = scratch ctx in
    iset ctx ia ctx.cpid v;
    barrier ctx coll_barrier_base;
    let acc = ref (iget ctx ia 0) in
    for q = 1 to n - 1 do
      acc := f !acc (iget ctx ia q)
    done;
    barrier ctx (coll_barrier_base + 1);
    !acc
  end

let bcast ?(root = 0) (ctx : ctx) f =
  if ctx.cpid = root then f ();
  barrier ctx (coll_barrier_base + 2)

(* ------------------------------------------------------------------ *)
(* Running                                                             *)

let run ?trace cfg app =
  let cfg =
    match trace with None -> cfg | Some sink -> { cfg with Config.trace = Some sink }
  in
  (* The invariant oracle and any trace-attach callbacks (the lint
     suite's event listeners) consume the typed event stream; give them a
     private sink when the caller did not ask for tracing. *)
  let oracle, attach =
    match cfg.Config.check with
    | Some c -> (Tmk_check.Checker.oracle c, Tmk_check.Checker.attach c)
    | None -> (None, [])
  in
  let cfg =
    match (oracle, attach, cfg.Config.trace) with
    | Some _, _, None | _, _ :: _, None ->
      { cfg with Config.trace = Some (Tmk_trace.Sink.create ()) }
    | _ -> cfg
  in
  (match cfg.Config.trace with
  | Some sink -> List.iter (fun f -> f sink) attach
  | None -> ());
  (match (oracle, cfg.Config.trace) with
  | Some o, Some sink -> Tmk_check.Oracle.attach o sink
  | _ -> ());
  let cluster = Protocol.create cfg in
  let engine = Protocol.engine cluster in
  let alloc_log = Hashtbl.create 64 in
  let root = Tmk_util.Prng.create cfg.Config.seed in
  for p = 0 to cfg.Config.nprocs - 1 do
    let ctx =
      {
        cluster;
        cpid = p;
        node = Protocol.node cluster p;
        alloc_next = 0;
        alloc_seq = 0;
        cprng = Tmk_util.Prng.split_named root (Printf.sprintf "proc-%d" p);
        alloc_log;
        coll_scratch = None;
      }
    in
    Engine.spawn engine p (fun () -> app ctx)
  done;
  Engine.run engine;
  (match Protocol.fatality cluster with
  | Some (pid, reason) -> raise (Degraded { pid; reason })
  | None -> ());
  let n = cfg.Config.nprocs in
  (* A crashed processor never returns: report its silencing instant; a
     processor parked by a clean stop reports the end of the run. *)
  let proc_finish =
    Array.init n (fun p ->
        if Engine.finished engine p then Engine.finish_time engine p
        else
          match Engine.crash_time engine p with
          | Some at -> at
          | None -> Engine.end_time engine)
  in
  let total_time = Array.fold_left Vtime.max Vtime.zero proc_finish in
  let busy =
    Array.init n (fun p ->
        Array.of_list (List.map (fun c -> Engine.busy engine p c) Category.all))
  in
  let idle = Array.init n (fun p -> Vtime.sub total_time (Engine.busy_total engine p)) in
  let stats = Array.init n (fun p -> (Protocol.node cluster p).Node.stats) in
  let total_stats = Stats.create () in
  Array.iter (fun s -> Stats.add ~into:total_stats s) stats;
  let transport = Protocol.transport cluster in
  {
    cluster;
    total_time;
    proc_finish;
    busy;
    idle;
    stats;
    total_stats;
    messages = Tmk_net.Transport.messages_sent transport;
    proc_msgs =
      Array.init (Protocol.config cluster).Config.nprocs (fun p ->
          Tmk_net.Transport.messages_handled_of transport p);
    bytes = Tmk_net.Transport.bytes_sent transport;
    retransmissions = Tmk_net.Transport.retransmissions transport;
    frames_coalesced = Tmk_net.Transport.frames_coalesced transport;
    stopped = Engine.stop_reason engine;
    recoveries = Protocol.recoveries cluster;
  }
