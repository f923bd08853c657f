(* Layer call loops: each calls one layer's public functions in a loop and
   reports host nanoseconds per call, timed from outside the program.  The
   simulator-backed loops also return the simulated time of one
   operation, which on the paper's §4.2 shapes (LRC, ATM, flat) gives the
   calibration error.

   A loop's "shape" is the workload's: its processor count, backend,
   sharding and tree-barrier setting ([cfg] is the workload's config with
   a small address space, so building the cluster stays cheap). *)

open Tmk_sim
open Tmk_dsm
module Transport = Tmk_net.Transport
module Vm = Tmk_mem.Vm

(* Host ns per call of [f ops]: the median of three timed trials, after
   one untimed trial that warms caches and lazy set-up. *)
let host_ns ~ops f =
  let trial () =
    let t0 = Unix.gettimeofday () in
    f ();
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int ops
  in
  ignore (trial ());
  let a = [| trial (); trial (); trial () |] in
  Array.sort Float.compare a;
  a.(1)

(* Like [host_ns], but each trial runs a fresh runner built by [make]
   beforehand, so cluster construction stays out of the timing. *)
let host_ns_each ~ops make =
  let runs = Array.init 4 (fun _ -> make ()) in
  let next = ref 0 in
  host_ns ~ops (fun () ->
      ignore (runs.(!next) ());
      incr next)

let spawn_idle engine ~from ~nprocs =
  for p = from to nprocs - 1 do
    Engine.spawn engine p (fun () -> ())
  done

(* ---- engine ---- *)

let advance_ns ~nprocs =
  let per_proc = max 1 (50_000 / nprocs) in
  host_ns ~ops:(per_proc * nprocs) (fun () ->
      let engine = Engine.create ~nprocs in
      for p = 0 to nprocs - 1 do
        Engine.spawn engine p (fun () ->
            for _ = 1 to per_proc do
              Engine.advance Category.Computation (Vtime.us 1)
            done)
      done;
      Engine.run engine)

(* [nprocs] interleaved schedule-and-fire chains: the heap holds one
   pending event per processor, as in a compute-bound run. *)
let event_ns ~nprocs =
  let events = 100_000 in
  host_ns ~ops:events (fun () ->
      let engine = Engine.create ~nprocs in
      let remaining = ref events in
      let rec tick at () =
        if !remaining > 0 then begin
          decr remaining;
          let next = Vtime.add at (Vtime.us 1) in
          Engine.schedule engine ~at:next (tick next)
        end
      in
      for p = 1 to nprocs do
        Engine.schedule engine ~at:(Vtime.ns p) (tick (Vtime.ns p))
      done;
      Engine.run engine)

(* ---- transport ---- *)

(* [trips] send_value/await_value ping-pongs between processors 0 and 1,
   both blocked in receive: the paper's 500 us round trip. *)
let roundtrip ~nprocs ~trips =
  let engine = Engine.create ~nprocs in
  let transport =
    Transport.create ~engine ~params:Tmk_net.Params.atm_aal34 ~prng:(Tmk_util.Prng.create 5L) ()
  in
  let pings = Array.init trips (fun _ -> Transport.mailbox ()) in
  let pongs = Array.init trips (fun _ -> Transport.mailbox ()) in
  let t1 = ref Vtime.zero in
  Engine.spawn engine 1 (fun () ->
      for i = 0 to trips - 1 do
        let () = Transport.await_value transport pings.(i) in
        Transport.send_value transport ~src:1 ~dst:0 ~bytes:0 pongs.(i) ()
      done);
  Engine.spawn engine 0 (fun () ->
      for i = 0 to trips - 1 do
        Transport.send_value transport ~src:0 ~dst:1 ~bytes:0 pings.(i) ();
        Transport.await_value transport pongs.(i)
      done;
      t1 := Engine.now engine);
  Engine.run engine;
  Vtime.to_us !t1 /. float_of_int trips

(* Request and reply both delivered through SIGIO handlers: 670 us. *)
let handler_roundtrip () =
  let engine = Engine.create ~nprocs:2 in
  let transport =
    Transport.create ~engine ~params:Tmk_net.Params.atm_aal34 ~prng:(Tmk_util.Prng.create 5L) ()
  in
  let t1 = ref Vtime.zero in
  Engine.spawn engine 1 (fun () -> ());
  Engine.spawn engine 0 (fun () ->
      let done_ = Engine.Ivar.create () in
      Transport.send transport ~src:0 ~dst:1 ~bytes:0 ~deliver:(fun h ->
          Transport.hsend transport h ~dst:0 ~bytes:0 ~deliver:(fun h2 ->
              Engine.fill engine done_ ~at:(Engine.hnow h2) ()));
      Engine.await done_;
      t1 := Engine.now engine);
  Engine.run engine;
  Vtime.to_us !t1

let roundtrip_ns ~nprocs =
  let trips = 20_000 in
  host_ns ~ops:trips (fun () -> ignore (roundtrip ~nprocs ~trips))

(* ---- protocol ---- *)

(* Processors 0 and 1 take lock 1 in turn, so every acquire fetches the
   token from the other: [2 * rounds] remote acquires. *)
let lock_pingpong cfg ~rounds =
  let cluster = Protocol.create cfg in
  let engine = Protocol.engine cluster in
  let turn pid () =
    if pid = 1 then Engine.advance Category.Computation (Vtime.us 2500);
    for _ = 1 to rounds do
      Protocol.acquire cluster ~pid ~lock:1;
      Protocol.release cluster ~pid ~lock:1;
      Engine.advance Category.Computation (Vtime.ms 5)
    done
  in
  Engine.spawn engine 0 (turn 0);
  Engine.spawn engine 1 (turn 1);
  spawn_idle engine ~from:2 ~nprocs:cfg.Config.nprocs;
  fun () -> Engine.run engine

let acquire_ns cfg =
  let rounds = 2_000 in
  host_ns_each ~ops:(2 * rounds) (fun () -> lock_pingpong cfg ~rounds)

(* One acquire of lock 1 by processor 0: with [forwarded], processor 2
   held it last, so its manager (processor 1) forwards the request. *)
let acquire_sim_us ~forwarded =
  let nprocs = if forwarded then 3 else 2 in
  let cluster = Protocol.create { Config.default with Config.nprocs; pages = 4; seed = 5L } in
  let engine = Protocol.engine cluster in
  let t0 = ref Vtime.zero and t1 = ref Vtime.zero in
  Engine.spawn engine 1 (fun () -> ());
  if forwarded then
    Engine.spawn engine 2 (fun () ->
        Protocol.acquire cluster ~pid:2 ~lock:1;
        Protocol.release cluster ~pid:2 ~lock:1);
  Engine.spawn engine 0 (fun () ->
      if forwarded then Engine.advance Category.Computation (Vtime.ms 20);
      t0 := Engine.now engine;
      Protocol.acquire cluster ~pid:0 ~lock:1;
      t1 := Engine.now engine);
  Engine.run engine;
  Vtime.to_us (Vtime.sub !t1 !t0)

(* A runner for [rounds] barriers on every processor; it returns the
   simulated time of the last crossing divided by [rounds]. *)
let barriers cfg ~rounds =
  let cluster = Protocol.create cfg in
  let engine = Protocol.engine cluster in
  let nprocs = cfg.Config.nprocs in
  let finish = Array.make nprocs Vtime.zero in
  for p = 0 to nprocs - 1 do
    Engine.spawn engine p (fun () ->
        for _ = 1 to rounds do
          Protocol.barrier cluster ~pid:p ~id:0
        done;
        finish.(p) <- Engine.now engine)
  done;
  fun () ->
    Engine.run engine;
    Vtime.to_us (Array.fold_left Vtime.max Vtime.zero finish) /. float_of_int rounds

let barrier_ns cfg =
  let rounds = max 4 (4_000 / cfg.Config.nprocs) in
  host_ns_each ~ops:rounds (fun () -> barriers cfg ~rounds)

(* ---- backend ---- *)

let vt_merge_ns ~nprocs =
  let ops = 200_000 in
  let src = Vector_time.create nprocs and dst = Vector_time.create nprocs in
  for p = 0 to nprocs - 1 do
    Vector_time.set src p (p * 3)
  done;
  host_ns ~ops (fun () ->
      for _ = 1 to ops do
        Vector_time.max_into ~src ~dst
      done)

(* ---- vm ---- *)

(* Fast-path typed accesses on a resident read-write page. *)
let access_ns ~pages =
  let ops = 1_000_000 in
  let vm = Vm.create ~pages () in
  let limit = Vm.size_bytes vm - 8 in
  host_ns ~ops (fun () ->
      for i = 1 to ops / 2 do
        let addr = i * 8 mod limit in
        Vm.write_int vm addr i;
        ignore (Vm.read_int vm addr)
      done)

(* A runner in which processor 1 reads [faults] pages it has never
   cached: each read is a remote page fault served by the protocol (2792
   us for one page).  It returns the simulated µs per fault. *)
let page_faults cfg ~faults =
  let cluster = Protocol.create { cfg with Config.pages = max faults cfg.Config.pages } in
  let engine = Protocol.engine cluster in
  let vm = (Protocol.node cluster 1).Node.vm in
  let t0 = ref Vtime.zero and t1 = ref Vtime.zero in
  Engine.spawn engine 0 (fun () -> ());
  Engine.spawn engine 1 (fun () ->
      t0 := Engine.now engine;
      for page = 0 to faults - 1 do
        ignore (Vm.read_int vm (Vm.addr_of_page page))
      done;
      t1 := Engine.now engine);
  spawn_idle engine ~from:2 ~nprocs:cfg.Config.nprocs;
  fun () ->
    Engine.run engine;
    Vtime.to_us (Vtime.sub !t1 !t0) /. float_of_int faults

let fault_ns cfg =
  let faults = 64 in
  host_ns_each ~ops:faults (fun () -> page_faults cfg ~faults)

(* ---- diff ---- *)

(* A page whose diff against an all-zero twin encodes to at least
   [target] bytes: 8-byte words changed in 64 slots spread over the page,
   slot by slot, the first word of every slot before any second word. *)
let diff_fixture ~target =
  let vm = Vm.create ~pages:1 () in
  let twin = Vm.page_snapshot vm 0 in
  let rec fill k =
    if k < Vm.page_size / 8 then begin
      let word = k / 64 and slot = k mod 64 in
      Vm.write_int vm ((slot * 64) + (word * 8)) (k + 1);
      if Tmk_util.Rle.encoded_size (Vm.diff_against vm 0 ~twin) < target then fill (k + 1)
    end
  in
  fill 0;
  (vm, twin)

let encode_ns ~target =
  let vm, twin = diff_fixture ~target in
  let ops = 20_000 in
  host_ns ~ops (fun () ->
      for _ = 1 to ops do
        ignore (Vm.diff_against vm 0 ~twin)
      done)

let apply_ns ~target =
  let vm, twin = diff_fixture ~target in
  let diff = Vm.diff_against vm 0 ~twin in
  let peer = Vm.create ~pages:1 () in
  let ops = 50_000 in
  host_ns ~ops (fun () ->
      for _ = 1 to ops do
        Vm.patch peer 0 diff
      done)

(* ---- calibration ---- *)

(* The six §4.2 basic operations, simulated by the loops above on the
   paper's shapes (LRC, ATM/AAL3/4, flat), against the published µs. *)
let calibration () =
  let paper_cfg nprocs = { Config.default with Config.nprocs; pages = 4; seed = 5L } in
  [
    ("round trip, blocked receive", 500.0, roundtrip ~nprocs:2 ~trips:1);
    ("round trip, handlers", 670.0, handler_roundtrip ());
    ("lock acquire, direct", 827.0, acquire_sim_us ~forwarded:false);
    ("lock acquire, forwarded", 1149.0, acquire_sim_us ~forwarded:true);
    ("barrier, 8 processors", 2186.0, barriers (paper_cfg 8) ~rounds:1 ());
    ("remote page fault", 2792.0, page_faults (paper_cfg 2) ~faults:1 ());
  ]

let calib_err_pct rows =
  let errs = List.map (fun (_, paper, sim) -> Float.abs (sim -. paper) /. paper) rows in
  100.0 *. List.fold_left ( +. ) 0.0 errs /. float_of_int (List.length errs)
