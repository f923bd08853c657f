(* Crash-stop failures: failure detection, metadata failover, recovery.

   A processor named in the crash schedule goes silent mid-run; the
   survivors must either complete deterministically (lock tokens
   regenerated, barriers re-counted against the live membership, diffs
   recovered from the backup peer under [Config.diff_backup]) or raise
   the typed [Api.Degraded] when the dead processor held state nobody
   else can reproduce. *)

open Tmk_sim
open Tmk_net
open Tmk_dsm

let check = Alcotest.check

let crash pid ms = Fault_plan.with_crash Fault_plan.none ~pid ~at:(Vtime.ms ms)

let cfg ?(faults = Fault_plan.none) ?(diff_backup = false) ~nprocs ~pages () =
  { Config.default with Config.nprocs; pages; faults; diff_backup; seed = 3L }

(* A compute span long enough that the processor is guaranteed to still
   be running at its planned crash instant. *)
let forever ctx = Api.compute_ns ctx 10_000_000_000

(* The deaths a traced run declared, as (dead pid, membership epoch after
   the death), in detection order. *)
let failovers sink =
  let seen = ref [] in
  Tmk_trace.Sink.iter
    (function
      | { Tmk_trace.Sink.r_ev = Tmk_trace.Event.Failover { dead; epoch }; _ } ->
        seen := (dead, epoch) :: !seen
      | _ -> ())
    sink;
  List.rev !seen

(* ------------------------------------------------------------------ *)
(* Lock failover                                                       *)

let crash_while_holding_lock () =
  (* Processor 2 takes lock 2 — which it also manages — and dies holding
     it.  Recovery must migrate managership, regenerate the token, and
     re-inject the survivors' queued requests: each of them still gets
     its critical section exactly once. *)
  let total = ref (-1) in
  let sink = Tmk_trace.Sink.create () in
  let r =
    Api.run
      { (cfg ~faults:(crash 2 10) ~nprocs:4 ~pages:4 ()) with Config.trace = Some sink }
      (fun ctx ->
        let counter = Api.ialloc ctx 1 in
        if Api.pid ctx = 2 then begin
          Api.acquire ctx 2;
          forever ctx
        end
        else begin
          (* let processor 2 win the token first *)
          Api.compute_ns ctx 20_000_000;
          Api.with_lock ctx 2 (fun () ->
              Api.iset ctx counter 0 (Api.iget ctx counter 0 + 1));
          Api.barrier ctx 0;
          if Api.pid ctx = 0 then total := Api.iget ctx counter 0
        end)
  in
  check Alcotest.int "every survivor incremented once" 3 !total;
  check
    Alcotest.(list (pair int int))
    "processor 2 declared dead, membership epoch bumped" [ (2, 1) ] (failovers sink);
  match r.Api.recoveries with
  | [ rc ] ->
    check Alcotest.int "dead pid" 2 rc.Protocol.rc_pid;
    check Alcotest.int "epoch" 1 rc.Protocol.rc_epoch;
    check Alcotest.bool "lock re-homed" true (rc.Protocol.rc_locks_rehomed >= 1);
    check Alcotest.bool "detected strictly after the crash" true
      (rc.Protocol.rc_detected_at > rc.Protocol.rc_crash_at)
  | other -> Alcotest.failf "expected one recovery, got %d" (List.length other)

(* ------------------------------------------------------------------ *)
(* Barrier failover                                                    *)

let crash_before_barrier_arrival () =
  (* Processor 3 dies without ever arriving; the barrier must complete
     for the survivors once the death is detected. *)
  let crossed = ref 0 in
  let r =
    Api.run
      (cfg ~faults:(crash 3 5) ~nprocs:4 ~pages:4 ())
      (fun ctx ->
        if Api.pid ctx = 3 then forever ctx
        else begin
          Api.barrier ctx 0;
          incr crossed
        end)
  in
  check Alcotest.int "survivors crossed" 3 !crossed;
  check Alcotest.int "one recovery" 1 (List.length r.Api.recoveries)

let crash_mid_barrier_after_arrival () =
  (* Processor 1 arrives at barrier 0 and dies waiting for the release;
     the others arrive later.  The manager must release the survivors
     (the dead arriver gets none) and the next barrier must complete
     against the live membership. *)
  let crossed = ref 0 in
  let r =
    Api.run
      (cfg ~faults:(crash 1 10) ~nprocs:4 ~pages:4 ())
      (fun ctx ->
        if Api.pid ctx <> 1 then Api.compute_ns ctx 30_000_000;
        Api.barrier ctx 0;
        if Api.pid ctx = 1 then forever ctx
        else begin
          Api.barrier ctx 1;
          incr crossed
        end)
  in
  check Alcotest.int "survivors crossed both barriers" 3 !crossed;
  check Alcotest.int "one recovery" 1 (List.length r.Api.recoveries)

let barrier_manager_crash_degrades () =
  (* Processor 0 is the barrier manager and holds every initial page:
     its loss is unrecoverable and must surface as the typed Degraded,
     not a hang or an untyped exception. *)
  match
    Api.run
      (cfg ~faults:(crash 0 5) ~nprocs:4 ~pages:4 ())
      (fun ctx ->
        if Api.pid ctx = 0 then forever ctx
        else begin
          Api.compute_ns ctx 1_000_000;
          Api.barrier ctx 0
        end)
  with
  | _ -> Alcotest.fail "expected Api.Degraded"
  | exception Api.Degraded { pid; reason = _ } ->
    check Alcotest.int "processor 0 named" 0 pid

(* ------------------------------------------------------------------ *)
(* GC failover                                                         *)

let gc_victim = 3
let gc_rounds = 6

(* Every round each processor computes for 5 ms, writes a word of its own
   page and meets a barrier; a record threshold of 4 makes several
   barriers collect.  The survivors never read the victim's page, so
   processor 0 must end up seeing every survivor's last value whether or
   not the victim dies.  The compute lets the manager finish discarding
   before anyone arrives at the next barrier: GC still drops intervals
   that the manager absorbs between replying to a child and discarding,
   and a run without it trips the barrier-release timestamp assertion. *)
let run_gc_scenario ?trace ~crash_at () =
  let seen = Array.make 4 (-1) in
  let r =
    Api.run ?trace
      {
        (cfg
           ~faults:(Fault_plan.with_crash Fault_plan.none ~pid:gc_victim ~at:crash_at)
           ~nprocs:4 ~pages:8 ())
        with
        Config.gc_threshold = 4;
      }
      (fun ctx ->
        let pid = Api.pid ctx in
        let words = Tmk_mem.Vm.page_size / 8 in
        let slots = Api.ialloc ~align:Tmk_mem.Vm.page_size ctx (4 * words) in
        for round = 1 to gc_rounds do
          Api.compute_ns ctx 5_000_000;
          Api.iset ctx slots (pid * words) ((100 * pid) + round);
          Api.barrier ctx round
        done;
        if pid = 0 then
          for q = 0 to 3 do
            if q <> gc_victim then seen.(q) <- Api.iget ctx slots (q * words)
          done)
  in
  (r, seen)

let crash_inside_gc_exchange () =
  (* A crash planned far past the end arms the heartbeat, so this run
     keeps the crash run's timing up to the crash instant; it tells when
     the victim enters its first collection. *)
  let sink = Tmk_trace.Sink.create () in
  ignore (run_gc_scenario ~trace:sink ~crash_at:(Vtime.s 1000) ());
  let gc_begin = ref None in
  Tmk_trace.Sink.iter
    (fun rec_ ->
      match rec_.Tmk_trace.Sink.r_ev with
      | Tmk_trace.Event.Gc_begin _ when rec_.r_pid = gc_victim && !gc_begin = None ->
        gc_begin := Some rec_.r_time
      | _ -> ())
    sink;
  let gc_begin =
    match !gc_begin with Some t -> t | None -> Alcotest.fail "the victim never collected"
  in
  (* The victim dies just after entering the collection, before its keep
     bitmap goes out: the survivors' exchange completes only once the
     death is detected and the round re-counted without it. *)
  let crash_at = Vtime.add gc_begin (Vtime.us 1) in
  let fingerprint () =
    let sink = Tmk_trace.Sink.create () in
    let r, seen = run_gc_scenario ~trace:sink ~crash_at () in
    let root_gc_end = ref None in
    Tmk_trace.Sink.iter
      (fun rec_ ->
        match rec_.Tmk_trace.Sink.r_ev with
        | Tmk_trace.Event.Gc_end _
          when rec_.r_pid = 0 && rec_.r_time > crash_at && !root_gc_end = None ->
          root_gc_end := Some rec_.r_time
        | _ -> ())
      sink;
    let root_gc_end = !root_gc_end in
    (r.Api.total_time, r.Api.messages, r.Api.bytes, r.Api.recoveries, seen, root_gc_end)
  in
  let ((_, _, _, recoveries, seen, root_gc_end) as a) = fingerprint () in
  Array.iteri
    (fun q v ->
      if q <> gc_victim then
        check Alcotest.int
          (Printf.sprintf "processor %d's last value" q)
          ((100 * q) + gc_rounds) v)
    seen;
  (match (recoveries, root_gc_end) with
  | [ rc ], Some gc_end ->
    check Alcotest.int "the victim died" gc_victim rc.Protocol.rc_pid;
    check Alcotest.bool "the manager's collection waited for the detection" true
      (gc_end >= rc.Protocol.rc_detected_at)
  | [ _ ], None -> Alcotest.fail "the manager never finished the interrupted collection"
  | other, _ -> Alcotest.failf "expected one recovery, got %d" (List.length other));
  check Alcotest.bool "byte-identical re-run" true (a = fingerprint ())

(* ------------------------------------------------------------------ *)
(* Diff availability                                                   *)

(* Processor 2 writes shared data under a lock, releases, meets a
   barrier (so its write notice reaches everyone), then dies before any
   survivor has fetched the diff.  Processor 1 then reads the data. *)
let run_dead_diff_scenario ~diff_backup =
  let seen = ref nan in
  match
    Api.run
      (cfg ~faults:(crash 2 20) ~diff_backup ~nprocs:4 ~pages:8 ())
      (fun ctx ->
        let a = Api.falloc ctx 64 in
        Api.barrier ctx 0;
        if Api.pid ctx = 2 then begin
          Api.with_lock ctx 1 (fun () -> Api.fset ctx a 0 42.0);
          Api.barrier ctx 1;
          forever ctx
        end
        else begin
          Api.barrier ctx 1;
          Api.compute_ns ctx 100_000_000;
          if Api.pid ctx = 1 then seen := Api.fget ctx a 0;
          Api.barrier ctx 2
        end)
  with
  | r -> Ok (r, !seen)
  | exception Api.Degraded { pid; reason } -> Error (pid, reason)

let dead_diff_recovered_from_backup () =
  match run_dead_diff_scenario ~diff_backup:true with
  | Error (pid, reason) -> Alcotest.failf "degraded (p%d: %s) despite the backup" pid reason
  | Ok (r, seen) ->
    check (Alcotest.float 0.0) "the dead processor's released write survives" 42.0 seen;
    check Alcotest.bool "diffs were mirrored" true
      (r.Api.total_stats.Stats.diff_backups > 0);
    (match r.Api.recoveries with
    | [ rc ] -> check Alcotest.bool "in-flight fetch re-issued" true (rc.Protocol.rc_retries >= 1)
    | other -> Alcotest.failf "expected one recovery, got %d" (List.length other))

let dead_diff_without_backup_degrades () =
  (* Lazy diffing and no mirror: the modification is unrecoverable. *)
  match run_dead_diff_scenario ~diff_backup:false with
  | Ok _ -> Alcotest.fail "expected Api.Degraded: the only diff copy died"
  | Error (_, reason) ->
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
      at 0
    in
    check Alcotest.bool "reason names the lost diff" true
      (contains reason "died with the crash")

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)

let recovery_is_deterministic () =
  (* Two runs of the same seeded crash scenario must agree exactly:
     timing, traffic, and every field of the recovery record. *)
  let fingerprint () =
    match run_dead_diff_scenario ~diff_backup:true with
    | Error (pid, reason) -> Alcotest.failf "degraded (p%d: %s)" pid reason
    | Ok (r, seen) ->
      ( r.Api.total_time,
        r.Api.messages,
        r.Api.bytes,
        r.Api.retransmissions,
        r.Api.recoveries,
        seen )
  in
  let a = fingerprint () and b = fingerprint () in
  check Alcotest.bool "byte-identical re-run" true (a = b)

(* ------------------------------------------------------------------ *)
(* Provider selection                                                  *)

let page_fetches_spread_over_copyset () =
  (* Garbage collection teaches every node the full copyset of a warm
     page (the keep-bitmap exchange).  Cold fetches after that must hash
     over the members instead of hammering the lowest pid: different
     faulting processors pick different providers. *)
  let sink = Tmk_trace.Sink.create () in
  let page = ref (-1) in
  ignore
    (Api.run ~trace:sink
       { (cfg ~nprocs:8 ~pages:8 ()) with Config.gc_threshold = 1 }
       (fun ctx ->
         let addr = Api.malloc ~align:Tmk_mem.Vm.page_size ctx ~bytes:Tmk_mem.Vm.page_size in
         page := addr / Tmk_mem.Vm.page_size;
         Api.barrier ctx 0;
         (* processors 0-3 each write a disjoint word: four concurrent
            writers, so at GC every one of them validates its modified
            copy and the keep-bitmaps announce copyset {0,1,2,3} to all *)
         if Api.pid ctx <= 3 then
           Api.write_f64 ctx (addr + (512 * Api.pid ctx)) (float_of_int (Api.pid ctx));
         Api.barrier ctx 1;
         (* the GC threshold of 1 forces collection here *)
         Api.barrier ctx 2;
         if Api.pid ctx >= 4 then ignore (Api.read_f64 ctx addr);
         Api.barrier ctx 3));
  let providers = Hashtbl.create 8 in
  let fetches = ref 0 in
  Tmk_trace.Sink.iter
    (fun rec_ ->
      match rec_.Tmk_trace.Sink.r_ev with
      | Tmk_trace.Event.Page_fetch { page = p; from_ } when p = !page && rec_.r_pid >= 4 ->
        incr fetches;
        Hashtbl.replace providers from_ ()
      | _ -> ())
    sink;
  check Alcotest.int "all four cold processors fetched" 4 !fetches;
  check Alcotest.bool "load spread beyond processor 0" true (Hashtbl.length providers >= 3);
  Hashtbl.iter
    (fun from_ () ->
      check Alcotest.bool "provider from the warmed copyset" true (from_ >= 0 && from_ <= 3))
    providers

(* With every processor dead no survivor can detect the crashes, so the
   failure detector would poll forever: the schedule is refused before
   a run starts.  One survivor is enough. *)
let every_processor_crashing () =
  let refused what cfg =
    Alcotest.check_raises what
      (Invalid_argument "Config: the crash schedule names every processor") (fun () ->
        Config.validate cfg)
  in
  refused "1 of 1" (cfg ~faults:(crash 0 0) ~nprocs:1 ~pages:1 ());
  let both = Fault_plan.with_crash (crash 0 0) ~pid:1 ~at:(Vtime.ms 0) in
  refused "2 of 2" (cfg ~faults:both ~nprocs:2 ~pages:1 ());
  Config.validate (cfg ~faults:both ~nprocs:3 ~pages:1 ())

let suite =
  [
    Alcotest.test_case "crash while holding a lock" `Quick crash_while_holding_lock;
    Alcotest.test_case "crash before barrier arrival" `Quick crash_before_barrier_arrival;
    Alcotest.test_case "crash mid-barrier after arrival" `Quick
      crash_mid_barrier_after_arrival;
    Alcotest.test_case "barrier manager crash degrades" `Quick
      barrier_manager_crash_degrades;
    Alcotest.test_case "dead diff recovered from backup" `Quick
      dead_diff_recovered_from_backup;
    Alcotest.test_case "dead diff without backup degrades" `Quick
      dead_diff_without_backup_degrades;
    Alcotest.test_case "recovery is deterministic" `Quick recovery_is_deterministic;
    Alcotest.test_case "page fetches spread over the copyset" `Quick
      page_fetches_spread_over_copyset;
    Alcotest.test_case "crash inside the GC exchange" `Quick crash_inside_gc_exchange;
    Alcotest.test_case "a crash of every processor is rejected" `Quick every_processor_crashing;
  ]
