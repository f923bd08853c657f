(* Fault injection and recovery: the deterministic fault plans, the
   reliability protocol's backoff/retry budget/dedup-table hygiene, and
   the end-to-end robustness criterion — every application computes
   bit-identical DSM results whatever the (seeded) medium does to the
   frames. *)

open Tmk_sim
open Tmk_net
open Tmk_dsm
open Tmk_apps

let check = Alcotest.check

let lossy rate = Fault_plan.with_loss Fault_plan.none rate

let cfg ?(faults = Fault_plan.none) ~nprocs ~pages () =
  { Config.default with Config.nprocs; pages; faults; seed = 3L }

(* ------------------------------------------------------------------ *)
(* Fault_plan unit behaviour                                           *)

let plan_validation () =
  Alcotest.check_raises "loss out of range"
    (Invalid_argument "Fault_plan: loss rate 1.5 not in [0,1)") (fun () ->
      ignore (Fault_plan.with_loss Fault_plan.none 1.5));
  Alcotest.check_raises "dup out of range"
    (Invalid_argument "Fault_plan: duplication rate -0.1 not in [0,1)") (fun () ->
      ignore (Fault_plan.with_dup Fault_plan.none (-0.1)));
  check Alcotest.bool "none is not faulty" false (Fault_plan.is_faulty Fault_plan.none);
  check Alcotest.bool "loss is faulty" true (Fault_plan.is_faulty (lossy 0.1));
  let stall_only =
    Fault_plan.with_stall Fault_plan.none ~pid:1 ~start:Vtime.zero ~len:(Vtime.ms 1)
  in
  check Alcotest.bool "stalls alone are not faulty" false (Fault_plan.is_faulty stall_only)

let plan_stall_until () =
  let p =
    Fault_plan.with_stall
      (Fault_plan.with_stall Fault_plan.none ~pid:1 ~start:(Vtime.us 100) ~len:(Vtime.us 50))
      ~pid:1 ~start:(Vtime.us 150) ~len:(Vtime.us 50)
  in
  check Alcotest.int "before window" (Vtime.us 90)
    (Fault_plan.stall_until p ~pid:1 ~at:(Vtime.us 90));
  (* abutting windows chain to the end of the second *)
  check Alcotest.int "inside chains" (Vtime.us 200)
    (Fault_plan.stall_until p ~pid:1 ~at:(Vtime.us 120));
  check Alcotest.int "other pid unaffected" (Vtime.us 120)
    (Fault_plan.stall_until p ~pid:0 ~at:(Vtime.us 120))

let plan_parse_stalls () =
  (match Fault_plan.parse_stalls "1@2000+500, 3@0+10000" with
  | [ a; b ] ->
    check Alcotest.int "pid" 1 a.Fault_plan.st_pid;
    check Alcotest.int "start" (Vtime.us 2000) a.Fault_plan.st_start;
    check Alcotest.int "len" (Vtime.us 500) a.Fault_plan.st_len;
    check Alcotest.int "pid b" 3 b.Fault_plan.st_pid
  | other -> Alcotest.failf "expected 2 windows, got %d" (List.length other));
  check Alcotest.int "empty spec" 0 (List.length (Fault_plan.parse_stalls ""));
  Alcotest.check_raises "malformed"
    (Invalid_argument "Fault_plan.parse_stalls: \"nonsense\" is not pid@start_us+len_us")
    (fun () -> ignore (Fault_plan.parse_stalls "nonsense"))

let backoff_schedule () =
  let p = Params.atm_aal34 in
  check Alcotest.int "first timer is the base timeout" p.Params.retransmit_timeout
    (Params.retransmit_delay p ~attempt:1);
  check Alcotest.int "doubles" (Vtime.scale p.Params.retransmit_timeout 2)
    (Params.retransmit_delay p ~attempt:2);
  check Alcotest.int "caps" p.Params.retransmit_backoff_cap
    (Params.retransmit_delay p ~attempt:50);
  check Alcotest.bool "monotone" true
    (Params.retransmit_delay p ~attempt:3 >= Params.retransmit_delay p ~attempt:2)

(* ------------------------------------------------------------------ *)
(* Transport under faults                                              *)

let make ?plan ?(nprocs = 2) ?(seed = 1L) () =
  let engine = Engine.create ~nprocs in
  let prng = Tmk_util.Prng.create seed in
  let transport = Transport.create ?plan ~engine ~params:Params.atm_aal34 ~prng () in
  (engine, transport)

let dedup_table_drains () =
  (* After a lossy run quiesces, every message has been acked and its
     copies accounted for: the duplicate-suppression table must be empty
     (it must not grow with run length), and so must the event queue. *)
  let engine, tr = make ~plan:(lossy 0.3) ~seed:7L () in
  let served = ref 0 in
  Engine.spawn engine 1 (fun () -> ());
  Engine.spawn engine 0 (fun () ->
      for _ = 1 to 50 do
        ignore (Test_net.rpc tr ~src:0 ~dst:1 ~bytes:32 ~serve:(fun _ -> incr served; (32, ())))
      done);
  Engine.run engine;
  check Alcotest.int "served exactly once each" 50 !served;
  check Alcotest.bool "retransmissions happened" true (Transport.retransmissions tr > 0);
  check Alcotest.int "dedup table empty" 0 (Transport.dedup_entries tr);
  check Alcotest.int "event queue empty" 0 (Engine.pending_events engine)

let duplication_suppressed () =
  let plan = Fault_plan.with_dup Fault_plan.none 0.5 in
  let engine, tr = make ~plan ~seed:5L () in
  let delivered = ref 0 in
  Engine.spawn engine 1 (fun () -> ());
  Engine.spawn engine 0 (fun () ->
      for _ = 1 to 30 do
        Transport.send tr ~src:0 ~dst:1 ~bytes:16 ~deliver:(fun _ -> incr delivered)
      done);
  Engine.run engine;
  check Alcotest.bool "medium injected copies" true
    (List.exists (fun m -> m.Transport.mix_dups > 0) (Transport.message_mix tr));
  check Alcotest.int "each delivered exactly once" 30 !delivered;
  check Alcotest.int "dedup table empty" 0 (Transport.dedup_entries tr)

let reordering_is_exactly_once () =
  let plan = Fault_plan.with_reorder ~window:(Vtime.us 500) Fault_plan.none 0.9 in
  let engine, tr = make ~plan ~seed:5L () in
  let got = ref [] in
  Engine.spawn engine 1 (fun () -> ());
  Engine.spawn engine 0 (fun () ->
      for i = 1 to 20 do
        Transport.send tr ~src:0 ~dst:1 ~bytes:16 ~deliver:(fun _ -> got := i :: !got);
        Engine.advance Tmk_sim.Category.Computation (Vtime.us 20)
      done);
  Engine.run engine;
  check Alcotest.int "all delivered" 20 (List.length !got);
  check
    Alcotest.(list int)
    "each exactly once"
    (List.init 20 (fun i -> i + 1))
    (List.sort compare !got)

let stalls_delay_delivery () =
  (* A frame arriving during the receiver's stall window is served only
     once the window ends; no reliability machinery engages. *)
  let plan =
    Fault_plan.with_stall Fault_plan.none ~pid:1 ~start:Vtime.zero ~len:(Vtime.ms 5)
  in
  let engine, tr = make ~plan () in
  let at = ref Vtime.zero in
  Engine.spawn engine 1 (fun () -> ());
  Engine.spawn engine 0 (fun () ->
      Transport.send tr ~src:0 ~dst:1 ~bytes:16 ~deliver:(fun h -> at := Engine.hnow h));
  Engine.run engine;
  check Alcotest.bool "served after the window" true (!at >= Vtime.ms 5);
  check Alcotest.int "no retransmissions" 0 (Transport.retransmissions tr);
  check Alcotest.int "no acks" 1 (Transport.messages_sent tr)

let unreachable_peer_suspected () =
  (* A permanently partitioned peer must surface as a suspicion once the
     retry budget is exhausted — not hang, and not abort the run with an
     exception from inside a timer callback.  Without an on_suspect
     consumer the run stops cleanly, stats intact. *)
  let plan = Fault_plan.with_unreachable Fault_plan.none 1 in
  let engine, tr = make ~plan () in
  let sink = Tmk_trace.Sink.create () in
  Engine.set_sink engine sink;
  Engine.spawn engine 1 (fun () -> ());
  Engine.spawn engine 0 (fun () ->
      ignore (Test_net.rpc tr ~src:0 ~dst:1 ~bytes:8 ~serve:(fun _ -> (8, ()))));
  Engine.run engine;
  let suspicions = ref 0 in
  Tmk_trace.Sink.iter
    (function
      | { Tmk_trace.Sink.r_ev = Tmk_trace.Event.Peer_suspect _; _ } -> incr suspicions
      | _ -> ())
    sink;
  check Alcotest.int "one suspicion" 1 !suspicions;
  check Alcotest.bool "run stopped cleanly" true (Engine.stop_reason engine <> None);
  check Alcotest.bool "stats survived" true (Transport.messages_sent tr > 0)

let suspicion_reaches_callback () =
  (* With a registered failure detector the transport reports the stuck
     peer instead of terminating; the callback sees src/dst/attempts. *)
  let plan = Fault_plan.with_unreachable Fault_plan.none 1 in
  let engine, tr = make ~plan () in
  let seen = ref None in
  Transport.on_suspect tr (fun ~src ~dst ~label:_ ~attempts ->
      if !seen = None then seen := Some (src, dst, attempts));
  Engine.spawn engine 1 (fun () -> ());
  Engine.spawn engine 0 (fun () ->
      Transport.send tr ~src:0 ~dst:1 ~bytes:8 ~deliver:(fun _ -> ()));
  Engine.run engine;
  match !seen with
  | None -> Alcotest.fail "expected the suspicion callback to fire"
  | Some (src, dst, attempts) ->
    check Alcotest.int "src" 0 src;
    check Alcotest.int "dst" 1 dst;
    check Alcotest.int "attempts capped at the budget"
      Params.atm_aal34.Params.max_retransmits attempts;
    check Alcotest.bool "callback keeps the run alive" true
      (Engine.stop_reason engine = None)

let transport_runs_are_deterministic () =
  let run () =
    let engine, tr = make ~plan:(lossy 0.2) ~seed:11L () in
    Engine.spawn engine 1 (fun () -> ());
    Engine.spawn engine 0 (fun () ->
        for _ = 1 to 25 do
          ignore (Test_net.rpc tr ~src:0 ~dst:1 ~bytes:64 ~serve:(fun _ -> (64, ())))
        done);
    Engine.run engine;
    (Engine.end_time engine, Transport.messages_sent tr, Transport.retransmissions tr)
  in
  let a = run () and b = run () in
  check Alcotest.bool "same seed+plan reproduces the run exactly" true (a = b)

(* ------------------------------------------------------------------ *)
(* End-to-end: applications under faults                               *)

(* Each application run under a fault plan must produce exactly the
   result of the fault-free run with the same seed — the §3.7 reliability
   layer makes the medium's misbehaviour invisible to the DSM. *)

let run_jacobi faults =
  let p = { Jacobi.default with Jacobi.rows = 40; cols = 32; iters = 6 } in
  let out = ref None in
  let r =
    Api.run
      (cfg ~faults ~nprocs:4 ~pages:(Jacobi.pages_needed p) ())
      (fun ctx -> match Jacobi.parallel ctx p with Some g -> out := Some g | None -> ())
  in
  (Option.get !out, r)

let run_tsp faults =
  let p = { Tsp.default with Tsp.ncities = 9; prefix_depth = 3 } in
  let out = ref None in
  let r =
    Api.run
      (cfg ~faults ~nprocs:4 ~pages:(Tsp.pages_needed p) ())
      (fun ctx -> match Tsp.parallel ctx p with Some x -> out := Some x | None -> ())
  in
  ((Option.get !out).Tsp.best, r)

let run_quicksort faults =
  let p = { Quicksort.default with Quicksort.n = 2048; threshold = 256 } in
  let out = ref None in
  let r =
    Api.run
      (cfg ~faults ~nprocs:4 ~pages:(Quicksort.pages_needed p) ())
      (fun ctx ->
        match Quicksort.parallel ctx p with Some a -> out := Some a | None -> ())
  in
  (Option.get !out, r)

let run_water faults =
  let p = { Water.default with Water.nmol = 27; steps = 2 } in
  let out = ref None in
  let r =
    Api.run
      (cfg ~faults ~nprocs:4 ~pages:(Water.pages_needed p) ())
      (fun ctx -> match Water.parallel ctx p with Some x -> out := Some x | None -> ())
  in
  let w = Option.get !out in
  ((w.Water.energy, w.Water.positions), r)

let run_ilink faults =
  let p = { Ilink.default with Ilink.families = 12; iterations = 3 } in
  let out = ref None in
  let r =
    Api.run
      (cfg ~faults ~nprocs:4 ~pages:(Ilink.pages_needed p) ())
      (fun ctx -> match Ilink.parallel ctx p with Some x -> out := Some x | None -> ())
  in
  let i = Option.get !out in
  ((i.Ilink.log_likelihood, i.Ilink.theta), r)

let app_result_immune_to_loss (type a) name (run : Fault_plan.t -> a * Api.run_result) ()
    =
  let clean, _ = run Fault_plan.none in
  let faulty, r = run (lossy 0.05) in
  if clean <> faulty then Alcotest.failf "%s result changed under 5%% loss" name;
  check Alcotest.bool "retransmissions happened" true (r.Api.retransmissions > 0)

let app_result_immune_to_mixed_faults () =
  (* loss + duplication + reordering + a mid-run stall, all at once *)
  let plan =
    Fault_plan.with_stall
      (Fault_plan.with_reorder ~window:(Vtime.us 300)
         (Fault_plan.with_dup (lossy 0.03) 0.03)
         0.05)
      ~pid:2 ~start:(Vtime.ms 2) ~len:(Vtime.ms 3)
  in
  let clean, _ = run_jacobi Fault_plan.none in
  let faulty, r = run_jacobi plan in
  check Alcotest.bool "grid identical" true (clean = faulty);
  check Alcotest.bool "retransmissions happened" true (r.Api.retransmissions > 0)

let dsm_run_deterministic_under_loss () =
  let _, a = run_water (lossy 0.1) in
  let _, b = run_water (lossy 0.1) in
  check Alcotest.int "same end time" a.Api.total_time b.Api.total_time;
  check Alcotest.int "same messages" a.Api.messages b.Api.messages;
  check Alcotest.int "same retransmissions" a.Api.retransmissions b.Api.retransmissions

let dsm_dedup_drains_after_lossy_run () =
  let _, r = run_jacobi (lossy 0.1) in
  let tr = Protocol.transport r.Api.cluster in
  check Alcotest.int "dedup table empty at end" 0 (Transport.dedup_entries tr);
  check Alcotest.int "event queue empty at end" 0
    (Engine.pending_events (Protocol.engine r.Api.cluster))

let suite =
  [
    Alcotest.test_case "plan validation" `Quick plan_validation;
    Alcotest.test_case "stall_until chains windows" `Quick plan_stall_until;
    Alcotest.test_case "parse_stalls" `Quick plan_parse_stalls;
    Alcotest.test_case "backoff doubles to a cap" `Quick backoff_schedule;
    Alcotest.test_case "dedup table drains" `Quick dedup_table_drains;
    Alcotest.test_case "duplication suppressed" `Quick duplication_suppressed;
    Alcotest.test_case "reordering exactly once" `Quick reordering_is_exactly_once;
    Alcotest.test_case "stalls delay delivery" `Quick stalls_delay_delivery;
    Alcotest.test_case "unreachable peer suspected" `Quick unreachable_peer_suspected;
    Alcotest.test_case "suspicion reaches callback" `Quick suspicion_reaches_callback;
    Alcotest.test_case "transport deterministic" `Quick transport_runs_are_deterministic;
    Alcotest.test_case "jacobi immune to loss" `Quick
      (app_result_immune_to_loss "jacobi" run_jacobi);
    Alcotest.test_case "tsp immune to loss" `Quick
      (app_result_immune_to_loss "tsp" run_tsp);
    Alcotest.test_case "quicksort immune to loss" `Quick
      (app_result_immune_to_loss "quicksort" run_quicksort);
    Alcotest.test_case "water immune to loss" `Quick
      (app_result_immune_to_loss "water" run_water);
    Alcotest.test_case "ilink immune to loss" `Quick
      (app_result_immune_to_loss "ilink" run_ilink);
    Alcotest.test_case "jacobi immune to mixed faults" `Quick
      app_result_immune_to_mixed_faults;
    Alcotest.test_case "lossy dsm runs deterministic" `Quick
      dsm_run_deterministic_under_loss;
    Alcotest.test_case "dsm dedup drains" `Quick dsm_dedup_drains_after_lossy_run;
  ]
