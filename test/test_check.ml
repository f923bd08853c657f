(* Tests of the checking subsystem (lib/check): the happens-before race
   detector and the protocol invariant oracle.  Goldens: the racy fixture
   must be flagged with the exact page/range/kind, the five paper
   applications must come out clean at 8 processors, and findings must be
   byte-identical across same-seed runs including under frame loss. *)

open Tmk_dsm
module Race = Tmk_check.Race
module Hooks = Tmk_check.Hooks
module Oracle = Tmk_check.Oracle
module Checker = Tmk_check.Checker
module Event = Tmk_trace.Event
module Sink = Tmk_trace.Sink

let check = Alcotest.check

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* Run [body] on a cluster with both checkers attached. *)
let checked_run ?(loss = 0.0) ?(seed = 3L) ~nprocs ~pages body =
  let race = Race.create ~nprocs ~pages () in
  let oracle = Oracle.create ~nprocs () in
  let faults =
    if loss > 0.0 then Tmk_net.Fault_plan.(with_loss none loss)
    else Tmk_net.Fault_plan.none
  in
  let cfg =
    {
      Config.default with
      Config.nprocs;
      pages;
      seed;
      faults;
      check = Some (Checker.create ~race ~oracle ());
    }
  in
  let _ = Api.run cfg body in
  (race, oracle)

(* ------------------------------------------------------------------ *)
(* The positive fixture: the racy histogram must be caught, precisely.  *)

(* With the default parameters the 4096 data items fill pages 0..7 and
   the 8 bucket counters share page 8, occupying bytes 0..63. *)
let racey_flags_races () =
  let p = Tmk_apps.Racey.default in
  let race, oracle =
    checked_run ~nprocs:8 ~pages:(Tmk_apps.Racey.pages_needed p) (fun ctx ->
        ignore (Tmk_apps.Racey.parallel ~collect:false ctx p))
  in
  check Alcotest.bool "races found" true (Race.has_findings race);
  let fs = Race.findings race in
  List.iter
    (fun f ->
      check Alcotest.int "on the histogram page" 8 f.Race.f_page;
      check Alcotest.bool "inside the 8 bucket words" true
        (f.Race.f_lo >= 0 && f.Race.f_hi <= 63);
      check Alcotest.bool "two distinct processors" true
        (f.Race.f_first_pid <> f.Race.f_second_pid);
      check Alcotest.bool "sync contexts reported" true
        (f.Race.f_first_ctx <> "" && f.Race.f_second_ctx <> ""))
    fs;
  let ww =
    List.filter
      (fun f -> f.Race.f_first_kind = Race.Write && f.Race.f_second_kind = Race.Write)
      fs
  in
  check Alcotest.bool "write/write conflicts present" true (ww <> []);
  check Alcotest.bool "some conflict spans all eight buckets" true
    (List.exists (fun f -> f.Race.f_lo = 0 && f.Race.f_hi = 63) ww);
  let text = Race.report race in
  List.iter
    (fun affix -> check Alcotest.bool affix true (contains ~affix text))
    [ "Data races"; "W/W"; "ordering fix" ];
  check (Alcotest.list Alcotest.string) "racy programs still obey the protocol" []
    (Oracle.finish oracle)

(* ------------------------------------------------------------------ *)
(* The five applications are data-race-free and protocol-clean.         *)

let app_clean name pages body () =
  let race, oracle = checked_run ~nprocs:8 ~pages body in
  if Race.has_findings race then Alcotest.failf "%s:\n%s" name (Race.report race);
  match Oracle.finish oracle with
  | [] -> ()
  | v :: _ -> Alcotest.failf "%s: %s" name v

let water_params = { Tmk_apps.Water.default with Tmk_apps.Water.nmol = 27; steps = 2 }

let jacobi_params =
  { Tmk_apps.Jacobi.default with Tmk_apps.Jacobi.rows = 40; cols = 32; iters = 6 }

let tsp_params = { Tmk_apps.Tsp.default with Tmk_apps.Tsp.ncities = 9; prefix_depth = 3 }

let qsort_params =
  { Tmk_apps.Quicksort.default with Tmk_apps.Quicksort.n = 2048; threshold = 64 }

let ilink_params =
  { Tmk_apps.Ilink.default with Tmk_apps.Ilink.families = 12; iterations = 3 }

let water_clean =
  app_clean "water"
    (Tmk_apps.Water.pages_needed water_params)
    (fun ctx -> ignore (Tmk_apps.Water.parallel ctx water_params))

let jacobi_clean =
  app_clean "jacobi"
    (Tmk_apps.Jacobi.pages_needed jacobi_params)
    (fun ctx -> ignore (Tmk_apps.Jacobi.parallel ctx jacobi_params))

(* TSP reads the shared bound without the lock by design (§5.2); the
   [Api.unsynchronized] annotation must keep the detector quiet. *)
let tsp_clean =
  app_clean "tsp"
    (Tmk_apps.Tsp.pages_needed tsp_params)
    (fun ctx -> ignore (Tmk_apps.Tsp.parallel ctx tsp_params))

let quicksort_clean =
  app_clean "quicksort"
    (Tmk_apps.Quicksort.pages_needed qsort_params)
    (fun ctx -> ignore (Tmk_apps.Quicksort.parallel ctx qsort_params))

let ilink_clean =
  app_clean "ilink"
    (Tmk_apps.Ilink.pages_needed ilink_params)
    (fun ctx -> ignore (Tmk_apps.Ilink.parallel ctx ilink_params))

(* Only LRC closes and receives intervals.  Under every other backend the
   oracle's vector-time checks (I1-I3) therefore compare all-zero
   knowledge, and they run there unconditionally: a traced Water run
   records no interval event, still makes remote acquires, and the oracle
   reports nothing. *)
let vector_time_checks_hold_without_intervals () =
  List.iter
    (fun protocol ->
      let name = Config.protocol_name protocol in
      let sink = Sink.create () in
      let oracle = Oracle.create ~nprocs:4 () in
      let cfg =
        {
          Config.default with
          Config.nprocs = 4;
          pages = Tmk_apps.Water.pages_needed water_params;
          protocol;
          trace = Some sink;
          check = Some (Checker.create ~oracle ());
        }
      in
      let _ = Api.run cfg (fun ctx -> ignore (Tmk_apps.Water.parallel ctx water_params)) in
      let intervals = ref 0 and remote_acquires = ref 0 in
      Sink.iter
        (fun r ->
          match r.Sink.r_ev with
          | Event.Interval_close _ | Event.Interval_recv _ -> incr intervals
          | Event.Lock_acquired { local = false; _ } -> incr remote_acquires
          | _ -> ())
        sink;
      check Alcotest.int (name ^ ": interval events") 0 !intervals;
      check Alcotest.bool (name ^ ": remote acquires") true (!remote_acquires > 0);
      check (Alcotest.list Alcotest.string) (name ^ ": violations") [] (Oracle.finish oracle))
    [ Config.Erc; Config.Sc; Config.Tardis; Config.Sc_abd ]

(* ------------------------------------------------------------------ *)
(* Determinism: same seed, same fault plan -> byte-identical reports.   *)

let deterministic_under_loss () =
  let p = Tmk_apps.Racey.default in
  let run () =
    let race, oracle =
      checked_run ~loss:0.05 ~nprocs:8
        ~pages:(Tmk_apps.Racey.pages_needed p)
        (fun ctx -> ignore (Tmk_apps.Racey.parallel ~collect:false ctx p))
    in
    (Race.report race, Oracle.report (Oracle.finish oracle))
  in
  let r1, o1 = run () in
  let r2, o2 = run () in
  check Alcotest.string "race report stable under 5% loss" r1 r2;
  check Alcotest.string "oracle report stable under 5% loss" o1 o2;
  check Alcotest.bool "still finds the races" true (contains ~affix:"Data races" r1)

(* ------------------------------------------------------------------ *)
(* Detector units: hand-driven segment histories with known answers,
   through the hooks the protocol calls.                                *)

let lock_ordered_is_clean () =
  let r = Race.create ~nprocs:2 ~pages:4 () in
  let h = Race.hooks r in
  h.Hooks.h_lock_acquired ~pid:0 ~lock:3;
  h.Hooks.h_access ~pid:0 Race.Write ~addr:128 ~width:8;
  h.Hooks.h_lock_release ~pid:0 ~lock:3;
  h.Hooks.h_lock_acquired ~pid:1 ~lock:3;
  h.Hooks.h_access ~pid:1 Race.Write ~addr:128 ~width:8;
  h.Hooks.h_lock_release ~pid:1 ~lock:3;
  check Alcotest.bool "no findings" false (Race.has_findings r)

let barrier_orders () =
  let r = Race.create ~nprocs:2 ~pages:4 () in
  let h = Race.hooks r in
  h.Hooks.h_access ~pid:0 Race.Write ~addr:0 ~width:8;
  h.Hooks.h_barrier_arrive ~pid:0 ~id:7;
  h.Hooks.h_barrier_arrive ~pid:1 ~id:7;
  h.Hooks.h_barrier_depart ~pid:0 ~id:7;
  h.Hooks.h_barrier_depart ~pid:1 ~id:7;
  h.Hooks.h_access ~pid:1 Race.Read ~addr:0 ~width:8;
  check Alcotest.bool "no findings" false (Race.has_findings r)

let unordered_writes_race () =
  let r = Race.create ~nprocs:2 ~pages:4 () in
  let h = Race.hooks r in
  h.Hooks.h_access ~pid:0 Race.Write ~addr:64 ~width:8;
  h.Hooks.h_access ~pid:1 Race.Write ~addr:64 ~width:8;
  match Race.findings r with
  | [ f ] ->
    check Alcotest.int "page" 0 f.Race.f_page;
    check Alcotest.int "lo" 64 f.Race.f_lo;
    check Alcotest.int "hi" 71 f.Race.f_hi;
    check Alcotest.bool "W/W" true
      (f.Race.f_first_kind = Race.Write && f.Race.f_second_kind = Race.Write)
  | other -> Alcotest.failf "expected one finding, got %d" (List.length other)

(* Distinct words never conflict; distinct bytes of one word do (the
   detector's granularity is the 8-byte word, documented in PROTOCOL.md). *)
let word_granularity () =
  let r = Race.create ~nprocs:2 ~pages:1 () in
  let h = Race.hooks r in
  h.Hooks.h_access ~pid:0 Race.Write ~addr:0 ~width:8;
  h.Hooks.h_access ~pid:1 Race.Write ~addr:8 ~width:8;
  check Alcotest.bool "different words: clean" false (Race.has_findings r);
  h.Hooks.h_access ~pid:0 Race.Write ~addr:16 ~width:1;
  h.Hooks.h_access ~pid:1 Race.Write ~addr:20 ~width:1;
  check Alcotest.bool "same word: flagged" true (Race.has_findings r)

let suppressed_is_invisible () =
  let r = Race.create ~nprocs:2 ~pages:1 () in
  let h = Race.hooks r in
  h.Hooks.h_access ~pid:0 Race.Write ~addr:0 ~width:8;
  h.Hooks.h_suppress ~pid:1 true;
  h.Hooks.h_access ~pid:1 Race.Read ~addr:0 ~width:8;
  h.Hooks.h_suppress ~pid:1 false;
  check Alcotest.bool "annotated access not reported" false (Race.has_findings r)

let hint_names_the_lock () =
  let r = Race.create ~nprocs:2 ~pages:1 () in
  let h = Race.hooks r in
  h.Hooks.h_lock_acquired ~pid:0 ~lock:5;
  h.Hooks.h_access ~pid:0 Race.Write ~addr:0 ~width:8;
  h.Hooks.h_lock_release ~pid:0 ~lock:5;
  h.Hooks.h_access ~pid:1 Race.Write ~addr:0 ~width:8;
  match Race.findings r with
  | f :: _ ->
    check Alcotest.bool "hint names lock 5" true (contains ~affix:"lock 5" f.Race.f_hint)
  | [] -> Alcotest.fail "expected a finding"

(* ------------------------------------------------------------------ *)
(* Oracle units: hand-built streams violating one invariant at a time.  *)

let run_oracle ?(nprocs = 2) events =
  let sink = Sink.create () in
  List.iter (fun (time, pid, ev) -> Sink.emit sink ~time ~pid ev) events;
  Oracle.check_sink ~nprocs sink

let expect_violation name prefix events =
  let vs = run_oracle events in
  if not (List.exists (fun v -> contains ~affix:prefix v) vs) then
    Alcotest.failf "%s: expected a %s violation, got [%s]" name prefix
      (String.concat "; " vs)

let oracle_clean_stream () =
  let open Event in
  let vs =
    run_oracle
      [
        (0, 0, Interval_close { id = 1; notices = 1; vt = [| 1; 0 |] });
        (1, 0, Lock_grant { lock = 0; requester = 1; intervals = 1; bytes = 96 });
        (2, 1, Interval_recv { proc = 0; id = 1; notices = 1; vt = [| 1; 0 |] });
        (2, 1, Write_notice_recv { page = 0; proc = 0; interval = 1 });
        (3, 1, Lock_acquired { lock = 0; local = false });
        (4, 0, Barrier_arrive { id = 0; epoch = 0 });
        (4, 1, Barrier_arrive { id = 0; epoch = 0 });
        (5, 0, Barrier_release { id = 0; epoch = 0 });
        (6, 1, Barrier_release { id = 0; epoch = 0 });
      ]
  in
  check (Alcotest.list Alcotest.string) "clean" [] vs

let oracle_i1_own_entry () =
  let open Event in
  expect_violation "own entry" "I1"
    [ (0, 0, Interval_close { id = 2; notices = 0; vt = [| 1; 0 |] }) ]

let oracle_i1_ids_decrease () =
  let open Event in
  expect_violation "decreasing ids" "I1"
    [
      (0, 0, Interval_close { id = 2; notices = 0; vt = [| 2; 0 |] });
      (1, 0, Interval_close { id = 1; notices = 0; vt = [| 1; 0 |] });
    ]

let oracle_i2_invented_knowledge () =
  let open Event in
  expect_violation "invented knowledge" "I2"
    [ (0, 0, Interval_close { id = 1; notices = 0; vt = [| 1; 5 |] }) ]

let oracle_i2_own_record () =
  let open Event in
  expect_violation "own record" "I2"
    [ (0, 0, Interval_recv { proc = 0; id = 1; notices = 0; vt = [| 1; 0 |] }) ]

(* The granter knows its interval 1; the acquirer finishes the acquire
   without ever incorporating it. *)
let oracle_i3_acquire_below_granter () =
  let open Event in
  expect_violation "uncovered acquire" "I3"
    [
      (0, 0, Interval_close { id = 1; notices = 1; vt = [| 1; 0 |] });
      (1, 0, Lock_grant { lock = 4; requester = 1; intervals = 1; bytes = 96 });
      (2, 1, Lock_acquired { lock = 4; local = false });
    ]

let oracle_i3_acquire_without_grant () =
  let open Event in
  expect_violation "grantless acquire" "I3"
    [ (0, 1, Lock_acquired { lock = 4; local = false }) ]

(* The manager crosses knowing its own interval; a client crosses without
   having incorporated it. *)
let oracle_i3_barrier_below_manager () =
  let open Event in
  expect_violation "uncovered barrier crossing" "I3"
    [
      (0, 0, Interval_close { id = 1; notices = 1; vt = [| 1; 0 |] });
      (1, 0, Barrier_arrive { id = 0; epoch = 0 });
      (1, 1, Barrier_arrive { id = 0; epoch = 0 });
      (2, 0, Barrier_release { id = 0; epoch = 0 });
      (3, 1, Barrier_release { id = 0; epoch = 0 });
    ]

let oracle_i4_epoch_disagreement () =
  let open Event in
  expect_violation "epoch disagreement" "I4"
    [
      (0, 0, Barrier_arrive { id = 3; epoch = 0 });
      (1, 1, Barrier_arrive { id = 3; epoch = 1 });
    ]

let oracle_i4_incomplete_crossing () =
  let open Event in
  expect_violation "incomplete crossing" "I4"
    [ (0, 0, Barrier_arrive { id = 3; epoch = 0 }) ]

let oracle_i5_apply_without_create () =
  let open Event in
  expect_violation "orphan diff" "I5"
    [ (0, 1, Diff_apply { page = 2; bytes = 64; proc = 0; interval = 3 }) ]

let oracle_i5_size_disagreement () =
  let open Event in
  expect_violation "size disagreement" "I5"
    [
      (0, 0, Diff_create { page = 2; bytes = 64; proc = 0; interval = 3 });
      (1, 1, Diff_apply { page = 2; bytes = 60; proc = 0; interval = 3 });
      (2, 1, Diff_apply { page = 2; bytes = 48; proc = 0; interval = 3 });
    ]

(* ERC's eager diffs carry interval -1 and are exempt from I5. *)
let oracle_i5_erc_exempt () =
  let open Event in
  let vs =
    run_oracle [ (0, 1, Diff_apply { page = 2; bytes = 64; proc = 0; interval = -1 }) ]
  in
  check (Alcotest.list Alcotest.string) "exempt" [] vs

let oracle_i6_collected_interval () =
  let open Event in
  expect_violation "use after collection" "I6"
    [
      (0, 1, Interval_recv { proc = 0; id = 3; notices = 0; vt = [| 3; 0 |] });
      (1, 1, Gc_end { discarded = 4 });
      (2, 1, Write_notice_recv { page = 0; proc = 0; interval = 2 });
    ]

let suite =
  [
    Alcotest.test_case "racey is flagged, precisely" `Quick racey_flags_races;
    Alcotest.test_case "water is clean" `Quick water_clean;
    Alcotest.test_case "jacobi is clean" `Quick jacobi_clean;
    Alcotest.test_case "tsp is clean (annotated bound read)" `Quick tsp_clean;
    Alcotest.test_case "quicksort is clean" `Quick quicksort_clean;
    Alcotest.test_case "ilink is clean" `Quick ilink_clean;
    Alcotest.test_case "findings deterministic under loss" `Quick deterministic_under_loss;
    Alcotest.test_case "lock-ordered accesses are clean" `Quick lock_ordered_is_clean;
    Alcotest.test_case "barrier orders accesses" `Quick barrier_orders;
    Alcotest.test_case "unordered writes race" `Quick unordered_writes_race;
    Alcotest.test_case "word granularity" `Quick word_granularity;
    Alcotest.test_case "unsynchronized spans are invisible" `Quick suppressed_is_invisible;
    Alcotest.test_case "hint names the missing lock" `Quick hint_names_the_lock;
    Alcotest.test_case "oracle: clean stream" `Quick oracle_clean_stream;
    Alcotest.test_case "oracle: I1 own entry" `Quick oracle_i1_own_entry;
    Alcotest.test_case "oracle: I1 decreasing ids" `Quick oracle_i1_ids_decrease;
    Alcotest.test_case "oracle: I2 invented knowledge" `Quick oracle_i2_invented_knowledge;
    Alcotest.test_case "oracle: I2 own record" `Quick oracle_i2_own_record;
    Alcotest.test_case "oracle: I3 acquire below granter" `Quick
      oracle_i3_acquire_below_granter;
    Alcotest.test_case "oracle: I3 acquire without grant" `Quick
      oracle_i3_acquire_without_grant;
    Alcotest.test_case "oracle: I3 barrier below manager" `Quick
      oracle_i3_barrier_below_manager;
    Alcotest.test_case "oracle: I4 epoch disagreement" `Quick oracle_i4_epoch_disagreement;
    Alcotest.test_case "oracle: I4 incomplete crossing" `Quick
      oracle_i4_incomplete_crossing;
    Alcotest.test_case "oracle: I5 apply without create" `Quick
      oracle_i5_apply_without_create;
    Alcotest.test_case "oracle: I5 size disagreement" `Quick oracle_i5_size_disagreement;
    Alcotest.test_case "oracle: I5 ERC exemption" `Quick oracle_i5_erc_exempt;
    Alcotest.test_case "oracle: I6 collected interval" `Quick oracle_i6_collected_interval;
    Alcotest.test_case "oracle: vector-time checks hold without intervals" `Quick
      vector_time_checks_hold_without_intervals;
  ]
