(* Tests of the tracing subsystem: analyzer semantics on hand-built
   streams, exporter goldens, end-to-end determinism of recorded runs,
   and the no-observer-effect guarantee when tracing is disabled. *)

open Tmk_trace

let check = Alcotest.check

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let mk events =
  let sink = Sink.create () in
  List.iter (fun (time, pid, ev) -> Sink.emit sink ~time ~pid ev) events;
  sink

(* The exporters write to a channel and the reader takes a path, so the
   tests go through a temporary file: [written write sink] is the bytes
   [write] puts in a file, [read_back text] the stream [Jsonl.read_file]
   decodes from one. *)
let with_temp_file f =
  let path = Filename.temp_file "tmk_trace" ".out" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let written write sink =
  with_temp_file (fun path ->
      Out_channel.with_open_bin path (fun oc -> write oc sink);
      In_channel.with_open_bin path In_channel.input_all)

let read_back text =
  with_temp_file (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      Jsonl.read_file path)

(* ------------------------------------------------------------------ *)
(* Analyzer units on streams with known answers.                       *)

(* Lock 7: pid 1 waits 2000ns and holds 5000ns; pid 2 acquires from its
   cached token (no wait) and holds 500ns; one request is queued. *)
let analyze_locks () =
  let open Event in
  let sink =
    mk
      [
        (1_000, 1, Lock_acquire { lock = 7; local = false });
        (1_500, 0, Lock_queued { lock = 7; requester = 2 });
        (2_000, 2, Lock_acquire { lock = 7; local = true });
        (2_000, 2, Lock_acquired { lock = 7; local = true });
        (2_500, 2, Lock_release { lock = 7; granted_to = None });
        (3_000, 1, Lock_acquired { lock = 7; local = false });
        (8_000, 1, Lock_release { lock = 7; granted_to = Some 2 });
      ]
  in
  let a = Analyze.analyze sink in
  check Alcotest.int "events" 7 a.Analyze.a_events;
  check Alcotest.int "end" 8_000 a.Analyze.a_end;
  match a.Analyze.a_locks with
  | [ l ] ->
    check Alcotest.int "id" 7 l.Analyze.l_id;
    check Alcotest.int "acquires" 2 l.Analyze.l_acquires;
    check Alcotest.int "local" 1 l.Analyze.l_local;
    check Alcotest.int "queued" 1 l.Analyze.l_queued;
    check Alcotest.int "wait" 2_000 l.Analyze.l_wait_ns;
    check Alcotest.int "hold" 5_500 l.Analyze.l_hold_ns
  | other -> Alcotest.failf "expected one lock, got %d" (List.length other)

(* Barrier 0 crossed twice by two processors: epochs are separated by
   per-processor occurrence index, skew is last − first arrival. *)
let analyze_barriers () =
  let open Event in
  let sink =
    mk
      [
        (100, 0, Barrier_arrive { id = 0; epoch = 0 });
        (400, 1, Barrier_arrive { id = 0; epoch = 0 });
        (600, 0, Barrier_release { id = 0; epoch = 0 });
        (600, 1, Barrier_release { id = 0; epoch = 0 });
        (1_000, 0, Barrier_arrive { id = 0; epoch = 1 });
        (1_100, 1, Barrier_arrive { id = 0; epoch = 1 });
        (1_300, 0, Barrier_release { id = 0; epoch = 1 });
        (1_300, 1, Barrier_release { id = 0; epoch = 1 });
      ]
  in
  let a = Analyze.analyze sink in
  (match a.Analyze.a_barriers with
  | [ e0; e1 ] ->
    check Alcotest.int "epoch0 first" 100 e0.Analyze.be_first_arrival;
    check Alcotest.int "epoch0 last" 400 e0.Analyze.be_last_arrival;
    check Alcotest.int "epoch0 release" 600 e0.Analyze.be_release;
    check Alcotest.int "epoch1 index" 1 e1.Analyze.be_epoch;
    check Alcotest.int "epoch1 skew" 100
      (e1.Analyze.be_last_arrival - e1.Analyze.be_first_arrival)
  | other -> Alcotest.failf "expected two epochs, got %d" (List.length other));
  match a.Analyze.a_procs with
  | [ p0; p1 ] ->
    (* pid 0 waits 500 + 300, pid 1 waits 200 + 200 *)
    check Alcotest.int "p0 barrier wait" 800 p0.Analyze.pr_barrier_wait;
    check Alcotest.int "p1 barrier wait" 400 p1.Analyze.pr_barrier_wait
  | other -> Alcotest.failf "expected two procs, got %d" (List.length other)

(* Page 3 sees faults, a fetch, diff traffic from two distinct writers;
   page 1 sees a single read fault.  The hotter page ranks first, ahead of
   the lower page id that would lead a tie. *)
let analyze_hot_pages () =
  let open Event in
  let sink =
    mk
      [
        (10, 0, Page_fault { page = 3; kind = Read });
        (20, 0, Page_fault_done { page = 3; kind = Read });
        (30, 1, Page_fault { page = 3; kind = Write });
        (35, 1, Twin_create { page = 3 });
        (40, 1, Page_fault_done { page = 3; kind = Write });
        (50, 0, Page_fetch { page = 3; from_ = 1 });
        (60, 1, Diff_create { page = 3; bytes = 512; proc = 1; interval = 4 });
        (70, 0, Diff_apply { page = 3; bytes = 512; proc = 1; interval = 4 });
        (80, 0, Write_notice_recv { page = 3; proc = 2; interval = 0 });
        (90, 2, Page_invalidate { page = 3 });
        (95, 2, Page_fault { page = 1; kind = Read });
        (99, 2, Page_fault_done { page = 1; kind = Read });
      ]
  in
  let a = Analyze.analyze sink in
  match a.Analyze.a_pages with
  | [ hot; cold ] ->
    check Alcotest.int "hottest page" 3 hot.Analyze.p_id;
    check Alcotest.int "read faults" 1 hot.Analyze.p_read_faults;
    check Alcotest.int "write faults" 1 hot.Analyze.p_write_faults;
    check Alcotest.int "fetches" 1 hot.Analyze.p_fetches;
    check Alcotest.int "invalidations" 1 hot.Analyze.p_invalidations;
    check Alcotest.int "diff bytes out" 512 hot.Analyze.p_diff_bytes_created;
    check Alcotest.int "diff bytes in" 512 hot.Analyze.p_diff_bytes_applied;
    check Alcotest.int "distinct writers" 2 hot.Analyze.p_writers;
    check Alcotest.int "cold page" 1 cold.Analyze.p_id
  | other -> Alcotest.failf "expected two pages, got %d" (List.length other)

(* Fault wait and frame accounting land on the emitting processor. *)
let analyze_procs () =
  let open Event in
  let sink =
    mk
      [
        (0, 0, Page_fault { page = 0; kind = Write });
        (10, 0, Frame_send { src = 0; dst = 1; label = "diff-req"; bytes = 100; retrans = false });
        (200, 1, Frame_recv { src = 0; dst = 1; label = "diff-req"; bytes = 100 });
        (900, 0, Page_fault_done { page = 0; kind = Write });
        (1_000, 0, Proc_finish);
      ]
  in
  let a = Analyze.analyze sink in
  match a.Analyze.a_procs with
  | p0 :: _ ->
    check Alcotest.int "fault wait" 900 p0.Analyze.pr_fault_wait;
    check Alcotest.int "frames" 1 p0.Analyze.pr_frames_sent;
    check Alcotest.int "bytes" 100 p0.Analyze.pr_bytes_sent;
    check Alcotest.int "finish" 1_000 p0.Analyze.pr_finish
  | [] -> Alcotest.fail "expected proc stats"

(* The report renders every section without raising. *)
let report_renders () =
  let open Event in
  let sink =
    mk
      [
        (0, 0, Lock_acquire { lock = 0; local = false });
        (5, 0, Lock_acquired { lock = 0; local = false });
        (10, 0, Barrier_arrive { id = 0; epoch = 0 });
        (20, 0, Barrier_release { id = 0; epoch = 0 });
        (30, 0, Page_fault { page = 0; kind = Read });
        (40, 0, Page_fault_done { page = 0; kind = Read });
        (50, 0, Proc_finish);
      ]
  in
  let text = Analyze.report (Analyze.analyze sink) in
  List.iter
    (fun fragment ->
      check Alcotest.bool fragment true (contains ~affix:fragment text))
    [ "Lock contention"; "Hot pages"; "Barrier skew"; "Per-processor waits";
      "critical path" ]

(* A lock that was queued for but never acquired and a barrier crossed by
   a single processor: the report's average columns (wait/hold per
   acquire, skew per crossing) must not divide by zero. *)
let report_survives_zero_acquires () =
  let open Event in
  let sink =
    mk
      [
        (100, 0, Lock_queued { lock = 9; requester = 1 });
        (200, 0, Barrier_arrive { id = 0; epoch = 0 });
        (300, 0, Barrier_release { id = 0; epoch = 0 });
        (400, 0, Proc_finish);
      ]
  in
  let text = Analyze.report (Analyze.analyze sink) in
  check Alcotest.bool "lock table renders" true (contains ~affix:"Lock contention" text);
  check Alcotest.bool "no nan" false (contains ~affix:"nan" text);
  check Alcotest.bool "no inf" false (contains ~affix:"inf" text)

(* ------------------------------------------------------------------ *)
(* Exporter goldens: the encodings are deterministic by construction,
   so exact strings are a fair contract.                               *)

let jsonl_golden () =
  let open Event in
  let sink =
    mk
      [
        (1_000, 0, Lock_acquire { lock = 1; local = false });
        (3_000, -1, Frame_dup { src = 0; dst = 1; label = "hi \"there\"\n" });
        (4_000, 2, Interval_close { id = 5; notices = 2; vt = [| 1; 0; 3 |] });
      ]
  in
  check Alcotest.string "jsonl"
    ("{\"t\":1000,\"pid\":0,\"ev\":\"lock-acquire\",\"lock\":1,\"local\":false}\n"
   ^ "{\"t\":3000,\"pid\":-1,\"ev\":\"frame-dup\",\"src\":0,\"dst\":1,\"label\":\"hi \\\"there\\\"\\n\"}\n"
   ^ "{\"t\":4000,\"pid\":2,\"ev\":\"interval-close\",\"id\":5,\"notices\":2,\"vt\":[1,0,3]}\n")
    (written Jsonl.write sink)

let chrome_golden () =
  let open Event in
  let sink =
    mk
      [
        (1_000, 0, Lock_acquire { lock = 1; local = false });
        (2_500, 0, Lock_acquired { lock = 1; local = false });
        (3_000, -1, Frame_dup { src = 0; dst = 1; label = "hello" });
      ]
  in
  check Alcotest.string "chrome"
    ("{\"traceEvents\":[\n"
   ^ "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"cpu 0\"}},\n"
   ^ "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"engine\"}},\n"
   ^ "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":\"lock-wait L1\",\"cat\":\"lock\",\"ts\":1.000,\"dur\":1.500,\"args\":{\"lock\":1,\"local\":false}},\n"
   ^ "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":1,\"name\":\"frame-dup\",\"cat\":\"net\",\"ts\":3.000,\"args\":{\"src\":0,\"dst\":1,\"label\":\"hello\"}}\n"
   ^ "],\"displayTimeUnit\":\"ms\"}\n")
    (written Chrome.write sink)

(* Decode inverts encode for every constructor: re-emitting the parsed
   records reproduces the stream byte for byte.  This is the contract
   the offline oracle ([tmk_run --check-trace]) relies on. *)
let jsonl_roundtrip () =
  let open Event in
  let sink =
    mk
      [
        (0, 0, Lock_acquire { lock = 1; local = false });
        (5, 0, Lock_acquired { lock = 1; local = true });
        (10, 0, Lock_release { lock = 1; granted_to = Some 2 });
        (12, 2, Lock_release { lock = 3; granted_to = None });
        (15, 0, Lock_queued { lock = 1; requester = 2 });
        (17, 0, Lock_request_recv { lock = 1; requester = 2 });
        (18, 0, Lock_forward { lock = 1; requester = 2; target = 3 });
        (19, 0, Lock_grant { lock = 1; requester = 2; intervals = 4; bytes = 640 });
        (20, 1, Barrier_arrive { id = 0; epoch = 3 });
        (25, 1, Barrier_release { id = 0; epoch = 3 });
        (30, 0, Page_fault { page = 4; kind = Read });
        (35, 0, Page_fault_done { page = 4; kind = Write });
        (40, 0, Twin_create { page = 4 });
        (45, 0, Page_fetch { page = 4; from_ = 1 });
        (47, 0, Page_invalidate { page = 4 });
        (50, 1, Diff_create { page = 4; bytes = 128; proc = 1; interval = 2 });
        (55, 0, Diff_apply { page = 4; bytes = 128; proc = 1; interval = 2 });
        (57, 0, Diff_fetch { page = 4; from_ = 1; count = 2 });
        (58, 0, Diff_cache { page = 4; hit = true });
        (60, 0, Write_notice_recv { page = 4; proc = 1; interval = 2 });
        (70, 1, Interval_close { id = 2; notices = 1; vt = [| 0; 2; 5 |] });
        (75, 0, Interval_recv { proc = 1; id = 2; notices = 1; vt = [| 0; 2; 5 |] });
        ( 80,
          0,
          Frame_send { src = 0; dst = 1; label = "diff-req"; bytes = 96; retrans = true }
        );
        (85, 1, Frame_recv { src = 0; dst = 1; label = "diff-req"; bytes = 96 });
        (86, 1, Frame_drop { src = 0; dst = 1; label = "diff-req"; bytes = 96 });
        (87, 1, Frame_dup { src = 0; dst = 1; label = "diff-req" });
        (88, 0, Frame_batch { src = 0; dst = 1; label = "barrier-delta"; parts = 3 });
        (89, 1, Gc_begin { live = 41 });
        (90, 1, Gc_end { discarded = 7 });
        (95, 1, Proc_finish);
        (99, -1, Frame_dup { src = 1; dst = 0; label = "done \"quoted\"\t\n" });
      ]
  in
  let text = written Jsonl.write sink in
  let reparsed = read_back text in
  check Alcotest.int "record count" (Sink.length sink) (Sink.length reparsed);
  check Alcotest.string "parse . print = id" text (written Jsonl.write reparsed)

(* Malformed lines end in a typed error naming the line and what is
   wrong, never an OCaml exception from deeper down: an overflowing
   integer, or a pid no run can record (which would size the oracle's
   tables). *)
let reader_rejects line expected () =
  match read_back line with
  | _ -> Alcotest.failf "%S parsed" line
  | exception Jsonl.Parse_error msg ->
    check Alcotest.string "message" ("line 1: " ^ expected) msg

(* A raw byte at or above 0x80 is ordinary string content. *)
let reader_reads_high_bytes () =
  let line = "{\"t\":0,\"pid\":0,\"ev\":\"frame-dup\",\"src\":0,\"dst\":1,\"label\":\"\xff\"}" in
  let sink = read_back line in
  check Alcotest.int "one record" 1 (Sink.length sink);
  Sink.iter
    (fun r ->
      check Alcotest.bool "label" true
        (r.Sink.r_ev = Event.Frame_dup { src = 0; dst = 1; label = "\xff" }))
    sink;
  check Alcotest.string "re-encodes" (line ^ "\n") (written Jsonl.write sink)

(* An unmatched begin event is closed at the last record's time. *)
let chrome_closes_open_spans () =
  let open Event in
  let sink =
    mk
      [
        (100, 0, Barrier_arrive { id = 2; epoch = 0 });
        (900, 0, Frame_dup { src = 1; dst = 0; label = "end" });
      ]
  in
  let s = written Chrome.write sink in
  check Alcotest.bool "span closed" true
    (contains
       ~affix:"\"name\":\"barrier 2\",\"cat\":\"barrier\",\"ts\":0.100,\"dur\":0.800" s)

(* ------------------------------------------------------------------ *)
(* End-to-end properties on real runs.                                 *)

let traced_jsonl ~app cfg =
  let sink = Sink.create () in
  let _ = Tmk_harness.Harness.run_cfg ~trace:sink ~app cfg in
  check Alcotest.bool "stream non-empty" true (Sink.length sink > 0);
  written Jsonl.write sink

(* Same seed, same program: byte-identical event streams — also under a
   lossy network, where retransmissions are part of the schedule. *)
let determinism app name =
  let cfg =
    Tmk_harness.Harness.config ~app ~nprocs:4 ~protocol:Tmk_dsm.Config.Lrc
      ~net:Tmk_net.Params.atm_aal34
  in
  check Alcotest.string (name ^ " clean") (traced_jsonl ~app cfg) (traced_jsonl ~app cfg);
  let lossy =
    { cfg with Tmk_dsm.Config.faults = Tmk_net.Fault_plan.(with_loss none 0.05) }
  in
  check Alcotest.string (name ^ " 5% loss") (traced_jsonl ~app lossy)
    (traced_jsonl ~app lossy)

let determinism_jacobi () = determinism Tmk_harness.Harness.Jacobi "jacobi"
let determinism_tsp () = determinism Tmk_harness.Harness.Tsp "tsp"

(* Tracing must not perturb the run: with and without a sink, the
   result digest, message count, byte count and makespan agree — and a
   run without a sink records nothing. *)
let disabled_is_free () =
  let cfg =
    Tmk_harness.Harness.config ~app:Tmk_harness.Harness.Jacobi ~nprocs:4
      ~protocol:Tmk_dsm.Config.Lrc ~net:Tmk_net.Params.atm_aal34
  in
  let plain_m, plain_digest = Tmk_harness.Harness.run_checked ~app:Tmk_harness.Harness.Jacobi cfg in
  let sink = Sink.create () in
  let traced_m, traced_digest =
    Tmk_harness.Harness.run_checked ~app:Tmk_harness.Harness.Jacobi
      { cfg with Tmk_dsm.Config.trace = Some sink }
  in
  check Alcotest.string "digest" plain_digest traced_digest;
  check Alcotest.int "messages" plain_m.Tmk_harness.Harness.m_raw.Tmk_dsm.Api.messages
    traced_m.Tmk_harness.Harness.m_raw.Tmk_dsm.Api.messages;
  check Alcotest.int "bytes" plain_m.Tmk_harness.Harness.m_raw.Tmk_dsm.Api.bytes
    traced_m.Tmk_harness.Harness.m_raw.Tmk_dsm.Api.bytes;
  check Alcotest.int "makespan" plain_m.Tmk_harness.Harness.m_raw.Tmk_dsm.Api.total_time
    traced_m.Tmk_harness.Harness.m_raw.Tmk_dsm.Api.total_time;
  check Alcotest.bool "traced run recorded events" true (Sink.length sink > 0)

(* The analyzer agrees with the protocol's own counters on a real run. *)
let analyzer_matches_stats () =
  let app = Tmk_harness.Harness.Tsp in
  let cfg =
    Tmk_harness.Harness.config ~app ~nprocs:4 ~protocol:Tmk_dsm.Config.Lrc
      ~net:Tmk_net.Params.atm_aal34
  in
  let sink = Sink.create () in
  let m = Tmk_harness.Harness.run_cfg ~trace:sink ~app cfg in
  let s = m.Tmk_harness.Harness.m_raw.Tmk_dsm.Api.total_stats in
  let a = Analyze.analyze sink in
  let total f = List.fold_left (fun acc l -> acc + f l) 0 in
  check Alcotest.int "lock acquires"
    s.Tmk_dsm.Stats.lock_acquires
    (total (fun l -> l.Analyze.l_acquires) a.Analyze.a_locks);
  check Alcotest.int "page faults"
    (s.Tmk_dsm.Stats.read_faults + s.Tmk_dsm.Stats.write_faults)
    (total (fun p -> p.Analyze.p_read_faults + p.Analyze.p_write_faults) a.Analyze.a_pages);
  check Alcotest.int "page fetches" s.Tmk_dsm.Stats.page_fetches
    (total (fun p -> p.Analyze.p_fetches) a.Analyze.a_pages);
  check Alcotest.int "frames"
    m.Tmk_harness.Harness.m_raw.Tmk_dsm.Api.messages
    (total (fun p -> p.Analyze.pr_frames_sent) a.Analyze.a_procs);
  (* every processor finished and the analyzer saw it *)
  check Alcotest.int "procs" 4 (List.length a.Analyze.a_procs);
  List.iter
    (fun p -> check Alcotest.bool "finish recorded" true (p.Analyze.pr_finish > 0))
    a.Analyze.a_procs

let suite =
  [
    Alcotest.test_case "analyze locks" `Quick analyze_locks;
    Alcotest.test_case "analyze barriers" `Quick analyze_barriers;
    Alcotest.test_case "analyze hot pages" `Quick analyze_hot_pages;
    Alcotest.test_case "analyze procs" `Quick analyze_procs;
    Alcotest.test_case "report renders" `Quick report_renders;
    Alcotest.test_case "report survives zero acquires" `Quick
      report_survives_zero_acquires;
    Alcotest.test_case "jsonl golden" `Quick jsonl_golden;
    Alcotest.test_case "jsonl roundtrip" `Quick jsonl_roundtrip;
    Alcotest.test_case "jsonl rejects an overflowing time" `Quick
      (reader_rejects "{\"t\":99999999999999999999999,\"pid\":0,\"ev\":\"proc-finish\"}"
         "integer overflow at byte 5");
    Alcotest.test_case "jsonl rejects pid max_int" `Quick
      (reader_rejects "{\"t\":0,\"pid\":4611686018427387903,\"ev\":\"proc-finish\"}"
         "pid 4611686018427387903 outside -1..1023");
    Alcotest.test_case "jsonl rejects pid 100000000" `Quick
      (reader_rejects "{\"t\":0,\"pid\":100000000,\"ev\":\"proc-finish\"}"
         "pid 100000000 outside -1..1023");
    Alcotest.test_case "jsonl reads raw high bytes" `Quick reader_reads_high_bytes;
    Alcotest.test_case "chrome golden" `Quick chrome_golden;
    Alcotest.test_case "chrome closes open spans" `Quick chrome_closes_open_spans;
    Alcotest.test_case "determinism jacobi" `Quick determinism_jacobi;
    Alcotest.test_case "determinism tsp" `Slow determinism_tsp;
    Alcotest.test_case "tracing disabled is free" `Quick disabled_is_free;
    Alcotest.test_case "analyzer matches stats" `Quick analyzer_matches_stats;
  ]
