(* Tests of the sanitizer suite (lib/lint): the lockset automaton's
   transitions, the sharing-pattern classifier, the sync-discipline
   heuristics, the unified findings model's serializations, and the
   end-to-end contracts — the five applications lint-clean at 8 and 32
   processors under every backend, racey and racey2 caught, and racey2
   caught by the lockset analyzer alone while the happens-before detector
   stays (correctly) silent. *)

open Tmk_dsm
module Race = Tmk_check.Race
module Checker = Tmk_check.Checker
module Hooks = Tmk_check.Hooks
module Findings = Tmk_lint.Findings
module Sharing = Tmk_lint.Sharing
module Discipline = Tmk_lint.Discipline
module Lint = Tmk_lint.Lint
module Segments = Tmk_check.Segments

let check = Alcotest.check

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Lockset automaton units, driven through the Lint hooks (the same
   entry point the protocol uses) with a Race instance fed the identical
   history, so each test also states what happens-before would say.      *)

type op =
  | A of int * Hooks.access_kind * int  (* pid, kind, addr (width 8) *)
  | L of int * int  (* acquire: pid, lock *)
  | U of int * int  (* release: pid, lock *)
  | B of int  (* barrier: all procs arrive then depart *)

let drive ~nprocs ops =
  let race = Race.create ~nprocs ~pages:16 () in
  let lint = Lint.create ~nprocs () in
  let hooks = [ Race.hooks race; Lint.hooks lint ] in
  List.iter
    (fun op ->
      List.iter
        (fun h ->
          match op with
          | A (pid, kind, addr) -> h.Hooks.h_access ~pid kind ~addr ~width:8
          | L (pid, lock) -> h.Hooks.h_lock_acquired ~pid ~lock
          | U (pid, lock) -> h.Hooks.h_lock_release ~pid ~lock
          | B id ->
            for pid = 0 to nprocs - 1 do
              h.Hooks.h_barrier_arrive ~pid ~id
            done;
            for pid = 0 to nprocs - 1 do
              h.Hooks.h_barrier_depart ~pid ~id
            done)
        hooks)
    ops;
  (race, lint)

let errors fs = List.filter (fun f -> f.Findings.severity = Findings.Error) fs

let lockset_rows fs = List.filter (fun f -> f.Findings.rule = "lockset-race") fs

(* Two unordered unprotected writes: both detectors fire; the unified
   report keeps the HB row and drops the overlapping lockset row. *)
let lockset_unordered_writes () =
  let race, lint =
    drive ~nprocs:2 [ A (0, Hooks.Write, 64); A (1, Hooks.Write, 64) ]
  in
  check Alcotest.bool "HB sees it too" true (Race.has_findings race);
  let fs = Lint.findings lint in
  (match lockset_rows fs with
  | [ f ] ->
    check Alcotest.int "page" 0 f.Findings.page;
    check Alcotest.int "lo" 64 f.Findings.lo;
    check Alcotest.int "hi" 71 f.Findings.hi;
    check (Alcotest.list Alcotest.int) "pids" [ 0; 1 ] f.Findings.pids;
    check Alcotest.bool "error severity" true (f.Findings.severity = Findings.Error)
  | other -> Alcotest.failf "expected one lockset finding, got %d" (List.length other));
  let unified = Lint.findings ~race lint in
  check Alcotest.bool "HB row outranks the lockset row" true
    (List.for_all (fun f -> f.Findings.analyzer = "hb") (errors unified))

(* Lock-mediated handoff: every access HB-ordered through one lock
   transfers ownership; the word never goes Shared and stays clean even
   though the second owner writes with no lock held. *)
let lockset_ordered_handoff_clean () =
  let _, lint =
    drive ~nprocs:2
      [
        L (0, 3); A (0, Hooks.Write, 0); U (0, 3);
        L (1, 3); A (1, Hooks.Read, 0); U (1, 3);
        A (1, Hooks.Write, 0);
      ]
  in
  check (Alcotest.list Alcotest.string) "clean" []
    (List.map (fun f -> f.Findings.rule) (lockset_rows (Lint.findings lint)))

(* Distinct locks protect nothing in common: the candidate set drains to
   empty on the first genuinely concurrent access. *)
let lockset_distinct_locks_race () =
  (* No release of lock 1 before lock 2's acquire, so the two critical
     sections are unordered — Eraser's classic C(v) = {1} ∩ {2} = ∅. *)
  let _, lint =
    drive ~nprocs:2
      [
        L (0, 1); A (0, Hooks.Write, 0);
        L (1, 2); A (1, Hooks.Write, 0);
        U (0, 1); U (1, 2);
      ]
  in
  check Alcotest.int "one potential race" 1
    (List.length (lockset_rows (Lint.findings lint)))

(* A common lock held across unordered accesses keeps the candidate set
   non-empty: no report. *)
let lockset_common_lock_refines () =
  let _, lint =
    drive ~nprocs:2
      [
        L (0, 1); A (0, Hooks.Write, 0);
        L (1, 1);  (* unordered: lock 1 was never released *)
        A (1, Hooks.Read, 0); A (1, Hooks.Write, 0);
        U (0, 1); U (1, 1);
      ]
  in
  check (Alcotest.list Alcotest.string) "clean" []
    (List.map (fun f -> f.Findings.rule) (lockset_rows (Lint.findings lint)))

(* Barrier generations reset words to Virgin: phase-partitioned unlocked
   writes by different processors are the normal SPMD pattern. *)
let lockset_barrier_resets () =
  let _, lint =
    drive ~nprocs:2
      [ A (0, Hooks.Write, 0); B 7; A (1, Hooks.Write, 0); B 7; A (0, Hooks.Write, 0) ]
  in
  check (Alcotest.list Alcotest.string) "clean" []
    (List.map (fun f -> f.Findings.rule) (lockset_rows (Lint.findings lint)))

(* Concurrent reads with no writer in the generation: Shared with an
   empty candidate set, but nothing to report. *)
let lockset_concurrent_reads_clean () =
  let _, lint =
    drive ~nprocs:3
      [ A (0, Hooks.Write, 0); B 1; A (1, Hooks.Read, 0); A (2, Hooks.Read, 0) ]
  in
  check (Alcotest.list Alcotest.string) "clean" []
    (List.map (fun f -> f.Findings.rule) (lockset_rows (Lint.findings lint)))

(* The racey2 shape in miniature: every conflicting pair ordered through
   the lock chain (HB silent), no common lock on the flag (lockset
   fires).  The two reads land between their processors' critical
   sections, so they are concurrent with each other — which is what
   drains the candidate set. *)
let lockset_catches_what_hb_misses () =
  let flag = 8 in
  let race, lint =
    drive ~nprocs:4
      [
        A (0, Hooks.Write, flag); L (0, 0); U (0, 0);
        L (1, 0); U (1, 0);
        L (2, 0); U (2, 0);
        A (1, Hooks.Read, flag);
        A (2, Hooks.Read, flag);
        L (1, 0); U (1, 0);
        L (2, 0); U (2, 0);
        L (3, 0); U (3, 0);
        A (3, Hooks.Write, flag);
      ]
  in
  check Alcotest.bool "HB is silent: the schedule ordered every pair" false
    (Race.has_findings race);
  match lockset_rows (Lint.findings ~race lint) with
  | [ f ] ->
    check Alcotest.int "page" 0 f.Findings.page;
    check (Alcotest.list Alcotest.int) "all four processors" [ 0; 1; 2; 3 ]
      f.Findings.pids;
    check Alcotest.bool "writers and readers named" true
      (contains ~affix:"writers p0,p3" f.Findings.message
      && contains ~affix:"readers p1,p2" f.Findings.message)
  | other -> Alcotest.failf "expected one lockset finding, got %d" (List.length other)

(* ------------------------------------------------------------------ *)
(* Sharing-pattern classifier units.                                    *)

let sharing_pair ~nprocs =
  let segs = Segments.create ~nprocs () in
  (segs, Sharing.create ~segs ~nprocs ())

(* The pattern of the one page the classification table lists. *)
let classify_one sh =
  match String.split_on_char '\n' (Sharing.classification_table sh) with
  | [ _title; _header; _rule; row; "" ] -> (
    match List.filter (( <> ) "") (String.split_on_char ' ' row) with
    | _page :: pattern :: _ -> pattern
    | _ -> Alcotest.failf "malformed row %S" row)
  | lines -> Alcotest.failf "expected one classified page, got %d lines" (List.length lines)

let sharing_false_sharing () =
  let _, sh = sharing_pair ~nprocs:2 in
  (* p0 owns words 0..2, p1 words 10..12 of page 0: disjoint, >=2 each *)
  List.iter (fun a -> Sharing.access sh ~pid:0 Hooks.Write ~addr:a ~width:8) [ 0; 8; 16 ];
  List.iter (fun a -> Sharing.access sh ~pid:1 Hooks.Write ~addr:a ~width:8) [ 80; 88; 96 ];
  check Alcotest.string "pattern" "falsely-shared" (classify_one sh);
  match List.filter (fun f -> f.Findings.rule = "false-sharing") (Sharing.findings sh) with
  | [ f ] ->
    check Alcotest.int "page" 0 f.Findings.page;
    check (Alcotest.list Alcotest.int) "both writers" [ 0; 1 ] f.Findings.pids;
    check Alcotest.bool "warning, not error" true (f.Findings.severity = Findings.Warning)
  | other -> Alcotest.failf "expected one warning, got %d" (List.length other)

(* One scratch word per processor is the Api collectives' layout, not
   false sharing worth reporting. *)
let sharing_single_word_writers_excluded () =
  let _, sh = sharing_pair ~nprocs:2 in
  Sharing.access sh ~pid:0 Hooks.Write ~addr:0 ~width:8;
  Sharing.access sh ~pid:1 Hooks.Write ~addr:8 ~width:8;
  check (Alcotest.list Alcotest.string) "no warning" []
    (List.map (fun f -> f.Findings.rule) (Sharing.findings sh))

let sharing_true_shared () =
  let _, sh = sharing_pair ~nprocs:2 in
  List.iter (fun a -> Sharing.access sh ~pid:0 Hooks.Write ~addr:a ~width:8) [ 0; 8 ];
  List.iter (fun a -> Sharing.access sh ~pid:1 Hooks.Write ~addr:a ~width:8) [ 8; 16 ];
  check Alcotest.string "pattern" "true-shared" (classify_one sh)

let sharing_producer_consumer () =
  let _, sh = sharing_pair ~nprocs:2 in
  Sharing.access sh ~pid:0 Hooks.Write ~addr:0 ~width:8;
  Sharing.access sh ~pid:1 Hooks.Read ~addr:0 ~width:8;
  check Alcotest.string "pattern" "producer-consumer" (classify_one sh)

let sharing_migratory () =
  let segs, sh = sharing_pair ~nprocs:2 in
  Sharing.access sh ~pid:0 Hooks.Write ~addr:0 ~width:8;
  for pid = 0 to 1 do Segments.barrier_arrive segs ~pid ~id:1 done;
  for pid = 0 to 1 do Segments.barrier_depart segs ~pid ~id:1 done;
  Sharing.access sh ~pid:1 Hooks.Write ~addr:0 ~width:8;
  check Alcotest.string "pattern" "migratory" (classify_one sh)

(* ------------------------------------------------------------------ *)
(* Sync-discipline units.                                               *)

let discipline_inconsistent_pages () =
  let d = Discipline.create ~nprocs:2 () in
  let session pid lock page =
    Discipline.lock_acquired d ~pid ~lock;
    Discipline.access d ~pid Hooks.Write ~addr:(page * 4096) ~width:8;
    Discipline.lock_release d ~pid ~lock
  in
  session 0 9 0;
  session 1 9 1;
  session 0 9 0;
  session 1 9 1;
  match List.filter (fun f -> f.Findings.rule = "inconsistent-lock-pages")
          (Discipline.findings d) with
  | [ f ] ->
    check Alcotest.bool "names the lock" true (contains ~affix:"lock 9" f.Findings.message);
    check (Alcotest.list Alcotest.int) "both pids" [ 0; 1 ] f.Findings.pids
  | other -> Alcotest.failf "expected one warning, got %d" (List.length other)

(* The same page set every session: consistent, no finding. *)
let discipline_consistent_is_quiet () =
  let d = Discipline.create ~nprocs:2 () in
  for i = 0 to 5 do
    let pid = i mod 2 in
    Discipline.lock_acquired d ~pid ~lock:9;
    Discipline.access d ~pid Hooks.Write ~addr:0 ~width:8;
    Discipline.lock_release d ~pid ~lock:9
  done;
  check (Alcotest.list Alcotest.string) "quiet" []
    (List.map (fun f -> f.Findings.rule) (Discipline.findings d))

let discipline_no_protected_writes () =
  let d = Discipline.create ~nprocs:2 () in
  for pid = 0 to 1 do
    Discipline.lock_acquired d ~pid ~lock:4;
    Discipline.access d ~pid Hooks.Read ~addr:0 ~width:8;
    Discipline.lock_release d ~pid ~lock:4
  done;
  match List.filter (fun f -> f.Findings.rule = "no-protected-writes")
          (Discipline.findings d) with
  | [ f ] -> check Alcotest.bool "info severity" true (f.Findings.severity = Findings.Info)
  | other -> Alcotest.failf "expected one info, got %d" (List.length other)

let discipline_unsynchronized_shadow () =
  let d = Discipline.create ~nprocs:2 () in
  Discipline.suppress d ~pid:1 true;
  Discipline.access d ~pid:1 Hooks.Read ~addr:40 ~width:8;
  Discipline.suppress d ~pid:1 false;
  (* word 5 races per the lockset analyzer; the span covered it *)
  (match List.filter (fun f -> f.Findings.rule = "unsynchronized-shadow")
           (Discipline.findings d ~racy_words:[ 5 ]) with
  | [ f ] ->
    check Alcotest.int "page" 0 f.Findings.page;
    check Alcotest.int "lo" 40 f.Findings.lo;
    check Alcotest.int "hi" 47 f.Findings.hi
  | other -> Alcotest.failf "expected one warning, got %d" (List.length other));
  (* a racy word the span did not cover is not this annotation's fault *)
  check (Alcotest.list Alcotest.string) "uncovered word: quiet" []
    (List.map (fun f -> f.Findings.rule) (Discipline.findings d ~racy_words:[ 99 ]))

(* ------------------------------------------------------------------ *)
(* Findings model: serializations round-trip, canonical order holds.    *)

let sample_findings =
  [
    {
      Findings.analyzer = "sharing"; rule = "false-sharing";
      severity = Findings.Warning; page = 2; lo = -1; hi = -1; pids = [ 0; 3 ];
      message = "message with \"quotes\" and a\ttab"; hint = "pad it \\ done";
    };
    {
      Findings.analyzer = "lockset"; rule = "lockset-race";
      severity = Findings.Error; page = 0; lo = 0; hi = 15; pids = [ 1; 2 ];
      message = "potential race"; hint = "lock it";
    };
    {
      Findings.analyzer = "discipline"; rule = "no-protected-writes";
      severity = Findings.Info; page = -1; lo = -1; hi = -1; pids = [];
      message = "lock 4 never guards a write"; hint = "drop it";
    };
  ]

let findings_jsonl_roundtrip () =
  let sorted = Findings.sort_dedup sample_findings in
  check Alcotest.bool "errors sort first" true
    ((List.hd sorted).Findings.severity = Findings.Error);
  let text = Findings.to_jsonl sorted in
  check Alcotest.string "one line per finding"
    (String.concat "" (List.map (fun f -> Findings.to_jsonl [ f ]) sorted))
    text;
  match List.rev (String.split_on_char '\n' text) with
  | "" :: rev_lines ->
    check Alcotest.int "line count" (List.length sorted) (List.length rev_lines);
    List.iter
      (fun line ->
        check Alcotest.string "parse . print = id" line
          Tmk_util.Json.(to_string (of_string line)))
      rev_lines
  | _ -> Alcotest.fail "the stream does not end in a newline"

let findings_jsonl_golden () =
  let f = List.nth sample_findings 1 in
  check Alcotest.string "golden line"
    ("{\"analyzer\":\"lockset\",\"rule\":\"lockset-race\",\"severity\":\"error\",\
     \"page\":0,\"lo\":0,\"hi\":15,\"pids\":[1,2],\"message\":\"potential race\",\
     \"hint\":\"lock it\"}"
    ^ "\n")
    (Findings.to_jsonl [ f ])

let findings_sarif_shape () =
  let s = Findings.to_sarif ~uri:"lib/apps/racey2.ml" sample_findings in
  List.iter
    (fun affix -> check Alcotest.bool affix true (contains ~affix s))
    [
      "\"version\":\"2.1.0\"";
      "\"name\":\"tmk-lint\"";
      "\"id\":\"lockset-race\"";
      "\"level\":\"error\"";
      "\"level\":\"note\"";
      "\"uri\":\"lib/apps/racey2.ml\"";
      "page 0:0..15 [p1,p2]";
    ]

let findings_table_all_clear () =
  check Alcotest.string "all-clear line" "lint: no findings" (Findings.table []);
  let t = Findings.table sample_findings in
  check Alcotest.bool "counts" true (contains ~affix:"1 error(s), 1 warning(s), 1 info" t)

let analyzers_of_string () =
  check Alcotest.int "all by default" 3 (List.length (Lint.analyzers_of_string "all"));
  check Alcotest.int "subset" 2
    (List.length (Lint.analyzers_of_string "lockset,discipline"));
  match Lint.analyzers_of_string "bogus" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* End-to-end: full runs with the suite attached via the checker.       *)

let lint_run ?(nprocs = 8) ?(protocol = Config.Lrc) ~pages body =
  let race = Race.create ~nprocs ~pages () in
  let lint = Lint.create ~nprocs () in
  let cfg =
    {
      Config.default with
      Config.nprocs;
      pages;
      seed = 3L;
      protocol;
      check =
        Some
          (Checker.create ~race ~hooks:[ Lint.hooks lint ]
             ~attach:[ Lint.attach lint ] ());
    }
  in
  let _ = Api.run cfg body in
  (race, lint)

let water_params = { Tmk_apps.Water.default with Tmk_apps.Water.nmol = 27; steps = 2 }

let jacobi_params =
  { Tmk_apps.Jacobi.default with Tmk_apps.Jacobi.rows = 40; cols = 32; iters = 6 }

let tsp_params = { Tmk_apps.Tsp.default with Tmk_apps.Tsp.ncities = 9; prefix_depth = 3 }

let qsort_params =
  { Tmk_apps.Quicksort.default with Tmk_apps.Quicksort.n = 2048; threshold = 64 }

let ilink_params =
  { Tmk_apps.Ilink.default with Tmk_apps.Ilink.families = 12; iterations = 3 }

let five_apps =
  [
    ( "water",
      Tmk_apps.Water.pages_needed water_params,
      fun ctx -> ignore (Tmk_apps.Water.parallel ctx water_params) );
    ( "jacobi",
      Tmk_apps.Jacobi.pages_needed jacobi_params,
      fun ctx -> ignore (Tmk_apps.Jacobi.parallel ctx jacobi_params) );
    ( "tsp",
      Tmk_apps.Tsp.pages_needed tsp_params,
      fun ctx -> ignore (Tmk_apps.Tsp.parallel ctx tsp_params) );
    ( "quicksort",
      Tmk_apps.Quicksort.pages_needed qsort_params,
      fun ctx -> ignore (Tmk_apps.Quicksort.parallel ctx qsort_params) );
    ( "ilink",
      Tmk_apps.Ilink.pages_needed ilink_params,
      fun ctx -> ignore (Tmk_apps.Ilink.parallel ctx ilink_params) );
  ]

(* Lint-clean means no error-severity findings: legitimate warnings
   (water's false sharing, contended work locks) are expected and fine. *)
let apps_clean_at nprocs () =
  List.iter
    (fun (name, pages, body) ->
      let race, lint = lint_run ~nprocs ~pages body in
      let fs = Lint.findings ~race lint in
      if Findings.has_errors fs then
        Alcotest.failf "%s at %d procs:\n%s" name nprocs (Findings.table fs))
    five_apps

let backends_clean () =
  List.iter
    (fun protocol ->
      List.iter
        (fun (name, pages, body) ->
          let race, lint = lint_run ~protocol ~pages body in
          let fs = Lint.findings ~race lint in
          if Findings.has_errors fs then
            Alcotest.failf "%s under %s:\n%s" name
              (Config.protocol_name protocol)
              (Findings.table fs))
        five_apps)
    [ Config.Lrc; Config.Erc; Config.Tardis; Config.Sc_abd ]

let racey_caught () =
  let p = Tmk_apps.Racey.default in
  let race, lint =
    lint_run ~pages:(Tmk_apps.Racey.pages_needed p) (fun ctx ->
        ignore (Tmk_apps.Racey.parallel ~collect:false ctx p))
  in
  let fs = Lint.findings ~race lint in
  check Alcotest.bool "errors found" true (Findings.has_errors fs);
  check Alcotest.bool "HB rows present" true
    (List.exists (fun f -> f.Findings.analyzer = "hb") fs);
  (* the lockset rows for the same bytes were deduplicated away *)
  let hb_pages =
    List.filter_map
      (fun f -> if f.Findings.analyzer = "hb" then Some f.Findings.page else None)
      fs
  in
  check Alcotest.bool "lockset rows on HB pages dropped" true
    (List.for_all
       (fun f -> not (List.mem f.Findings.page hb_pages))
       (lockset_rows fs))

(* The headline contract: racey2's race is invisible to happens-before
   under the default seed and caught by the lockset analyzer. *)
let racey2_needs_lockset () =
  let p = Tmk_apps.Racey2.default in
  let race, lint =
    lint_run ~pages:(Tmk_apps.Racey2.pages_needed p) (fun ctx ->
        ignore (Tmk_apps.Racey2.parallel ctx p))
  in
  check Alcotest.bool "HB reports nothing" false (Race.has_findings race);
  let fs = Lint.findings ~race lint in
  check Alcotest.bool "lint still fails the run" true (Findings.has_errors fs);
  match lockset_rows fs with
  | [ f ] ->
    check Alcotest.int "the flag page" 0 f.Findings.page;
    check (Alcotest.list Alcotest.int) "both writers, both readers" [ 0; 1; 2; 7 ]
      f.Findings.pids
  | other -> Alcotest.failf "expected one lockset finding, got %d" (List.length other)

(* Findings are byte-identical across backends for a run with no
   trace-derived rows in play... they are not, in general (diff counts
   differ per backend), but error-severity rows must agree: the lockset
   race is a property of the program, not the protocol. *)
let racey2_error_identical_across_backends () =
  let p = Tmk_apps.Racey2.default in
  let errors_of protocol =
    let race, lint =
      lint_run ~protocol ~pages:(Tmk_apps.Racey2.pages_needed p) (fun ctx ->
          ignore (Tmk_apps.Racey2.parallel ctx p))
    in
    Findings.to_jsonl (errors (Lint.findings ~race lint))
  in
  let base = errors_of Config.Lrc in
  check Alcotest.bool "found under lazy" true (base <> "");
  List.iter
    (fun protocol ->
      check Alcotest.string (Config.protocol_name protocol) base (errors_of protocol))
    [ Config.Erc; Config.Tardis; Config.Sc_abd ]

let suite =
  [
    Alcotest.test_case "lockset: unordered writes race" `Quick lockset_unordered_writes;
    Alcotest.test_case "lockset: ordered handoff is clean" `Quick
      lockset_ordered_handoff_clean;
    Alcotest.test_case "lockset: distinct locks race" `Quick lockset_distinct_locks_race;
    Alcotest.test_case "lockset: common lock refines" `Quick lockset_common_lock_refines;
    Alcotest.test_case "lockset: barriers reset generations" `Quick lockset_barrier_resets;
    Alcotest.test_case "lockset: concurrent reads are clean" `Quick
      lockset_concurrent_reads_clean;
    Alcotest.test_case "lockset: catches what HB misses" `Quick
      lockset_catches_what_hb_misses;
    Alcotest.test_case "sharing: false sharing flagged" `Quick sharing_false_sharing;
    Alcotest.test_case "sharing: scratch words excluded" `Quick
      sharing_single_word_writers_excluded;
    Alcotest.test_case "sharing: true sharing classified" `Quick sharing_true_shared;
    Alcotest.test_case "sharing: producer-consumer classified" `Quick
      sharing_producer_consumer;
    Alcotest.test_case "sharing: migratory classified" `Quick sharing_migratory;
    Alcotest.test_case "discipline: inconsistent lock pages" `Quick
      discipline_inconsistent_pages;
    Alcotest.test_case "discipline: consistent lock is quiet" `Quick
      discipline_consistent_is_quiet;
    Alcotest.test_case "discipline: read-only lock" `Quick discipline_no_protected_writes;
    Alcotest.test_case "discipline: unsynchronized shadow" `Quick
      discipline_unsynchronized_shadow;
    Alcotest.test_case "findings: jsonl round-trip" `Quick findings_jsonl_roundtrip;
    Alcotest.test_case "findings: jsonl golden" `Quick findings_jsonl_golden;
    Alcotest.test_case "findings: sarif shape" `Quick findings_sarif_shape;
    Alcotest.test_case "findings: table" `Quick findings_table_all_clear;
    Alcotest.test_case "analyzer list parsing" `Quick analyzers_of_string;
    Alcotest.test_case "five apps lint-clean at 8 procs" `Quick (apps_clean_at 8);
    Alcotest.test_case "five apps lint-clean at 32 procs" `Slow (apps_clean_at 32);
    Alcotest.test_case "five apps lint-clean under all backends" `Slow backends_clean;
    Alcotest.test_case "racey: caught, HB rows outrank lockset" `Quick racey_caught;
    Alcotest.test_case "racey2: HB-silent, lockset-caught" `Quick racey2_needs_lockset;
    Alcotest.test_case "racey2: error findings backend-independent" `Quick
      racey2_error_identical_across_backends;
  ]
