(* Harness and experiment-driver tests: metric extraction sanity, the
   experiment registry and its gates, the committed ledgers' shape, and
   light end-to-end runs (the heavyweight sweeps live in
   bench/main.exe, not the test suite). *)

open Tmk_dsm
open Tmk_harness

let check = Alcotest.check

let app_names_roundtrip () =
  List.iter
    (fun app ->
      check Alcotest.bool "roundtrip" true
        (Harness.app_of_name (Harness.app_name app) = app))
    Harness.all_apps;
  check Alcotest.bool "qsort alias" true (Harness.app_of_name "qsort" = Harness.Quicksort);
  Alcotest.check_raises "unknown app"
    (Invalid_argument "Harness.app_of_name: unknown application \"mandelbrot\"") (fun () ->
      ignore (Harness.app_of_name "mandelbrot"))

let metrics_consistent () =
  let m =
    Harness.run ~app:Harness.Ilink ~nprocs:4 ~protocol:Config.Lrc
      ~net:Tmk_net.Params.atm_aal34
  in
  check Alcotest.bool "time positive" true (m.Harness.m_time_s > 0.0);
  let total =
    m.Harness.m_comp_pct +. Harness.unix_pct m +. Harness.tmk_pct m +. m.Harness.m_idle_pct
  in
  check Alcotest.bool "percentages sum to ~100" true (Float.abs (total -. 100.0) < 0.5);
  check Alcotest.bool "ilink has no locks" true (m.Harness.m_locks_per_sec = 0.0);
  check Alcotest.bool "ilink has barriers" true (m.Harness.m_barriers_per_sec > 0.0)

let water_shape () =
  let m =
    Harness.run ~app:Harness.Water ~nprocs:4 ~protocol:Config.Lrc
      ~net:Tmk_net.Params.atm_aal34
  in
  check Alcotest.bool "water locks heavily" true (m.Harness.m_locks_per_sec > 100.0);
  check Alcotest.bool "water msgs heavy" true (m.Harness.m_msgs_per_sec > 500.0)

let jacobi_parallelizes () =
  let atm = Tmk_net.Params.atm_aal34 in
  let t1 =
    (Harness.run ~app:Harness.Jacobi ~nprocs:1 ~protocol:Config.Lrc ~net:atm).Harness.m_time_s
  in
  let t4 =
    (Harness.run ~app:Harness.Jacobi ~nprocs:4 ~protocol:Config.Lrc ~net:atm).Harness.m_time_s
  in
  check Alcotest.bool "speedup > 3 at 4 procs" true (t1 /. t4 > 3.0)

let contains text needle =
  let n = String.length needle in
  let rec go i = i + n <= String.length text && (String.sub text i n = needle || go (i + 1)) in
  go 0

(* The registry: E1-E14 and A1-A6, each found by its name in any case. *)
let experiment_ids () =
  let registry = Experiments.all @ Ablations.all in
  let names = List.map (fun e -> e.Experiments.name) registry in
  check Alcotest.int "20 entries" 20 (List.length registry);
  check Alcotest.int "unique names" 20 (List.length (List.sort_uniq compare names));
  List.iter
    (fun e ->
      check Alcotest.bool "describe nonempty" true (e.Experiments.describe <> "");
      check Alcotest.bool "find ignores case" true
        (match Experiments.find registry (String.uppercase_ascii e.Experiments.name) with
        | Some found -> found == e
        | None -> false))
    registry;
  check Alcotest.bool "unknown name" true (Option.is_none (Experiments.find registry "e42"))

let e1_report_renders () =
  let report, held = Experiments.run (Option.get (Experiments.find Experiments.all "e1")) in
  check Alcotest.bool "no gate fails" true held;
  check Alcotest.bool "mentions paper values" true
    (List.for_all (contains report)
       [ "=== E1: "; "827"; "1149"; "2186"; "2792"; "lock acquire" ])

(* Gates render in one form and decide [run]'s verdict; this experiment
   runs no simulation. *)
let gates_decide_the_verdict () =
  let synthetic gates =
    {
      Experiments.name = "x1";
      describe = "synthetic";
      body = (fun () -> { Experiments.tables = "table\n"; gates; ledger = None });
    }
  in
  let report, held = Experiments.run (synthetic [ ("holds", Some true); ("open", None) ]) in
  check Alcotest.bool "an undecided gate does not fail" true held;
  check Alcotest.string "report" "=== X1: synthetic ===\ntable\n\nholds: yes\nopen: not swept"
    report;
  let report, held =
    Experiments.run (synthetic [ ("holds", Some true); ("breaks", Some false) ])
  in
  check Alcotest.bool "a failing gate fails the run" false held;
  check Alcotest.bool "renders the regression" true (contains report "breaks: NO - REGRESSION")

(* Every committed ledger has one shape: {experiment, config, metrics},
   each row starting with its arm, the rows of one file sharing one field
   list (degraded rows another) and one arm key list, no arm twice, and
   as many rows as the sweep has arms. *)
let committed_ledgers_share_one_shape () =
  List.iter
    (fun (name, expected) ->
      let path =
        Filename.concat (Filename.dirname Sys.executable_name)
          (Filename.concat Filename.parent_dir_name name)
      in
      let text = In_channel.with_open_bin path In_channel.input_all in
      let module Json = Tmk_util.Json in
      match Json.of_string (String.trim text) with
      | Json.Obj
          [ ("experiment", Json.String _); ("config", Json.Obj _); ("metrics", Json.List rows) ]
        ->
        let split = function
          | Json.Obj (("arm", Json.Obj arm) :: fields) -> (arm, List.map fst fields)
          | _ -> Alcotest.failf "%s: a row does not start with its arm" name
        in
        let arms, fields = List.split (List.map split rows) in
        let shapes = List.sort_uniq compare fields in
        let degraded, measured = List.partition (List.mem "degraded_pid") shapes in
        check Alcotest.int (name ^ ": rows") expected (List.length rows);
        check Alcotest.int (name ^ ": measured field lists") 1 (List.length measured);
        check Alcotest.bool (name ^ ": degraded field lists") true (List.length degraded <= 1);
        check Alcotest.int (name ^ ": arm key lists") 1
          (List.length (List.sort_uniq compare (List.map (List.map fst) arms)));
        check Alcotest.int (name ^ ": distinct arms") expected
          (List.length (List.sort_uniq compare arms))
      | _ -> Alcotest.failf "%s: not {experiment, config, metrics}" name)
    [ ("BENCH_3.json", 65); ("BENCH_5.json", 20); ("BENCH_6.json", 7); ("BENCH_7.json", 40);
      ("BENCH_10.json", 24) ]

let suite =
  [
    Alcotest.test_case "app names roundtrip" `Quick app_names_roundtrip;
    Alcotest.test_case "metrics consistent" `Quick metrics_consistent;
    Alcotest.test_case "water shape" `Quick water_shape;
    Alcotest.test_case "jacobi parallelizes" `Slow jacobi_parallelizes;
    Alcotest.test_case "experiment ids" `Quick experiment_ids;
    Alcotest.test_case "e1 report renders" `Quick e1_report_renders;
    Alcotest.test_case "gates decide the verdict" `Quick gates_decide_the_verdict;
    Alcotest.test_case "committed ledgers share one shape" `Quick
      committed_ledgers_share_one_shape;
  ]
