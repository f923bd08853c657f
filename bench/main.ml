(* Benchmark driver: regenerates every table and figure of the paper's
   evaluation (experiments E1-E9, see DESIGN.md for the index) plus the
   E10 loss-robustness sweep, the E11 scaling study, the E12
   crash-survival study, the E13 coherence backend comparison and the E14
   metadata-plane study.  The hot-path microbenchmarks are bench/micro.exe.

   Usage:
     bench/main.exe            run E1-E14
     bench/main.exe e3 e8 a2   run selected experiments/ablations
     bench/main.exe e11        scaling study only (writes BENCH_3.json)
     bench/main.exe e12        crash-survival study only (writes BENCH_5.json)
     bench/main.exe e13        backend comparison only (writes BENCH_7.json)
     bench/main.exe e14        metadata-plane scaling only (writes BENCH_10.json)
     bench/main.exe ablation   run the ablation suite A1-A6

   Options:
     --jobs N         run independent sweep arms (E10-E14) on N OCaml
                      domains; reports are byte-identical at any N
                      (default 1)
     --e14-procs L    override E14's processor sweep with comma-separated
                      counts from 1 to 1024 (e.g. 256 for the CI smoke arm)

   Exit status: 0 when every gate holds, 2 when one fails (after every
   report is printed), 1 on a usage error. *)

open Tmk_harness

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench: " ^ msg);
      exit 1)
    fmt

let () =
  let rec parse names = function
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
      | Some jobs when jobs >= 1 -> Experiments.set_jobs jobs
      | _ -> usage_error "--jobs expects a positive integer, got %S" n);
      parse names rest
    | "--e14-procs" :: spec :: rest ->
      let count s =
        match int_of_string_opt (String.trim s) with
        | Some n when n >= 1 && n <= 1024 -> n
        | _ ->
          usage_error
            "--e14-procs expects comma-separated processor counts from 1 to 1024, got %S" spec
      in
      Experiments.set_e14_procs (List.map count (String.split_on_char ',' spec));
      parse names rest
    | [ ("--jobs" | "--e14-procs") as flag ] -> usage_error "%s expects an argument" flag
    | name :: rest -> parse (name :: names) rest
    | [] -> List.rev names
  in
  let registry = Experiments.all @ Ablations.all in
  (* Resolve every name before running any, so a typo fails fast. *)
  let experiments =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> Experiments.all
    | [ "ablation" ] -> Ablations.all
    | names ->
      List.map
        (fun name ->
          match Experiments.find registry name with
          | Some e -> e
          | None ->
            usage_error "unknown experiment %S (expected e1-e14, a1-a6 or ablation)" name)
        names
  in
  let t0 = Unix.gettimeofday () in
  let held =
    List.fold_left
      (fun held e ->
        let report, ok = Experiments.run e in
        print_endline report;
        held && ok)
      true experiments
  in
  Printf.printf "\n[bench completed in %.1fs wall time]\n" (Unix.gettimeofday () -. t0);
  if not held then exit 2
