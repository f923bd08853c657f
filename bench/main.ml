(* Benchmark driver: regenerates every table and figure of the paper's
   evaluation (experiments E1-E10, see DESIGN.md for the index) plus the
   E11 scaling study, the E12 crash-survival study, the E13 coherence
   backend comparison and the E14 metadata-plane study.  The hot-path
   microbenchmarks are bench/micro.exe.

   Usage:
     bench/main.exe            run E1-E14
     bench/main.exe e3 e8 a2   run selected experiments/ablations
     bench/main.exe e11        scaling study only (writes BENCH_3.json)
     bench/main.exe e12        crash-survival study only (writes BENCH_5.json)
     bench/main.exe e13        backend comparison only (writes BENCH_7.json)
     bench/main.exe e14        metadata-plane scaling only (writes BENCH_10.json)
     bench/main.exe ablation   run the ablation suite A1-A6

   Options:
     --jobs N         run independent sweep arms (E10, E11, E13, E14) on N
                      OCaml domains; reports are byte-identical at any N
                      (default 1)
     --e14-procs L    override E14's processor sweep with comma-separated
                      counts (e.g. 256 for the CI smoke arm) *)

open Tmk_harness

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse_jobs acc = function
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
      | Some jobs when jobs >= 1 -> Experiments.set_jobs jobs
      | _ -> failwith (Printf.sprintf "bench: --jobs expects a positive integer, got %S" n));
      parse_jobs acc rest
    | "--jobs" :: [] -> failwith "bench: --jobs expects an argument"
    | "--e14-procs" :: spec :: rest ->
      let counts =
        List.map
          (fun s ->
            match int_of_string_opt (String.trim s) with
            | Some n when n >= 1 -> n
            | _ ->
              failwith
                (Printf.sprintf
                   "bench: --e14-procs expects comma-separated processor counts, got %S" spec))
          (String.split_on_char ',' spec)
      in
      Experiments.set_e14_procs counts;
      parse_jobs acc rest
    | "--e14-procs" :: [] -> failwith "bench: --e14-procs expects an argument"
    | arg :: rest -> parse_jobs (arg :: acc) rest
    | [] -> List.rev acc
  in
  let args = parse_jobs [] args in
  let t0 = Unix.gettimeofday () in
  (* Resolve every id before running any, so a typo fails fast. *)
  let resolve id =
    match Experiments.id_of_name id with
    | eid ->
      fun () ->
        Printf.printf "=== %s: %s ===\n%s\n"
          (String.uppercase_ascii (Experiments.id_name eid))
          (Experiments.describe eid) (Experiments.run eid)
    | exception Invalid_argument _ -> (
      match Ablations.id_of_name id with
      | aid ->
        fun () ->
          Printf.printf "=== %s: %s ===\n%s\n"
            (String.uppercase_ascii (Ablations.id_name aid))
            (Ablations.describe aid) (Ablations.run aid)
      | exception Invalid_argument _ ->
        Printf.eprintf "bench: unknown experiment %S (expected e1-e14, a1-a6 or ablation)\n"
          id;
        exit 1)
  in
  (match args with
  | [] -> print_string (Experiments.run_all ())
  | [ "ablation" ] -> print_string (Ablations.run_all ())
  | ids -> List.iter (fun run -> run ()) (List.map resolve ids));
  Printf.printf "\n[bench completed in %.1fs wall time]\n" (Unix.gettimeofday () -. t0)
