(* Benchmark driver: regenerates every table and figure of the paper's
   evaluation (experiments E1-E10, see DESIGN.md for the index) plus the
   E11 scaling study, the E12 crash-survival study, the E13 coherence
   backend comparison, and Bechamel microbenchmarks of the
   implementation's hot paths.

   Usage:
     bench/main.exe            run E1-E14
     bench/main.exe e3 e8 a2   run selected experiments/ablations
     bench/main.exe e11        scaling study only (writes BENCH_3.json)
     bench/main.exe e12        crash-survival study only (writes BENCH_5.json)
     bench/main.exe e13        backend comparison only (writes BENCH_7.json)
     bench/main.exe e14        metadata-plane scaling only (writes BENCH_10.json)
     bench/main.exe ablation   run the ablation suite A1-A5
     bench/main.exe micro      run the Bechamel microbenchmarks
     bench/main.exe all        everything

   Options:
     --jobs N         run independent sweep arms (E10, E11, E13, E14) on N
                      OCaml domains; reports are byte-identical at any N
                      (default 1)
     --e14-procs L    override E14's processor sweep with comma-separated
                      counts (e.g. 256 for the CI smoke arm) *)

open Tmk_harness

let run_micro () =
  let open Bechamel in
  let open Toolkit in
  (* Hot paths: diff creation (page compare + RLE), diff application,
     vector timestamp ops. *)
  let page = Bytes.make 4096 'a' in
  let twin = Bytes.copy page in
  let () =
    (* touch ~10% of the page so the diff is realistic *)
    for i = 0 to 50 do
      Bytes.set page (i * 80) 'b'
    done
  in
  let diff = Tmk_util.Rle.encode ~old_:twin page in
  let vt_a = Tmk_dsm.Vector_time.create 8 and vt_b = Tmk_dsm.Vector_time.create 8 in
  let () =
    for q = 0 to 7 do
      Tmk_dsm.Vector_time.set vt_a q (q * 3);
      Tmk_dsm.Vector_time.set vt_b q (24 - (q * 3))
    done
  in
  let tests =
    [
      Test.make ~name:"rle-encode-4k-page" (Staged.stage (fun () ->
          ignore (Tmk_util.Rle.encode ~old_:twin page)));
      Test.make ~name:"rle-apply-diff" (Staged.stage (fun () ->
          Tmk_util.Rle.apply diff (Bytes.copy twin)));
      Test.make ~name:"vector-time-leq" (Staged.stage (fun () ->
          ignore (Tmk_dsm.Vector_time.leq vt_a vt_b)));
      Test.make ~name:"vector-time-max" (Staged.stage (fun () ->
          let dst = Tmk_dsm.Vector_time.copy vt_a in
          Tmk_dsm.Vector_time.max_into ~src:vt_b ~dst));
      Test.make ~name:"prng-draw" (Staged.stage (
          let rng = Tmk_util.Prng.create 1L in
          fun () -> ignore (Tmk_util.Prng.bits64 rng)));
    ]
  in
  let benchmark test =
    let instance = Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 100) () in
    let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"micro" [ test ]) in
    let results =
      Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) instance raw
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.printf "  %-28s %10.1f ns/op\n" name est
        | _ -> Printf.printf "  %-28s (no estimate)\n" name)
      results
  in
  print_endline "Microbenchmarks (Bechamel, monotonic clock):";
  List.iter benchmark tests

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
  let run_one id =
    match Experiments.id_of_name id with
    | eid ->
      Printf.printf "=== %s: %s ===\n%s\n"
        (String.uppercase_ascii (Experiments.id_name eid))
        (Experiments.describe eid) (Experiments.run eid)
    | exception Invalid_argument _ ->
      let aid = Ablations.id_of_name id in
      Printf.printf "=== %s: %s ===\n%s\n"
        (String.uppercase_ascii (Ablations.id_name aid))
        (Ablations.describe aid) (Ablations.run aid)
  in
  (match args with
  | [] -> print_string (Experiments.run_all ())
  | [ "all" ] ->
    print_string (Experiments.run_all ());
    print_string (Ablations.run_all ());
    run_micro ()
  | [ "micro" ] -> run_micro ()
  | [ "ablation" ] -> print_string (Ablations.run_all ())
  | ids -> List.iter run_one ids);
  Printf.printf "\n[bench completed in %.1fs wall time]\n" (Unix.gettimeofday () -. t0)
