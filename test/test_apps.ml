(* Application correctness: each program's parallel execution on the DSM
   must reproduce its sequential reference, across protocols and cluster
   sizes. *)

open Tmk_dsm
open Tmk_apps

let check = Alcotest.check

let cfg ~nprocs ~pages ~protocol =
  { Config.default with nprocs; pages; protocol; seed = 3L }

let run_app ?(lrc_updates = false) ~nprocs ~pages ~protocol app =
  let out = ref None in
  let result =
    Api.run
      { (cfg ~nprocs ~pages ~protocol) with Config.lrc_updates }
      (fun ctx ->
        match app ctx with
        | Some r -> out := Some r
        | None -> ())
  in
  match !out with
  | Some r -> (r, result)
  | None -> Alcotest.fail "processor 0 produced no result"

(* ------------------------------------------------------------------ *)
(* Jacobi *)

let jacobi_params = { Jacobi.default with Jacobi.rows = 40; cols = 32; iters = 6 }

let jacobi_matches ~lrc_updates ~nprocs ~protocol () =
  let expected = Jacobi.sequential jacobi_params in
  let got, _ =
    run_app ~lrc_updates ~nprocs ~pages:(Jacobi.pages_needed jacobi_params) ~protocol
      (fun ctx -> Jacobi.parallel ctx jacobi_params)
  in
  Array.iteri
    (fun r row ->
      Array.iteri
        (fun c v ->
          if v <> expected.(r).(c) then
            Alcotest.failf "grid mismatch at (%d,%d): %g vs %g" r c v expected.(r).(c))
        row)
    got

(* The checksum runs are compared by: a checked run digests processor 0's
   grid, and at the harness's scale that digest is the sequential
   reference grid's. *)
let jacobi_checksum () =
  let module H = Tmk_harness.Harness in
  let cfg =
    H.config ~app:H.Jacobi ~nprocs:4 ~protocol:Config.Lrc ~net:Tmk_net.Params.atm_aal34
  in
  let reference = Jacobi.sequential H.jacobi_params in
  check Alcotest.bool "finite" true (Array.for_all (Array.for_all Float.is_finite) reference);
  check Alcotest.string "digest"
    (Digest.to_hex (Digest.string (Marshal.to_string reference [])))
    (snd (H.run_checked ~app:H.Jacobi cfg))

(* ------------------------------------------------------------------ *)
(* TSP *)

let tsp_params = { Tsp.default with Tsp.ncities = 9; prefix_depth = 3 }

let tsp_matches ~lrc_updates ~nprocs ~protocol () =
  let expected = Tsp.sequential tsp_params in
  let got, _ =
    run_app ~lrc_updates ~nprocs ~pages:(Tsp.pages_needed tsp_params) ~protocol (fun ctx ->
        Tsp.parallel ctx tsp_params)
  in
  check Alcotest.int "optimal tour length" expected.Tsp.best got.Tsp.best;
  check Alcotest.bool "expanded some nodes" true (got.Tsp.nodes_expanded > 0)

let tsp_optimum_brute_force () =
  (* Cross-check the branch and bound against exhaustive enumeration on a
     tiny instance. *)
  let p = { Tsp.default with Tsp.ncities = 7; prefix_depth = 2 } in
  let _, dist = Tmk_workload.Workload.cities ~n:7 ~seed:p.Tsp.seed in
  let best = ref max_int in
  let rec permute placed rest len =
    match rest with
    | [] ->
      let tour = len + dist.(placed).(0) in
      if tour < !best then best := tour
    | _ ->
      List.iter
        (fun c ->
          permute c (List.filter (( <> ) c) rest) (len + dist.(placed).(c)))
        rest
  in
  permute 0 [ 1; 2; 3; 4; 5; 6 ] 0;
  let r = Tsp.sequential p in
  check Alcotest.int "matches brute force" !best r.Tsp.best

(* ------------------------------------------------------------------ *)
(* Quicksort *)

let qsort_params = { Quicksort.default with Quicksort.n = 2048; threshold = 64 }

let quicksort_matches ~lrc_updates ~nprocs ~protocol () =
  let expected = Quicksort.sequential qsort_params in
  let got, _ =
    run_app ~lrc_updates ~nprocs ~pages:(Quicksort.pages_needed qsort_params) ~protocol
      (fun ctx -> Quicksort.parallel ctx qsort_params)
  in
  check Alcotest.bool "sorted equal" true (got = expected)

(* The parallel sort returns its input sorted, whatever the size, the
   bubble-sort threshold, the input and the processor count.  Sizes and
   thresholds stay where the pending tasks fit the 128-entry stack. *)
let quicksort_sorts_random_inputs =
  let gen =
    QCheck.Gen.(
      map
        (fun ((n, threshold, seed), (nprocs, protocol)) ->
          ({ Quicksort.default with Quicksort.n; threshold; seed = Int64.of_int seed }, nprocs,
           protocol))
        (pair
           (triple (int_range 1 2048) (int_range 16 512) (int_bound 1_000_000))
           (pair (int_range 2 4) (oneofl [ Config.Lrc; Config.Tardis ]))))
  in
  let print (p, nprocs, protocol) =
    Printf.sprintf "n %d, threshold %d, seed %Ld, %d processors, %s" p.Quicksort.n
      p.Quicksort.threshold p.Quicksort.seed nprocs (Config.protocol_name protocol)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"quicksort sorts random inputs" (QCheck.make ~print gen)
       (fun (p, nprocs, protocol) ->
         let expected = Tmk_workload.Workload.int_array ~n:p.Quicksort.n ~seed:p.Quicksort.seed in
         Array.sort compare expected;
         let got, _ =
           run_app ~nprocs ~pages:(Quicksort.pages_needed p) ~protocol (fun ctx ->
               Quicksort.parallel ctx p)
         in
         got = expected))

(* ------------------------------------------------------------------ *)
(* Water *)

let water_params = { Water.default with Water.nmol = 27; steps = 2 }

let water_matches ~lrc_updates ~nprocs ~protocol () =
  let expected = Water.sequential water_params in
  let got, _ =
    run_app ~lrc_updates ~nprocs ~pages:(Water.pages_needed water_params) ~protocol
      (fun ctx -> Water.parallel ctx water_params)
  in
  check (Alcotest.float 0.0) "energy exact" expected.Water.energy got.Water.energy;
  Array.iteri
    (fun i (x, y, z) ->
      let ex, ey, ez = expected.Water.positions.(i) in
      if x <> ex || y <> ey || z <> ez then
        Alcotest.failf "molecule %d position mismatch" i)
    got.Water.positions

let water_energy_moves () =
  (* the system is dynamic: positions change over steps *)
  let one = Water.sequential { water_params with Water.steps = 1 } in
  let two = Water.sequential { water_params with Water.steps = 2 } in
  check Alcotest.bool "positions evolve" true (one.Water.positions <> two.Water.positions)

(* ------------------------------------------------------------------ *)
(* ILINK *)

let ilink_params = { Ilink.default with Ilink.families = 12; iterations = 3 }

let ilink_matches ~lrc_updates ~nprocs ~protocol () =
  let expected = Ilink.sequential ilink_params in
  let got, _ =
    run_app ~lrc_updates ~nprocs ~pages:(Ilink.pages_needed ilink_params) ~protocol
      (fun ctx -> Ilink.parallel ctx ilink_params)
  in
  check (Alcotest.float 0.0) "log likelihood exact" expected.Ilink.log_likelihood
    got.Ilink.log_likelihood;
  check (Alcotest.float 0.0) "theta" expected.Ilink.theta got.Ilink.theta

let ilink_sizes_are_skewed () =
  let sizes = Tmk_workload.Workload.pedigree_sizes ~families:60 ~seed:1L in
  let small = Array.fold_left (fun acc s -> if s <= 6 then acc + 1 else acc) 0 sizes in
  let large = Array.length sizes - small in
  check Alcotest.bool "mostly small" true (small > large);
  check Alcotest.bool "some large" true (large > 0)

(* ------------------------------------------------------------------ *)
(* Paper-shape checks *)

(* §5.2: TSP under LRC does redundant work against stale bounds that
   ERC's eager updates avoid — eager should expand no more nodes. *)
let tsp_stale_bound_shape () =
  let p = { Tsp.default with Tsp.ncities = 10; prefix_depth = 3 } in
  let lazy_r, _ =
    run_app ~nprocs:4 ~pages:(Tsp.pages_needed p) ~protocol:Config.Lrc (fun ctx ->
        Tsp.parallel ctx p)
  in
  let eager_r, _ =
    run_app ~nprocs:4 ~pages:(Tsp.pages_needed p) ~protocol:Config.Erc (fun ctx ->
        Tsp.parallel ctx p)
  in
  check Alcotest.int "same optimum" lazy_r.Tsp.best eager_r.Tsp.best;
  check Alcotest.bool "eager expands no more nodes" true
    (eager_r.Tsp.nodes_expanded <= lazy_r.Tsp.nodes_expanded)

(* Water's signature: lots of lock traffic and messages per unit time. *)
let water_is_communication_heavy () =
  let _, water_run =
    run_app ~nprocs:4 ~pages:(Water.pages_needed water_params) ~protocol:Config.Lrc
      (fun ctx -> Water.parallel ctx water_params)
  in
  let _, jacobi_run =
    run_app ~nprocs:4 ~pages:(Jacobi.pages_needed jacobi_params) ~protocol:Config.Lrc
      (fun ctx -> Jacobi.parallel ctx jacobi_params)
  in
  let rate r =
    float_of_int r.Api.messages /. Tmk_sim.Vtime.to_s r.Api.total_time
  in
  check Alcotest.bool "water messages/sec much higher" true
    (rate water_run > 2.0 *. rate jacobi_run);
  check Alcotest.bool "water used many locks" true
    (water_run.Api.total_stats.Stats.lock_acquires > 100)

(* Garbage collection interleaved with a lock-heavy application: Water
   with a tiny record threshold must still match its reference. *)
let water_with_gc () =
  let p = { Water.default with Water.nmol = 27; steps = 3 } in
  let expected = Water.sequential p in
  let c =
    {
      Config.default with
      Config.nprocs = 4;
      pages = Water.pages_needed p;
      gc_threshold = 50;
      seed = 3L;
    }
  in
  let out = ref None in
  let r =
    Api.run c (fun ctx ->
        match Water.parallel ctx p with Some x -> out := Some x | None -> ())
  in
  check Alcotest.bool "gc actually ran" true (r.Api.total_stats.Stats.gc_runs > 0);
  let got = Option.get !out in
  check (Alcotest.float 0.0) "energy exact despite gc" expected.Water.energy
    got.Water.energy;
  check Alcotest.bool "positions exact despite gc" true
    (got.Water.positions = expected.Water.positions)

let matrix name f =
  let plain = f ~lrc_updates:false in
  [
    Alcotest.test_case (name ^ " lrc 2p") `Quick (plain ~nprocs:2 ~protocol:Config.Lrc);
    Alcotest.test_case (name ^ " lrc 4p") `Quick (plain ~nprocs:4 ~protocol:Config.Lrc);
    Alcotest.test_case (name ^ " lrc 8p") `Slow (plain ~nprocs:8 ~protocol:Config.Lrc);
    Alcotest.test_case (name ^ " erc 4p") `Quick (plain ~nprocs:4 ~protocol:Config.Erc);
    Alcotest.test_case (name ^ " sc 4p") `Quick (plain ~nprocs:4 ~protocol:Config.Sc);
    Alcotest.test_case (name ^ " sc 2p") `Quick (plain ~nprocs:2 ~protocol:Config.Sc);
    Alcotest.test_case (name ^ " lrc+updates 4p") `Quick
      (f ~lrc_updates:true ~nprocs:4 ~protocol:Config.Lrc);
    Alcotest.test_case (name ^ " 1p") `Quick (plain ~nprocs:1 ~protocol:Config.Lrc);
  ]

(* The single-writer baseline ping-pongs whole pages under false sharing
   (§2.3), where the multiple-writer protocol merges diffs: same program,
   wildly different traffic. *)
let false_sharing_page_pingpong () =
  let program rounds ctx =
    let arr = Api.ialloc ctx 8 in
    (* 8 slots on ONE page, one slot per processor *)
    if Api.pid ctx = 0 then
      for s = 0 to 7 do
        Api.iset ctx arr s 0
      done;
    Api.barrier ctx 0;
    for r = 1 to rounds do
      Api.iset ctx arr (Api.pid ctx) r;
      Api.barrier ctx r
    done
  in
  let run protocol =
    Api.run (cfg ~nprocs:4 ~pages:4 ~protocol) (program 10)
  in
  let lrc = run Config.Lrc and sc = run Config.Sc in
  check Alcotest.bool "sc moves much more data" true (sc.Api.bytes > 3 * lrc.Api.bytes);
  check Alcotest.bool "sc fetches whole pages repeatedly" true
    (sc.Api.total_stats.Stats.page_fetches > 5 * lrc.Api.total_stats.Stats.page_fetches);
  check Alcotest.bool "sc is slower" true (sc.Api.total_time > lrc.Api.total_time)

let sc_read_replication () =
  (* many readers of one page: each fetches the page once; a later write
     invalidates all of them *)
  let r =
    Api.run (cfg ~nprocs:4 ~pages:4 ~protocol:Config.Sc) (fun ctx ->
        let arr = Api.ialloc ctx 8 in
        if Api.pid ctx = 0 then Api.iset ctx arr 0 7;
        Api.barrier ctx 0;
        check Alcotest.int "read replicated" 7 (Api.iget ctx arr 0);
        Api.barrier ctx 1;
        if Api.pid ctx = 3 then Api.iset ctx arr 1 9;
        Api.barrier ctx 2;
        check Alcotest.int "invalidated then refetched" 9 (Api.iget ctx arr 1))
  in
  check Alcotest.bool "page fetches happened" true
    (r.Api.total_stats.Stats.page_fetches >= 3)

let suite =
  matrix "jacobi" jacobi_matches
  @ matrix "tsp" tsp_matches
  @ matrix "quicksort" quicksort_matches
  @ matrix "water" water_matches
  @ matrix "ilink" ilink_matches
  @ [
      Alcotest.test_case "jacobi checksum" `Quick jacobi_checksum;
      Alcotest.test_case "tsp brute force" `Quick tsp_optimum_brute_force;
      quicksort_sorts_random_inputs;
      Alcotest.test_case "water dynamics evolve" `Quick water_energy_moves;
      Alcotest.test_case "ilink sizes skewed" `Quick ilink_sizes_are_skewed;
      Alcotest.test_case "tsp stale bound shape" `Quick tsp_stale_bound_shape;
      Alcotest.test_case "water communication heavy" `Quick water_is_communication_heavy;
      Alcotest.test_case "false sharing page ping-pong" `Quick false_sharing_page_pingpong;
      Alcotest.test_case "sc read replication" `Quick sc_read_replication;
      Alcotest.test_case "water with gc" `Quick water_with_gc;
    ]
