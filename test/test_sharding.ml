(* The sharded metadata plane: consistent-hash ownership ring, tree
   barriers, and their equivalence to the flat design.

   - ring placement is a pure function of (nprocs, seed, vnodes): two
     builds agree key for key, and a different seed moves keys;
   - shards spread across processors (no constant-fraction hot spot);
   - a death moves exactly the dead owner's shards, every other key
     keeps its owner (the minimal-migration property recovery relies
     on);
   - tree-combining barriers and ring-sharded ownership are pure
     message-topology changes: applications digest identically to the
     flat runs, with and without a GC phase riding the barrier;
   - the protocol invariant oracle (barrier epoch agreement, interval
     coverage) stays clean when arrivals combine up a tree;
   - a crash under ring sharding still completes (the ring's live walk
     replaces the cyclic managership seek);
   - configuration validation: tree arities below 2, tree barriers with
     crash schedules, and processor counts above a backend's ceiling are
     rejected. *)

open Tmk_dsm
module Harness = Tmk_harness.Harness
module Ring = Tmk_dsm.Ring
module Fault_plan = Tmk_net.Fault_plan

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Ring placement                                                      *)

let all_live nprocs =
  List.fold_left Tmk_util.Bitset.with_member (Tmk_util.Bitset.create nprocs)
    (List.init nprocs Fun.id)

let nkeys = 4096

let owners ring ~live =
  Array.init nkeys (fun k -> Ring.owner ring live (Ring.page_key k))

let ring_deterministic () =
  List.iter
    (fun (nprocs, seed) ->
      let a = Ring.create ~nprocs ~seed () in
      let b = Ring.create ~nprocs ~seed () in
      check
        Alcotest.(array int)
        (Printf.sprintf "same placement at nprocs=%d seed=%Ld" nprocs seed)
        (owners a ~live:(all_live nprocs)) (owners b ~live:(all_live nprocs));
      Array.iter
        (fun o -> check Alcotest.bool "owner in range" true (o >= 0 && o < nprocs))
        (owners a ~live:(all_live nprocs)))
    [ (8, 1994L); (64, 1994L); (256, 7L); (1024, 42L) ]

let ring_seed_sensitive () =
  let a = Ring.create ~nprocs:64 ~seed:1L () in
  let b = Ring.create ~nprocs:64 ~seed:2L () in
  check Alcotest.bool "different seeds move keys" true
    (owners a ~live:(all_live 64) <> owners b ~live:(all_live 64))

let ring_namespaces_disjoint () =
  (* Page i and lock i need not agree; over many indices they must not
     all collide (the namespaces really are distinct key spaces). *)
  let ring = Ring.create ~nprocs:64 ~seed:1994L () in
  let page_owner i = Ring.owner ring (all_live 64) (Ring.page_key i) in
  let lock_owner i = Ring.owner ring (all_live 64) (Ring.lock_key i) in
  let same = ref 0 in
  for i = 0 to 255 do
    if page_owner i = lock_owner i then incr same
  done;
  check Alcotest.bool "page and lock spaces differ somewhere" true (!same < 256)

let ring_balanced () =
  List.iter
    (fun nprocs ->
      let ring = Ring.create ~nprocs ~seed:1994L () in
      let shards = Array.make nprocs 0 in
      for k = 0 to nkeys - 1 do
        let o = Ring.owner ring (all_live nprocs) (Ring.page_key k) in
        shards.(o) <- shards.(o) + 1
      done;
      let mean = float_of_int nkeys /. float_of_int nprocs in
      Array.iteri
        (fun pid n ->
          if float_of_int n > 6.0 *. mean then
            Alcotest.failf "nprocs=%d: processor %d owns %d of %d keys (mean %.1f)"
              nprocs pid n nkeys mean)
        shards)
    [ 16; 64; 256 ]

let ring_minimal_migration () =
  let nprocs = 32 in
  let ring = Ring.create ~nprocs ~seed:1994L () in
  let before = owners ring ~live:(all_live nprocs) in
  (* Kill the owner of key 0, so at least one shard must move. *)
  let dead = before.(0) in
  let live = Tmk_util.Bitset.without_member (all_live nprocs) dead in
  let after = owners ring ~live in
  let moved = ref 0 in
  Array.iteri
    (fun k b ->
      if b = dead then begin
        incr moved;
        check Alcotest.bool
          (Printf.sprintf "key %d left the dead owner" k)
          true
          (after.(k) <> dead)
      end
      else
        check Alcotest.int (Printf.sprintf "key %d kept its owner" k) b after.(k))
    before;
  check Alcotest.bool "the dead owner held shards that moved" true (!moved > 0)

(* ------------------------------------------------------------------ *)
(* Digest equivalence: the sharded plane is a topology change only.    *)

let sharded_cfg ~app ~nprocs ~protocol =
  let cfg = Harness.config ~app ~nprocs ~protocol ~net:Tmk_net.Params.atm_aal34 in
  { cfg with Config.sharding = true; barrier_tree = true }

let flat_cfg ~app ~nprocs ~protocol =
  Harness.config ~app ~nprocs ~protocol ~net:Tmk_net.Params.atm_aal34

let digest_pair ~app ~nprocs ~protocol ~mutate =
  let _, flat = Harness.run_checked ~app (mutate (flat_cfg ~app ~nprocs ~protocol)) in
  let _, sharded = Harness.run_checked ~app (mutate (sharded_cfg ~app ~nprocs ~protocol)) in
  (flat, sharded)

let tree_matches_flat () =
  List.iter
    (fun (app, nprocs, protocol) ->
      let flat, sharded = digest_pair ~app ~nprocs ~protocol ~mutate:Fun.id in
      check Alcotest.string
        (Printf.sprintf "%s at %d procs under %s" (Harness.app_name app) nprocs
           (Config.protocol_name protocol))
        flat sharded)
    [
      (Harness.Jacobi, 8, Config.Lrc);
      (Harness.Jacobi, 64, Config.Lrc);
      (Harness.Jacobi, 16, Config.Tardis);
      (Harness.Tsp, 16, Config.Lrc);
      (Harness.Quicksort, 8, Config.Lrc);
      (Harness.Water, 8, Config.Lrc);
      (Harness.Ilink, 8, Config.Lrc);
    ]

(* Odd arities change the tree shape, not the answer. *)
let tree_arity_invariant () =
  let digest arity =
    let cfg = { (sharded_cfg ~app:Harness.Jacobi ~nprocs:16 ~protocol:Config.Lrc) with
                Config.tree_arity = arity } in
    snd (Harness.run_checked ~app:Harness.Jacobi cfg)
  in
  let d2 = digest 2 and d3 = digest 3 and d8 = digest 8 in
  check Alcotest.string "arity 2 = arity 3" d2 d3;
  check Alcotest.string "arity 2 = arity 8" d2 d8

let gc_through_tree_matches_flat () =
  let mutate cfg = { cfg with Config.gc_threshold = 40 } in
  let run cfg =
    let m, digest = Harness.run_checked ~app:Harness.Jacobi cfg in
    (m.Harness.m_raw.Api.total_stats.Stats.gc_runs, digest)
  in
  let flat_gc, flat =
    run (mutate (flat_cfg ~app:Harness.Jacobi ~nprocs:16 ~protocol:Config.Lrc))
  in
  let tree_gc, sharded =
    run (mutate (sharded_cfg ~app:Harness.Jacobi ~nprocs:16 ~protocol:Config.Lrc))
  in
  check Alcotest.bool "the flat run garbage-collected" true (flat_gc > 0);
  check Alcotest.bool "the tree run garbage-collected" true (tree_gc > 0);
  check Alcotest.string "digests agree with GC riding the barrier" flat sharded

(* ------------------------------------------------------------------ *)
(* The invariant oracle stays clean on tree runs (I4: all processors
   agree on each barrier's epoch, now established level by level).     *)

let oracle_clean_on_tree_run () =
  let p = { Tmk_apps.Jacobi.default with Tmk_apps.Jacobi.rows = 40; cols = 32; iters = 6 } in
  let nprocs = 16 in
  let oracle = Tmk_check.Oracle.create ~nprocs () in
  let cfg =
    {
      Config.default with
      Config.nprocs;
      pages = Tmk_apps.Jacobi.pages_needed p;
      seed = 99L;
      sharding = true;
      barrier_tree = true;
      check = Some (Tmk_check.Checker.create ~oracle ());
    }
  in
  let _ = Api.run cfg (fun ctx -> ignore (Tmk_apps.Jacobi.parallel ctx p)) in
  check
    Alcotest.(list string)
    "no invariant violations" [] (Tmk_check.Oracle.finish oracle)

(* ------------------------------------------------------------------ *)
(* Crash recovery composes with ring-sharded lock managership.         *)

let sharded_crash_completes () =
  let app = Harness.Tsp in
  let base = Harness.config ~app ~nprocs:8 ~protocol:Config.Lrc ~net:Tmk_net.Params.atm_aal34 in
  let cfg =
    {
      base with
      Config.sharding = true;
      faults = Fault_plan.with_crash Fault_plan.none ~pid:5 ~at:(Tmk_sim.Vtime.ms 40);
    }
  in
  let m, digest = Harness.run_checked ~app cfg in
  check Alcotest.bool "the run produced an answer" true (digest <> "");
  check Alcotest.bool "the crash was detected and recovered" true
    (m.Harness.m_raw.Api.recoveries <> [])

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)

let rejects_invalid_configs () =
  let expect_invalid name cfg =
    match Protocol.create cfg with
    | exception Invalid_argument _ -> ()
    | (_ : Protocol.t) -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "tree arity below 2"
    { Config.default with Config.nprocs = 4; pages = 4; barrier_tree = true; tree_arity = 1 };
  expect_invalid "tree barriers with a crash schedule"
    {
      Config.default with
      Config.nprocs = 4;
      pages = 4;
      barrier_tree = true;
      faults = Fault_plan.with_crash Fault_plan.none ~pid:2 ~at:(Tmk_sim.Vtime.ms 1);
    };
  expect_invalid "sc-abd beyond its 64-processor ceiling"
    { Config.default with Config.nprocs = 128; pages = 4; protocol = Config.Sc_abd };
  (* and the ceilings admit what they claim to *)
  ignore
    (Protocol.create
       { Config.default with Config.nprocs = 64; pages = 4; protocol = Config.Sc_abd });
  ignore
    (Protocol.create
       { Config.default with Config.nprocs = 1024; pages = 4; sharding = true; barrier_tree = true })

let suite =
  [
    Alcotest.test_case "ring placement deterministic across builds" `Quick ring_deterministic;
    Alcotest.test_case "ring placement depends on the seed" `Quick ring_seed_sensitive;
    Alcotest.test_case "page and lock key spaces are distinct" `Quick ring_namespaces_disjoint;
    Alcotest.test_case "shards spread across processors" `Quick ring_balanced;
    Alcotest.test_case "a death moves exactly the dead owner's shards" `Quick
      ring_minimal_migration;
    Alcotest.test_case "tree barriers digest-identically to flat" `Slow tree_matches_flat;
    Alcotest.test_case "tree arity does not change the answer" `Slow tree_arity_invariant;
    Alcotest.test_case "GC through the tree matches flat" `Slow gc_through_tree_matches_flat;
    Alcotest.test_case "invariant oracle clean on tree runs" `Slow oracle_clean_on_tree_run;
    Alcotest.test_case "crash recovery composes with ring sharding" `Slow
      sharded_crash_completes;
    Alcotest.test_case "invalid sharding configs rejected" `Quick rejects_invalid_configs;
  ]
