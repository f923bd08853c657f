(* The benchmark's four workloads: one application run each, at the
   experiment scale of [Tmk_harness.Harness], on ATM/AAL3/4.

   Seeds.  Benchmark seed 0 is the default and reproduces the Harness
   inputs exactly (each app's own params seed, [Config.seed = 1994]).
   Seed [n] sets [Config.seed = 1994 + n] on every workload (the sharding
   ring's placement; fault plans are off) and offsets the app's params
   seed by [n] only where the amount of work does not depend on the input
   values: Jacobi's grid.  The other three keep the Harness instance,
   because their work follows the data: TSP's search length depends on
   its city seed (seeds 7, 8 and 42 give 6.7, 3.4 and 5.8 simulated
   seconds), Quicksort's pivots move its busiest processor's frames by
   about 15 % and Water's molecule positions its allocation by about 10 %
   between seeds, any of which would swamp the regression bounds.
   [held_out] is the seed to quote claims on; it was not used while the
   benchmark was tuned. *)

open Tmk_dsm
module H = Tmk_harness.Harness

type t = {
  name : string;
  app : H.app;
  nprocs : int;
  protocol : Config.protocol;
  scaled : bool;  (** ring sharding and tree barriers on *)
  seeded_data : bool;  (** the app's params seed follows the benchmark seed *)
}

let all =
  [
    { name = "tsp-8"; app = H.Tsp; nprocs = 8; protocol = Config.Lrc; scaled = false; seeded_data = false };
    { name = "water-16"; app = H.Water; nprocs = 16; protocol = Config.Lrc; scaled = false; seeded_data = false };
    { name = "jacobi-256-sharded"; app = H.Jacobi; nprocs = 256; protocol = Config.Lrc; scaled = true;
      seeded_data = true };
    { name = "quicksort-8-tardis"; app = H.Quicksort; nprocs = 8; protocol = Config.Tardis; scaled = false;
      seeded_data = false };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
let default_seed = 0
let held_out = 42

let config w ~seed =
  {
    (H.config ~app:w.app ~nprocs:w.nprocs ~protocol:w.protocol ~net:Tmk_net.Params.atm_aal34) with
    Config.seed = Int64.add 1994L (Int64.of_int seed);
    sharding = w.scaled;
    barrier_tree = w.scaled;
  }

let data_seed w ~seed base = if w.seeded_data then Int64.add base (Int64.of_int seed) else base

let water w ~seed = { H.water_params with Tmk_apps.Water.seed = data_seed w ~seed H.water_params.Tmk_apps.Water.seed }
let jacobi w ~seed = { H.jacobi_params with Tmk_apps.Jacobi.seed = data_seed w ~seed H.jacobi_params.Tmk_apps.Jacobi.seed }
let tsp w ~seed = { H.tsp_params with Tmk_apps.Tsp.seed = data_seed w ~seed H.tsp_params.Tmk_apps.Tsp.seed }
let quicksort w ~seed = { H.quicksort_params with Tmk_apps.Quicksort.seed = data_seed w ~seed H.quicksort_params.Tmk_apps.Quicksort.seed }

(* The timed body: no result read-back, as in [Harness.body]. *)
let body w ~seed ctx =
  match w.app with
  | H.Water -> ignore (Tmk_apps.Water.parallel ~collect:false ctx (water w ~seed))
  | H.Jacobi -> ignore (Tmk_apps.Jacobi.parallel ~collect:false ctx (jacobi w ~seed))
  | H.Tsp -> ignore (Tmk_apps.Tsp.parallel ctx (tsp w ~seed))
  | H.Quicksort -> ignore (Tmk_apps.Quicksort.parallel ~collect:false ctx (quicksort w ~seed))
  | _ -> invalid_arg "Workloads.body"

(* Digests hash the schedule-independent result exactly as
   [Harness.run_checked] does, so the seed-0 digests equal its output. *)
let digest v = Digest.to_hex (Digest.string (Marshal.to_string v []))

(* [checked w ~seed] — a body that collects the result on processor 0, and
   a thunk reading back its digest ([None] when nothing was collected). *)
let checked w ~seed =
  let out = ref None in
  let put v = if !out = None then out := Some (digest v) in
  let body ctx =
    match w.app with
    | H.Water ->
      Option.iter
        (fun r -> put (r.Tmk_apps.Water.energy, r.Tmk_apps.Water.positions))
        (Tmk_apps.Water.parallel ~collect:true ctx (water w ~seed))
    | H.Jacobi -> Option.iter put (Tmk_apps.Jacobi.parallel ~collect:true ctx (jacobi w ~seed))
    | H.Tsp -> Option.iter (fun r -> put r.Tmk_apps.Tsp.best) (Tmk_apps.Tsp.parallel ctx (tsp w ~seed))
    | H.Quicksort -> Option.iter put (Tmk_apps.Quicksort.parallel ~collect:true ctx (quicksort w ~seed))
    | _ -> invalid_arg "Workloads.checked"
  in
  (body, fun () -> !out)

(* The sequential reference result, digested the same way. *)
let reference w ~seed =
  match w.app with
  | H.Water ->
    let r = Tmk_apps.Water.sequential (water w ~seed) in
    digest (r.Tmk_apps.Water.energy, r.Tmk_apps.Water.positions)
  | H.Jacobi -> digest (Tmk_apps.Jacobi.sequential (jacobi w ~seed))
  | H.Tsp -> digest (Tmk_apps.Tsp.sequential (tsp w ~seed)).Tmk_apps.Tsp.best
  | H.Quicksort -> digest (Tmk_apps.Quicksort.sequential (quicksort w ~seed))
  | _ -> invalid_arg "Workloads.reference"

(* Reference digests of the DSM result at the default and the held-out
   seed.  Only Jacobi varies its data with the seed, so only its two
   digests differ. *)
let committed =
  [
    (("tsp-8", default_seed), "3d826e62141c5e93901328c36938ffd5");
    (("tsp-8", held_out), "3d826e62141c5e93901328c36938ffd5");
    (("water-16", default_seed), "c7f75ef5b495806f2415bc74c79a0354");
    (("water-16", held_out), "c7f75ef5b495806f2415bc74c79a0354");
    (("jacobi-256-sharded", default_seed), "bbaeb195790d70dceca49ee7011091ab");
    (("jacobi-256-sharded", held_out), "2b2f3152094274d9bcd48bdc7cc4b9a8");
    (("quicksort-8-tardis", default_seed), "a2d0b03ff32450c2bf75a292c27441eb");
    (("quicksort-8-tardis", held_out), "a2d0b03ff32450c2bf75a292c27441eb");
  ]

let committed_digest w ~seed = List.assoc_opt (w.name, seed) committed
