open Tmk_sim
open Tmk_dsm

type app = Water | Jacobi | Tsp | Quicksort | Ilink | Racey | Racey2

(* Racey and Racey2 are deliberately excluded: they are the race
   detector's and the lockset analyzer's positive fixtures, not
   benchmarks. *)
let all_apps = [ Water; Jacobi; Tsp; Quicksort; Ilink ]

let app_name = function
  | Water -> "Water"
  | Jacobi -> "Jacobi"
  | Tsp -> "TSP"
  | Quicksort -> "Quicksort"
  | Ilink -> "ILINK"
  | Racey -> "Racey"
  | Racey2 -> "Racey2"

let app_of_name s =
  (* Accept a source path too ("examples/racey.ml" names the same app). *)
  let s = Filename.remove_extension (Filename.basename s) in
  match String.lowercase_ascii s with
  | "water" -> Water
  | "jacobi" -> Jacobi
  | "tsp" -> Tsp
  | "quicksort" | "qsort" -> Quicksort
  | "ilink" -> Ilink
  | "racey" -> Racey
  | "racey2" -> Racey2
  | other -> invalid_arg (Printf.sprintf "Harness.app_of_name: unknown application %S" other)

type metrics = {
  m_app : app;
  m_nprocs : int;
  m_protocol : Config.protocol;
  m_net : string;
  m_time_s : float;
  m_barriers_per_sec : float;
  m_locks_per_sec : float;
  m_msgs_per_sec : float;
  m_kbytes_per_sec : float;
  m_diffs_per_sec : float;
  m_comp_pct : float;
  m_unix_comm_pct : float;
  m_unix_mem_pct : float;
  m_tmk_mem_pct : float;
  m_tmk_consistency_pct : float;
  m_tmk_other_pct : float;
  m_idle_pct : float;
  m_raw : Api.run_result;
}

let unix_pct m = m.m_unix_comm_pct +. m.m_unix_mem_pct
let tmk_pct m = m.m_tmk_mem_pct +. m.m_tmk_consistency_pct +. m.m_tmk_other_pct

(* Experiment workloads: scaled-down versions of the paper's inputs (343
   molecules -> 125, 2000x1000 grid -> 256x192, 19 cities -> 12, 256K
   integers -> 32K, 12 CLP families -> 32 synthetic pedigrees), with
   per-operation costs set so the 8-processor communication/computation
   ratios fall in the same regimes as Figure 4. *)
let water_params =
  {
    Tmk_apps.Water.default with
    Tmk_apps.Water.nmol = 216;
    steps = 3;
    flops_per_pair = 600;
    flops_per_molecule = 30;
  }

let jacobi_params =
  {
    Tmk_apps.Jacobi.default with
    Tmk_apps.Jacobi.rows = 128;
    cols = 512;
    iters = 16;
    flops_per_point = 320;
  }

let tsp_params = { Tmk_apps.Tsp.default with Tmk_apps.Tsp.ncities = 12; prefix_depth = 3 }

let quicksort_params =
  {
    Tmk_apps.Quicksort.default with
    Tmk_apps.Quicksort.n = 131_072;
    threshold = 1024;
    flops_per_compare = 8;
  }

let ilink_params =
  {
    Tmk_apps.Ilink.default with
    Tmk_apps.Ilink.families = 96;
    iterations = 6;
    flops_per_unit = 500;
  }

let racey_params = Tmk_apps.Racey.default
let racey2_params = Tmk_apps.Racey2.default

let workload_description = function
  | Water ->
    Printf.sprintf "%d mols, %d steps" water_params.Tmk_apps.Water.nmol
      water_params.Tmk_apps.Water.steps
  | Jacobi ->
    Printf.sprintf "%dx%d floats, %d iters" jacobi_params.Tmk_apps.Jacobi.rows
      jacobi_params.Tmk_apps.Jacobi.cols jacobi_params.Tmk_apps.Jacobi.iters
  | Tsp -> Printf.sprintf "%d-city tour" tsp_params.Tmk_apps.Tsp.ncities
  | Quicksort -> Printf.sprintf "%d integers" quicksort_params.Tmk_apps.Quicksort.n
  | Ilink -> Printf.sprintf "%d pedigrees" ilink_params.Tmk_apps.Ilink.families
  | Racey ->
    Printf.sprintf "%d items, %d racy buckets" racey_params.Tmk_apps.Racey.items
      racey_params.Tmk_apps.Racey.buckets
  | Racey2 ->
    Printf.sprintf "%d lock rounds, 1 unprotected flag"
      racey2_params.Tmk_apps.Racey2.rounds

let pages_for = function
  | Water -> Tmk_apps.Water.pages_needed water_params
  | Jacobi -> Tmk_apps.Jacobi.pages_needed jacobi_params
  | Tsp -> Tmk_apps.Tsp.pages_needed tsp_params
  | Quicksort -> Tmk_apps.Quicksort.pages_needed quicksort_params
  | Ilink -> Tmk_apps.Ilink.pages_needed ilink_params
  | Racey -> Tmk_apps.Racey.pages_needed racey_params
  | Racey2 -> Tmk_apps.Racey2.pages_needed racey2_params

let config ~app ~nprocs ~protocol ~net =
  { Config.default with Config.nprocs; pages = pages_for app; protocol; net; seed = 1994L }

(* Timing runs skip the result read-back: the paper measures the
   application, not the experimenter copying the answer out. *)
let body app ctx =
  match app with
  | Water -> ignore (Tmk_apps.Water.parallel ~collect:false ctx water_params)
  | Jacobi -> ignore (Tmk_apps.Jacobi.parallel ~collect:false ctx jacobi_params)
  | Tsp -> ignore (Tmk_apps.Tsp.parallel ctx tsp_params)
  | Quicksort -> ignore (Tmk_apps.Quicksort.parallel ~collect:false ctx quicksort_params)
  | Ilink -> ignore (Tmk_apps.Ilink.parallel ctx ilink_params)
  | Racey -> ignore (Tmk_apps.Racey.parallel ~collect:false ctx racey_params)
  | Racey2 -> ignore (Tmk_apps.Racey2.parallel ctx racey2_params)

let metrics_of_raw ~app cfg raw =
  let nprocs = cfg.Config.nprocs in
  let time_s = Vtime.to_s raw.Api.total_time in
  let per_sec n = float_of_int n /. time_s in
  let total_busy cat =
    let acc = ref 0 in
    for p = 0 to nprocs - 1 do
      acc := !acc + raw.Api.busy.(p).(Category.index cat)
    done;
    !acc
  in
  let denominator = float_of_int (nprocs * raw.Api.total_time) in
  let pct cat = 100.0 *. float_of_int (total_busy cat) /. denominator in
  let idle_total = Array.fold_left ( + ) 0 raw.Api.idle in
  let s = raw.Api.total_stats in
  {
    m_app = app;
    m_nprocs = nprocs;
    m_protocol = cfg.Config.protocol;
    m_net = Tmk_net.Params.name cfg.Config.net;
    m_time_s = time_s;
    m_barriers_per_sec = per_sec s.Stats.barriers /. float_of_int nprocs;
    m_locks_per_sec = per_sec s.Stats.lock_acquires;
    m_msgs_per_sec = per_sec raw.Api.messages;
    m_kbytes_per_sec = per_sec raw.Api.bytes /. 1024.0;
    m_diffs_per_sec = per_sec s.Stats.diffs_created;
    m_comp_pct = pct Category.Computation;
    m_unix_comm_pct = pct Category.Unix_comm;
    m_unix_mem_pct = pct Category.Unix_mem;
    m_tmk_mem_pct = pct Category.Tmk_mem;
    m_tmk_consistency_pct = pct Category.Tmk_consistency;
    m_tmk_other_pct = pct Category.Tmk_other;
    m_idle_pct = 100.0 *. float_of_int idle_total /. denominator;
    m_raw = raw;
  }

let run_cfg ?trace ~app cfg = metrics_of_raw ~app cfg (Api.run ?trace cfg (body app))

let run ~app ~nprocs ~protocol ~net = run_cfg ~app (config ~app ~nprocs ~protocol ~net)

(* Per-processor execution-time breakdown with idle reported explicitly
   as makespan − Σ busy categories (the paper's figure decompositions
   include idle; Category.t does not, so it is derived, never charged). *)
let breakdown_table m =
  let raw = m.m_raw in
  let ms v = Printf.sprintf "%.3f" (Vtime.to_ms v) in
  let header =
    [ "cpu"; "comp"; "unix comm"; "unix mem"; "tmk mem"; "tmk cons"; "tmk other";
      "busy"; "idle"; "total" ]
  in
  let row pid =
    let busy cat = raw.Api.busy.(pid).(Category.index cat) in
    let busy_sum =
      Array.fold_left Vtime.add Vtime.zero raw.Api.busy.(pid)
    in
    [ string_of_int pid; ms (busy Category.Computation); ms (busy Category.Unix_comm);
      ms (busy Category.Unix_mem); ms (busy Category.Tmk_mem);
      ms (busy Category.Tmk_consistency); ms (busy Category.Tmk_other);
      ms busy_sum; ms raw.Api.idle.(pid); ms raw.Api.total_time ]
  in
  Tmk_util.Tablefmt.render
    ~title:"Per-processor breakdown (ms; idle = makespan − Σ busy)"
    ~header
    (List.init m.m_nprocs row)

(* Checked runs collect the DSM result on processor 0 and hash the
   schedule-independent part: a correctly synchronized program must
   produce the same answer whatever the network does to the messages.
   TSP's [nodes_expanded] is excluded — it depends on when bound updates
   propagate, which faults legitimately shift. *)
let run_checked ~app cfg =
  let digest = ref "" in
  let put v =
    if !digest = "" then
      digest := Stdlib.Digest.to_hex (Stdlib.Digest.string (Marshal.to_string v []))
  in
  let checked_body ctx =
    match app with
    | Water -> (
      match Tmk_apps.Water.parallel ~collect:true ctx water_params with
      | Some r -> put (r.Tmk_apps.Water.energy, r.Tmk_apps.Water.positions)
      | None -> ())
    | Jacobi -> (
      match Tmk_apps.Jacobi.parallel ~collect:true ctx jacobi_params with
      | Some grid -> put grid
      | None -> ())
    | Tsp -> (
      match Tmk_apps.Tsp.parallel ctx tsp_params with
      | Some r -> put r.Tmk_apps.Tsp.best
      | None -> ())
    | Quicksort -> (
      match Tmk_apps.Quicksort.parallel ~collect:true ctx quicksort_params with
      | Some sorted -> put sorted
      | None -> ())
    | Ilink -> (
      match Tmk_apps.Ilink.parallel ctx ilink_params with
      | Some r -> put (r.Tmk_apps.Ilink.log_likelihood, r.Tmk_apps.Ilink.theta)
      | None -> ())
    | Racey -> (
      (* Racy by design, so the counts are schedule-dependent — but the
         schedule is deterministic per seed, so the digest still is. *)
      match Tmk_apps.Racey.parallel ~collect:true ctx racey_params with
      | Some hist -> put hist
      | None -> ())
    | Racey2 -> (
      match Tmk_apps.Racey2.parallel ctx racey2_params with
      | Some count -> put count
      | None -> ())
  in
  let raw = Api.run cfg checked_body in
  (metrics_of_raw ~app cfg raw, !digest)

(* Independent simulation arms on OCaml 5 domains.  Every run builds its
   own cluster, engine and RNG streams from the config's seed, so arms
   share no mutable state; results land in an index-keyed slot array, so
   the output order (and therefore every report built from it) is
   identical to the sequential order whatever the interleaving. *)
let parallel_map ~jobs f items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  if jobs <= 1 || n <= 1 then List.map f items
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <- Some (f arr.(i));
        worker ()
      end
    in
    let helpers = List.init (min jobs n - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join helpers;
    Array.to_list (Array.map (function Some r -> r | None -> assert false) results)
  end
