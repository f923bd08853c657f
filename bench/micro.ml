(* Hot-path microbenchmarks with in-binary baselines.

   Each benchmark measures the current implementation against the code it
   replaced, kept verbatim in this file ([Rle_ref] is the byte-wise diff
   encoder; the software-MMU baseline is the same [Vm] with the fast path
   switched off), so the speedup numbers survive without needing an old
   checkout to compare against.  Results go to stdout and, in the ledger
   shape of the experiments ([Experiments.ledger]: one row per benchmark,
   speedups left to the reader), to BENCH_6.json.

   Usage: bench/micro.exe [output.json]   (default BENCH_6.json) *)

open Tmk_sim
open Tmk_dsm
module Json = Tmk_util.Json

(* ------------------------------------------------------------------ *)
(* Baseline: the pre-word-granular RLE encoder, byte-at-a-time.        *)

module Rle_ref = struct
  type run = { offset : int; bytes : Bytes.t }

  let encode ?(join_gap = 4) ~old_ current =
    let n = Bytes.length old_ in
    if Bytes.length current <> n then
      invalid_arg "Rle_ref.encode: buffers must have equal length";
    let rec find_diff i =
      if i >= n then None
      else if Bytes.unsafe_get old_ i <> Bytes.unsafe_get current i then Some i
      else find_diff (i + 1)
    in
    let rec find_same i =
      if i >= n then n
      else if Bytes.unsafe_get old_ i = Bytes.unsafe_get current i then i
      else find_same (i + 1)
    in
    let rec spans acc i =
      match find_diff i with
      | None -> List.rev acc
      | Some start ->
        let stop = find_same (start + 1) in
        (match acc with
        | (s0, e0) :: rest when start - e0 < join_gap -> spans ((s0, stop) :: rest) stop
        | _ -> spans ((start, stop) :: acc) stop)
    in
    let to_run (start, stop) =
      { offset = start; bytes = Bytes.sub current start (stop - start) }
    in
    List.map to_run (spans [] 0)

  let apply t target =
    let n = Bytes.length target in
    let apply_run { offset; bytes } =
      let len = Bytes.length bytes in
      if offset < 0 || offset + len > n then invalid_arg "Rle_ref.apply: run out of bounds";
      Bytes.blit bytes 0 target offset len
    in
    List.iter apply_run t
end

(* ------------------------------------------------------------------ *)
(* Measurement: grow the iteration count until the timed section runs
   long enough to trust, then take the best rate of three trials (the
   standard defence against scheduler noise on a shared machine). *)

let rate_of f =
  let timed n =
    let t0 = Unix.gettimeofday () in
    f n;
    let dt = Unix.gettimeofday () -. t0 in
    (n, dt)
  in
  let rec calibrate n =
    let n, dt = timed n in
    if dt >= 0.2 || n >= 1 lsl 24 then n else calibrate (n * 4)
  in
  let n = calibrate 256 in
  let best = ref 0.0 in
  for _ = 1 to 3 do
    let n, dt = timed n in
    let r = float_of_int n /. dt in
    if r > !best then best := r
  done;
  !best

type bench = {
  b_name : string;
  b_unit : string;
  b_baseline : float option;  (* None: nothing comparable to measure against *)
  b_current : float;
}

let speedup b = Option.map (fun base -> b.b_current /. base) b.b_baseline

(* ------------------------------------------------------------------ *)
(* Fixtures: a page with ~10% of its bytes modified in scattered runs,
   the diff shape §4.2's basic-operation costs are quoted for.          *)

let page_size = Tmk_mem.Vm.page_size

let make_pair () =
  let twin = Bytes.make page_size 'a' in
  let page = Bytes.copy twin in
  for i = 0 to 50 do
    Bytes.set page (i * 80) 'b';
    Bytes.set page ((i * 80) + 1) 'c'
  done;
  (twin, page)

let sanity () =
  (* The word-granular encoder must produce byte-identical runs to the
     byte-wise baseline — it is the digest-preservation invariant, checked
     here on the bench fixture before any number is reported. *)
  let twin, page = make_pair () in
  let reference =
    List.map
      (fun r -> (r.Rle_ref.offset, Bytes.to_string r.Rle_ref.bytes))
      (Rle_ref.encode ~old_:twin page)
  in
  let current =
    List.map
      (fun r -> (r.Tmk_util.Rle.offset, Bytes.to_string r.Tmk_util.Rle.bytes))
      (Tmk_util.Rle.runs (Tmk_util.Rle.encode ~old_:twin page))
  in
  if reference <> current then failwith "micro: word-granular RLE diverges from byte-wise baseline"

(* ------------------------------------------------------------------ *)
(* Benchmarks                                                          *)

let bench_encode () =
  let twin, page = make_pair () in
  let bytes_scanned n = float_of_int n *. float_of_int page_size in
  let baseline =
    rate_of (fun n ->
        for _ = 1 to n do
          ignore (Rle_ref.encode ~old_:twin page)
        done)
  in
  let current =
    rate_of (fun n ->
        for _ = 1 to n do
          ignore (Tmk_util.Rle.encode ~old_:twin page)
        done)
  in
  {
    b_name = "rle_encode_bytes_per_sec";
    b_unit = "bytes/s";
    b_baseline = Some (bytes_scanned 1 *. baseline);
    b_current = bytes_scanned 1 *. current;
  }

let bench_apply () =
  let twin, page = make_pair () in
  let ref_diff = Rle_ref.encode ~old_:twin page in
  let diff = Tmk_util.Rle.encode ~old_:twin page in
  let target = Bytes.copy twin in
  let per_iter = float_of_int page_size in
  let baseline =
    rate_of (fun n ->
        for _ = 1 to n do
          Rle_ref.apply ref_diff target
        done)
  in
  let current =
    rate_of (fun n ->
        for _ = 1 to n do
          Tmk_util.Rle.apply diff target
        done)
  in
  {
    b_name = "rle_apply_bytes_per_sec";
    b_unit = "bytes/s";
    b_baseline = Some (per_iter *. baseline);
    b_current = per_iter *. current;
  }

let bench_diffs () =
  (* One full diff lifecycle, as the protocol performs it: snapshot the
     page, encode against the twin, apply to a peer's copy. *)
  let twin, page = make_pair () in
  let target = Bytes.copy twin in
  let baseline =
    rate_of (fun n ->
        for _ = 1 to n do
          let d = Rle_ref.encode ~old_:twin page in
          Rle_ref.apply d target
        done)
  in
  let current =
    rate_of (fun n ->
        for _ = 1 to n do
          let d = Tmk_util.Rle.encode ~old_:twin page in
          Tmk_util.Rle.apply d target
        done)
  in
  {
    b_name = "diffs_per_sec";
    b_unit = "diffs/s";
    b_baseline = Some baseline;
    b_current = current;
  }

let bench_vm_access () =
  (* The software-MMU hot path: typed accesses on resident read-write
     pages — the fault-check every load and store of the applications
     passes through.  Baseline is the same Vm with the fast path off,
     i.e. the full range/protection/hook check on every access. *)
  let run_with ~fast_path =
    let vm = Tmk_mem.Vm.create ~fast_path ~pages:64 () in
    rate_of (fun n ->
        let iters = n / 4 in
        for i = 1 to iters do
          let addr = (i * 8) land (Tmk_mem.Vm.size_bytes vm - 8) land lnot 7 in
          Tmk_mem.Vm.write_int vm addr i;
          ignore (Tmk_mem.Vm.read_int vm addr);
          ignore (Tmk_mem.Vm.read_u8 vm addr);
          Tmk_mem.Vm.write_u8 vm addr (i land 0xFF)
        done)
  in
  {
    b_name = "vm_fault_checked_accesses_per_sec";
    b_unit = "accesses/s";
    b_baseline = Some (run_with ~fast_path:false);
    b_current = run_with ~fast_path:true;
  }

let bench_vm_faults () =
  (* Genuine fault dispatches: every access below trips No_access, runs
     the handler, upgrades, then re-arms.  No baseline — the fault path
     itself is deliberately unchanged; the number anchors the cost gap
     between a fault and a fast-path access. *)
  let vm = Tmk_mem.Vm.create ~pages:1 () in
  Tmk_mem.Vm.set_fault_handler vm (fun _ page -> Tmk_mem.Vm.set_prot vm page Tmk_mem.Vm.Read_write);
  let current =
    rate_of (fun n ->
        for _ = 1 to n do
          Tmk_mem.Vm.set_prot vm 0 Tmk_mem.Vm.No_access;
          ignore (Tmk_mem.Vm.read_u8 vm 0)
        done)
  in
  { b_name = "vm_faults_per_sec"; b_unit = "faults/s"; b_baseline = None; b_current = current }

let bench_events () =
  (* Raw event-queue throughput: schedule-and-fire chains with no
     application on top.  No baseline — the engine core predates this
     round; the number tracks regression across future PRs. *)
  let current =
    rate_of (fun n ->
        let engine = Engine.create ~nprocs:1 in
        let remaining = ref n in
        let rec tick at () =
          if !remaining > 0 then begin
            decr remaining;
            Engine.schedule engine ~at:(at + 1) (tick (at + 1))
          end
        in
        Engine.schedule engine ~at:1 (tick 1);
        Engine.run engine)
  in
  { b_name = "engine_events_per_sec"; b_unit = "events/s"; b_baseline = None; b_current = current }

(* Vector-timestamp operations and PRNG draws on the 8-entry fixtures the
   consistency layer sees at 8 processors.  No baselines: they track
   regression across future changes. *)
let vt_pair () =
  let a = Vector_time.create 8 and b = Vector_time.create 8 in
  for q = 0 to 7 do
    Vector_time.set a q (q * 3);
    Vector_time.set b q (24 - (q * 3))
  done;
  (a, b)

let bench_vt_leq () =
  let a, b = vt_pair () in
  let current =
    rate_of (fun n ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (Vector_time.leq a b))
        done)
  in
  {
    b_name = "vector_time_leq_per_sec";
    b_unit = "ops/s";
    b_baseline = None;
    b_current = current;
  }

let bench_vt_max_into () =
  let a, b = vt_pair () in
  let current =
    rate_of (fun n ->
        for _ = 1 to n do
          Vector_time.max_into ~src:b ~dst:(Vector_time.copy a)
        done)
  in
  {
    b_name = "vector_time_copy_max_into_per_sec";
    b_unit = "ops/s";
    b_baseline = None;
    b_current = current;
  }

let bench_prng () =
  let rng = Tmk_util.Prng.create 1L in
  let current =
    rate_of (fun n ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (Tmk_util.Prng.bits64 rng))
        done)
  in
  {
    b_name = "prng_bits64_per_sec";
    b_unit = "draws/s";
    b_baseline = None;
    b_current = current;
  }

let bench_e2e () =
  (* End-to-end: the five applications at 8 processors (one batched arm of
     the E11 sweep each), fast path off vs on.  Simulated results are
     bit-identical either way — only the wall clock moves. *)
  let wall ~fast_path =
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun app ->
        let cfg =
          Tmk_harness.Harness.config ~app ~nprocs:8 ~protocol:Config.Lrc
            ~net:Tmk_net.Params.atm_aal34
        in
        ignore
          (Tmk_harness.Harness.run_cfg ~app { cfg with Config.vm_fast_path = fast_path }))
      Tmk_harness.Harness.all_apps;
    Unix.gettimeofday () -. t0
  in
  ignore (wall ~fast_path:true);
  (* warm-up *)
  let slow = wall ~fast_path:false in
  let fast = wall ~fast_path:true in
  {
    b_name = "e2e_five_apps_8p_runs_per_sec";
    b_unit = "runs/s";
    (* rates, so higher is better and speedup composes like the others *)
    b_baseline = Some (5.0 /. slow);
    b_current = 5.0 /. fast;
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

let () =
  let out = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_6.json" in
  sanity ();
  let benches =
    [
      bench_encode (); bench_apply (); bench_diffs (); bench_vm_access ();
      bench_vm_faults (); bench_events (); bench_vt_leq (); bench_vt_max_into ();
      bench_prng (); bench_e2e ();
    ]
  in
  Printf.printf "%-36s %14s %14s %9s\n" "benchmark" "baseline" "current" "speedup";
  List.iter
    (fun bench ->
      Printf.printf "%-36s %14s %14.1f %9s  (%s)\n" bench.b_name
        (match bench.b_baseline with None -> "-" | Some v -> Printf.sprintf "%.1f" v)
        bench.b_current
        (match speedup bench with None -> "-" | Some s -> Printf.sprintf "%.2fx" s)
        bench.b_unit)
    benches;
  let rate v = Json.Float (v, 1) in
  Json.to_file out
    (Tmk_harness.Experiments.ledger "micro"
       [ ("timing", Json.String "best of 3 trials, each of at least 0.2 s") ]
       (List.map
          (fun b ->
            Json.(
              Obj
                [ ("arm", Obj [ ("name", String b.b_name) ]); ("unit", String b.b_unit);
                  ("baseline", Option.fold ~none:Null ~some:rate b.b_baseline);
                  ("current", rate b.b_current) ]))
          benches));
  Printf.printf "\n[raw measurements written to %s]\n" out
