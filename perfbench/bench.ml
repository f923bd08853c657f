(* The repository benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload (see [Workloads]) through the public API and prints
   every metric by name and unit, then, as the last line of standard
   output, one JSON object {"correct", "attempted", "failed", "metrics"}.
   With --trace 0 the metrics are the end-to-end ones, timed with tracing
   off; with --trace 1 they are the per-layer ones, from a separate traced
   run and the layer call loops.  perfbench/README.md documents every metric.

   Every invocation first makes one untimed checked run and compares its
   result digest with the sequential reference (and, at the default and
   held-out seeds, with the committed digest).  A digest mismatch, an
   exception, [Api.Degraded], a non-[None] [stopped], [Engine.Deadlock],
   or a timed run whose simulated fingerprint differs from the first timed
   run's, each counts as one failed run. *)

open Tmk_dsm
module S = Summary_stats

let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2)
    fmt

type args = { workload : Workloads.t; seed : int; seconds : float; trace : bool; child : bool }

let parse_args () =
  let workload = ref "" and seed = ref Workloads.default_seed and seconds = ref 10.0 in
  let trace = ref 0 and child = ref false in
  let names = String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ names);
      ("--seed", Arg.Set_int seed, "N input seed (default 0, the Harness inputs)");
      ("--seconds", Arg.Set_float seconds, "S how long the timed runs last");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--child", Arg.Set child, " make one timed run and describe it on one line (internal)");
    ]
    (fun a -> die "unexpected argument %S (usage: %s)" a usage)
    usage;
  let workload =
    match Workloads.find !workload with
    | Some w -> w
    | None -> die "unknown workload %S (valid: %s)" !workload names
  in
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if !seconds <= 0.0 then die "--seconds must be positive";
  { workload; seed = !seed; seconds = !seconds; trace = !trace = 1; child = !child }

(* ---- failures ---- *)

let attempted = ref 0
let failed = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      Printf.printf "FAILED: %s\n%!" msg)
    fmt

(* [attempt what f] — one run; every way a run can go wrong is a failure. *)
let attempt what f =
  incr attempted;
  match f () with
  | r -> Some r
  | exception Api.Degraded { pid; reason } ->
    fail "%s: degraded after processor %d died: %s" what pid reason;
    None
  | exception Tmk_sim.Engine.Deadlock pids ->
    fail "%s: deadlock (%s blocked)" what (String.concat "," (List.map string_of_int pids));
    None
  | exception e ->
    fail "%s: %s" what (Printexc.to_string e);
    None

let finished what (r : Api.run_result) =
  match r.Api.stopped with
  | None -> true
  | Some reason ->
    fail "%s: stopped early: %s" what reason;
    false

(* ---- correctness gate ---- *)

let check_result a =
  let w = a.workload and seed = a.seed in
  let body, digest = Workloads.checked w ~seed in
  match attempt "checked run" (fun () -> Api.run (Workloads.config w ~seed) body) with
  | Some r when finished "checked run" r -> (
    let expected = Workloads.reference w ~seed in
    match digest () with
    | None -> fail "checked run: processor 0 returned no result"
    | Some d ->
      let committed = Workloads.committed_digest w ~seed in
      Printf.printf "result digest %s, sequential reference %s, committed %s\n%!" d expected
        (Option.value committed ~default:"(none at this seed)");
      if d <> expected then fail "checked run: digest differs from the sequential reference";
      if Option.fold committed ~none:false ~some:(( <> ) d) then
        fail "checked run: digest differs from the committed digest")
  | _ -> ()

(* ---- timed runs, each in a fresh process ---- *)

(* A run repeated inside one process slows down as the heap ages (water-16:
   3.3 s rising to 3.9 s over six runs), so every timed run gets a fresh
   process: the benchmark re-executes itself with --child, and the child
   prints one line describing its single run. *)

type sample = {
  wall : float;  (** seconds for the whole [Api.run], set-up included *)
  alloc_words : float;
  heap_words : float;  (** [top_heap_words] of the child after its run *)
  sim_ns : int;
  messages : int;
  bytes : int;
  hot : int;  (** the largest [Api.proc_msgs] entry *)
  fingerprint : string;  (** digest of everything simulated, [Stats.t] included *)
}

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let child_run a =
  let cfg = Workloads.config a.workload ~seed:a.seed and body = Workloads.body a.workload ~seed:a.seed in
  let a0 = allocated () in
  let t0 = Unix.gettimeofday () in
  (match Api.run cfg body with
  | { Api.stopped = Some reason; _ } -> Printf.printf "fail stopped early: %s\n" reason
  | r ->
    let wall = Unix.gettimeofday () -. t0 in
    let alloc = allocated () -. a0 in
    let hot = Array.fold_left max 0 r.Api.proc_msgs in
    let simulated = (r.Api.total_time, r.Api.messages, r.Api.bytes, hot, r.Api.total_stats) in
    Printf.printf "ok %.9f %.0f %d %d %d %d %d %s\n" wall alloc (Gc.quick_stat ()).Gc.top_heap_words
      r.Api.total_time r.Api.messages r.Api.bytes hot
      (Digest.to_hex (Digest.string (Marshal.to_string simulated [])))
  | exception e -> Printf.printf "fail %s\n" (Printexc.to_string e));
  exit 0

let child_sample a what =
  let argv =
    [| Sys.executable_name; "--workload"; a.workload.Workloads.name; "--seed"; string_of_int a.seed; "--child" |]
  in
  attempt what (fun () ->
      let ic = Unix.open_process_args_in Sys.executable_name argv in
      let line = String.trim (In_channel.input_all ic) in
      match (Unix.close_process_in ic, String.split_on_char ' ' line) with
      | Unix.WEXITED 0, [ "ok"; wall; alloc; heap; sim; messages; bytes; hot; fingerprint ] ->
        {
          wall = float_of_string wall;
          alloc_words = float_of_string alloc;
          heap_words = float_of_string heap;
          sim_ns = int_of_string sim;
          messages = int_of_string messages;
          bytes = int_of_string bytes;
          hot = int_of_string hot;
          fingerprint;
        }
      | _, "fail" :: reason -> failwith (String.concat " " reason)
      | _ -> failwith ("child process failed: " ^ line))

(* Everything simulated must repeat exactly across the timed runs of one
   invocation, or the run is a failure.  Allocation is held to the same
   gate within [alloc_tolerance]: OCaml 5's word counters drift by a few
   hundred words between identical runs (under 1e-6 of a run's total). *)
let alloc_tolerance = 1e-5

let timed_runs a =
  let samples = ref [] in
  let t_start = Unix.gettimeofday () in
  let rec loop i =
    let what = Printf.sprintf "timed run %d" i in
    (match child_sample a what with
    | Some s ->
      (match List.rev !samples with
      | first :: _ ->
        if s.fingerprint <> first.fingerprint then
          fail "%s: simulated fingerprint differs from the first run's" what;
        if Float.abs (s.alloc_words -. first.alloc_words) > alloc_tolerance *. first.alloc_words then
          fail "%s: allocated %.0f words, the first run %.0f" what s.alloc_words first.alloc_words
      | [] -> ());
      samples := s :: !samples
    | None -> ());
    if i < 3 || Unix.gettimeofday () -. t_start < a.seconds then loop (i + 1)
  in
  loop 1;
  List.rev !samples

(* ---- set-up ---- *)

(* [Protocol.create] on the workload's config: seven samples, each a
   batch of creates lasting at least 100 ms, each after a full major
   collection. *)
let setup_times a =
  let cfg = Workloads.config a.workload ~seed:a.seed in
  let time n =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (Protocol.create cfg))
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int n
  in
  let one = time 1 in
  let batch = max 1 (int_of_float (Float.ceil (0.1 /. one))) in
  List.init 7 (fun _ -> time batch)

(* ---- reporting ---- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_result ~correct metrics =
  List.iter (fun x -> Printf.printf "%-36s %16.6f %s\n" x.name x.value x.unit_) metrics;
  Printf.printf "error_rate %d/%d = %g\n" !failed !attempted
    (float_of_int !failed /. float_of_int (max 1 !attempted));
  let body =
    String.concat ", "
      (List.map
         (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    !attempted !failed body

let summary_line name unit_ xs =
  match S.runs xs with
  | Some r ->
    Printf.printf "%s: median %.6f %s, quartiles %.6f .. %.6f, n = %d, spread %.4f\n%!" name r.S.median
      unit_ r.q1 r.q3 r.n (S.spread r);
    r.S.median
  | None -> 0.0

(* wall_s excludes set-up: the median [Api.run] time less the [setup_s]
   median, so work moved between the two shows in exactly one of them. *)
let end_to_end a samples =
  let setup = summary_line "setup_s" "s" (setup_times a) in
  let calib = Layer_calls.calibration () in
  List.iter
    (fun (what, paper, sim) -> Printf.printf "calibration: %-28s %8.1f us (paper %4.0f)\n" what sim paper)
    calib;
  let median name unit_ f = summary_line name unit_ (List.map f samples) in
  let run = median "Api.run" "s" (fun s -> s.wall) in
  let alloc = median "alloc" "words" (fun s -> s.alloc_words) in
  let heap = median "top_heap" "words" (fun s -> s.heap_words) in
  match samples with
  | [] -> []
  | s :: _ ->
    [
      m "wall_s" "s" (run -. setup);
      m "setup_s" "s" setup;
      m "alloc_mwords" "Mwords" (alloc /. 1e6);
      m "peak_heap_mwords" "Mwords" (heap /. 1e6);
      m "sim_time_s" "sim_s" (Tmk_sim.Vtime.to_s s.sim_ns);
      m "messages" "count" (float_of_int s.messages);
      m "kbytes" "KB" (float_of_int s.bytes /. 1024.0);
      m "hot_proc_frames" "count" (float_of_int s.hot);
      m "calib_err_pct" "%" (Layer_calls.calib_err_pct calib);
    ]

(* Share of [nprocs * makespan] spent in one busy category, or idle for
   [None]: the paper's Figure 5 decomposition, as [Harness] computes it. *)
let share_pct (r : Api.run_result) cat =
  let sum f = Array.fold_left (fun acc x -> acc + f x) 0 in
  let total =
    match cat with
    | Some c -> sum (fun busy -> busy.(Tmk_sim.Category.index c)) r.Api.busy
    | None -> sum Fun.id r.Api.idle
  in
  100.0 *. float_of_int total /. float_of_int (Array.length r.Api.idle * r.Api.total_time)

(* A distribution as p50, the highest ladder percentile with ten samples
   beyond it, and n; the rung itself is printed, and follows from n. *)
let dist_metrics ?(unit_ = "sim_us") name xs =
  let d = S.dist xs in
  Printf.printf "%s: p50 %.3f, p%g %.3f, n = %d\n" name d.S.p50 d.S.tail_pct d.S.tail d.S.count;
  [ m (name ^ ".p50") unit_ d.S.p50; m (name ^ ".tail") unit_ d.S.tail; m (name ^ ".n") "count" (float_of_int d.S.count) ]

(* The traced run and the layer call loops; the result waits for the
   untraced samples, against which the traced run's overhead is taken. *)
let per_layer a =
  let w = a.workload in
  let cfg = Workloads.config w ~seed:a.seed in
  let gc = Traced.gc_start () in
  match attempt "traced run" (fun () -> Traced.run ~gc cfg (Workloads.body w ~seed:a.seed)) with
  | Some (r, traced_wall, t) when finished "traced run" r ->
    if t.Traced.gc_lost > 0 then Printf.printf "warning: %d runtime events lost\n" t.Traced.gc_lost;
    let pct = share_pct r in
    let st = r.Api.total_stats in
    let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
    let count x = float_of_int x in
    let nprocs = w.Workloads.nprocs in
    let small = { cfg with Config.pages = 4 } in
    let median_diff = (S.dist t.Traced.diff_sizes).S.p50 in
    let target = int_of_float median_diff in
    let layers =
    [
      m "engine.advance_ns" "ns" (Layer_calls.advance_ns ~nprocs);
      m "engine.event_ns" "ns" (Layer_calls.event_ns ~nprocs);
      m "engine.idle_pct" "%" (pct None);
      m "transport.frames" "count" (count r.Api.messages);
      m "transport.kbytes" "KB" (float_of_int r.Api.bytes /. 1024.0);
      m "transport.frames_coalesced" "count" (count r.Api.frames_coalesced);
      m "transport.retransmissions" "count" (count r.Api.retransmissions);
      m "transport.unix_comm_pct" "%" (pct (Some Tmk_sim.Category.Unix_comm));
      m "transport.roundtrip_ns" "ns" (Layer_calls.roundtrip_ns ~nprocs);
      m "protocol.lock_acquires" "count" (count st.Stats.lock_acquires);
      m "protocol.lock_remote_ratio" "ratio" (ratio st.Stats.lock_remote st.Stats.lock_acquires);
      m "protocol.lock_forwards" "count" (count t.Traced.lock_forwards);
    ]
    @ dist_metrics "protocol.lock_wait_us" t.Traced.lock_wait_us
    @ [ m "protocol.barriers" "count" (count st.Stats.barriers) ]
    @ dist_metrics "protocol.barrier_wait_us" t.Traced.barrier_wait_us
    @ [
        m "protocol.tmk_other_pct" "%" (pct (Some Tmk_sim.Category.Tmk_other));
        m "protocol.acquire_ns" "ns" (Layer_calls.acquire_ns small);
        m "protocol.barrier_ns" "ns" (Layer_calls.barrier_ns small);
        m "backend.intervals_closed" "count" (count t.Traced.intervals_closed);
        m "backend.intervals_in" "count" (count st.Stats.intervals_in);
        m "backend.write_notices_in" "count" (count st.Stats.write_notices_in);
        m "backend.invalidations" "count" (count t.Traced.invalidations);
        m "backend.lease_expiries" "count" (count st.Stats.lease_expiries);
        m "backend.consistency_pct" "%" (pct (Some Tmk_sim.Category.Tmk_consistency));
        m "backend.vt_merge_ns" "ns" (Layer_calls.vt_merge_ns ~nprocs);
        m "vm.read_faults" "count" (count st.Stats.read_faults);
        m "vm.write_faults" "count" (count st.Stats.write_faults);
        m "vm.remote_misses" "count" (count st.Stats.remote_misses);
        m "vm.page_fetches" "count" (count st.Stats.page_fetches);
      ]
    @ dist_metrics "vm.fault_service_us" t.Traced.fault_service_us
    @ [
        m "vm.unix_mem_pct" "%" (pct (Some Tmk_sim.Category.Unix_mem));
        m "vm.access_ns" "ns" (Layer_calls.access_ns ~pages:cfg.Config.pages);
        m "vm.fault_ns" "ns" (Layer_calls.fault_ns small);
        m "diff.twins" "count" (count st.Stats.twins_created);
        m "diff.created" "count" (count st.Stats.diffs_created);
        m "diff.applied" "count" (count st.Stats.diffs_applied);
        m "diff.bytes_created" "bytes" (count st.Stats.diff_bytes_created);
        m "diff.fetches" "count" (count t.Traced.diff_fetches);
        m "diff.cache_hit_ratio" "ratio"
          (ratio st.Stats.diff_cache_hits (st.Stats.diff_cache_hits + st.Stats.diff_cache_misses));
        m "diff.tmk_mem_pct" "%" (pct (Some Tmk_sim.Category.Tmk_mem));
        m "diff.median_bytes" "bytes" median_diff;
        m "diff.encode_ns" "ns" (Layer_calls.encode_ns ~target);
        m "diff.apply_ns" "ns" (Layer_calls.apply_ns ~target);
        m "app.comp_pct" "%" (pct (Some Tmk_sim.Category.Computation));
        m "gc.minor_collections" "count" (count t.Traced.gc_minor);
        m "gc.major_collections" "count" (count t.Traced.gc_major);
        m "gc.pause_ms" "ms" (Array.fold_left ( +. ) 0.0 t.Traced.gc_pauses_us /. 1000.0);
      ]
    @ dist_metrics ~unit_:"us" "gc.pause_us" t.Traced.gc_pauses_us
    @ [ m "trace.records" "count" (count t.Traced.records) ]
    in
    fun samples ->
      let untraced = summary_line "untraced Api.run" "s" (List.map (fun s -> s.wall) samples) in
      let overhead = if untraced > 0.0 then 100.0 *. ((traced_wall /. untraced) -. 1.0) else 0.0 in
      Printf.printf "traced Api.run: %.6f s\n" traced_wall;
      layers @ [ m "trace.overhead_pct" "%" overhead ]
  | _ -> fun _ -> []

let () =
  let a = parse_args () in
  if a.child then child_run a;
  Printf.printf "workload %s, seed %d, %s run, %.0f s of timed runs\n%!" a.workload.Workloads.name a.seed
    (if a.trace then "traced (per-layer)" else "untraced (end-to-end)")
    a.seconds;
  (* the traced run goes first, in a process no other run has aged *)
  let layers = if a.trace then Some (per_layer a) else None in
  check_result a;
  let samples = timed_runs a in
  let metrics = match layers with Some f -> f samples | None -> end_to_end a samples in
  print_result ~correct:(!failed = 0 && metrics <> []) metrics;
  exit (if metrics = [] then 1 else 0)
