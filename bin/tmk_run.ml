(* tmk_run — run one of the paper's applications on the simulated cluster
   and print its execution statistics.

     tmk_run --app water --nprocs 8 --network atm --protocol lazy
     tmk_run --app jacobi --nprocs 4 --speedup
     tmk_run --app water --nprocs 32 --no-batching
     tmk_run --racecheck examples/racey.ml       (exits 2: races found)
     tmk_run --app tsp --racecheck --check-invariants
     tmk_run --check-trace run.jsonl             (offline oracle pass)
     tmk_run --list *)

open Cmdliner
module Params = Tmk_net.Params

let pf = Format.printf

let max_nprocs = 1024

(* The SARIF artifact points findings at the app's fixture source. *)
let app_uri app =
  Printf.sprintf "lib/apps/%s.ml"
    (String.lowercase_ascii (Tmk_harness.Harness.app_name app))

let run_one ~app ~nprocs ~protocol ~net ~show_speedup ~seed ~gc_threshold ~eager_diffs
    ~updates ~batching ~sharding ~barrier_tree ~tree_arity ~faults ~diff_backup
    ~racecheck ~check_invariants ~lint ~lint_sarif ~lint_jsonl ~trace_file ~trace_format
    ~trace_report ~breakdown =
  let override cfg =
    {
      cfg with
      Tmk_dsm.Config.seed;
      faults;
      gc_threshold = (match gc_threshold with Some g -> g | None -> max_int);
      lazy_diffs = not eager_diffs;
      lrc_updates = updates;
      batching;
      sharding;
      barrier_tree;
      tree_arity;
      diff_backup;
    }
  in
  let cfg = override (Tmk_harness.Harness.config ~app ~nprocs ~protocol ~net) in
  (* Checkers attach to the main run only: the speedup baseline below is
     a different cluster (1 processor), so it runs unchecked. *)
  (* The lint suite always runs the HB detector alongside: lockset rows
     that duplicate a confirmed race are dropped in favor of the better
     report. *)
  let race =
    if racecheck || lint <> None then
      Some (Tmk_check.Race.create ~nprocs ~pages:cfg.Tmk_dsm.Config.pages ())
    else None
  in
  let oracle =
    if check_invariants then Some (Tmk_check.Oracle.create ~nprocs ()) else None
  in
  let lint =
    Option.map (fun analyzers -> Tmk_lint.Lint.create ~analyzers ~nprocs ()) lint
  in
  let cfg =
    match (race, oracle, lint) with
    | None, None, None -> cfg
    | _ ->
      let hooks, attach =
        match lint with
        | Some l -> ([ Tmk_lint.Lint.hooks l ], [ Tmk_lint.Lint.attach l ])
        | None -> ([], [])
      in
      {
        cfg with
        Tmk_dsm.Config.check = Some (Tmk_check.Checker.create ?race ?oracle ~hooks ~attach ());
      }
  in
  let m, sink =
    if trace_file <> None || trace_report then begin
      let s = Tmk_trace.Sink.create () in
      (Tmk_harness.Harness.run_cfg ~trace:s ~app cfg, Some s)
    end
    else (Tmk_harness.Harness.run_cfg ~app cfg, None)
  in
  pf "application : %s (%s)@." (Tmk_harness.Harness.app_name app)
    (Tmk_harness.Harness.workload_description app);
  pf "cluster     : %d processors, %s, %s, batching %s@." nprocs
    m.Tmk_harness.Harness.m_net
    (Tmk_dsm.Config.protocol_description protocol)
    (if batching then "on" else "off");
  if sharding || barrier_tree then
    pf "metadata    : %s@."
      (String.concat ", "
         ((if sharding then [ "ring-sharded page/lock ownership" ] else [])
         @
         if barrier_tree then
           [ Printf.sprintf "combining-tree barriers (arity %d)" tree_arity ]
         else []));
  pf "faults      : %s@." (Tmk_net.Fault_plan.describe faults);
  pf "time        : %.3f simulated seconds@." m.Tmk_harness.Harness.m_time_s;
  let raw = m.Tmk_harness.Harness.m_raw in
  List.iter
    (fun r ->
      pf
        "recovery    : processor %d crashed at %.0f us, detected +%.0f us (epoch %d), %d \
         locks re-homed, %d fetches re-issued@."
        r.Tmk_dsm.Protocol.rc_pid
        (Tmk_sim.Vtime.to_us r.Tmk_dsm.Protocol.rc_crash_at)
        (Tmk_sim.Vtime.to_us
           (Tmk_sim.Vtime.sub r.Tmk_dsm.Protocol.rc_detected_at
              r.Tmk_dsm.Protocol.rc_crash_at))
        r.Tmk_dsm.Protocol.rc_epoch r.Tmk_dsm.Protocol.rc_locks_rehomed
        r.Tmk_dsm.Protocol.rc_retries)
    raw.Tmk_dsm.Api.recoveries;
  (match raw.Tmk_dsm.Api.stopped with
  | Some reason when raw.Tmk_dsm.Api.recoveries = [] -> pf "stopped     : %s@." reason
  | _ -> ());
  if show_speedup && nprocs > 1 then begin
    let base_cfg = override (Tmk_harness.Harness.config ~app ~nprocs:1 ~protocol ~net) in
    (* The crash schedule names pids of the full cluster; the baseline
       runs crash-free. *)
    let base_cfg =
      if Tmk_net.Fault_plan.crashes faults <> [] then
        { base_cfg with Tmk_dsm.Config.faults = Tmk_net.Fault_plan.none }
      else base_cfg
    in
    let base = Tmk_harness.Harness.run_cfg ~app base_cfg in
    pf "speedup     : %.2f (uniprocessor %.3f s)@."
      (base.Tmk_harness.Harness.m_time_s /. m.Tmk_harness.Harness.m_time_s)
      base.Tmk_harness.Harness.m_time_s
  end;
  pf "rates       : %.0f msgs/s, %.0f KB/s, %.1f locks/s, %.1f barriers/s, %.1f diffs/s@."
    m.Tmk_harness.Harness.m_msgs_per_sec m.Tmk_harness.Harness.m_kbytes_per_sec
    m.Tmk_harness.Harness.m_locks_per_sec m.Tmk_harness.Harness.m_barriers_per_sec
    m.Tmk_harness.Harness.m_diffs_per_sec;
  pf "breakdown   : computation %.1f%%, unix %.1f%% (comm %.1f%% / mem %.1f%%),@."
    m.Tmk_harness.Harness.m_comp_pct
    (Tmk_harness.Harness.unix_pct m)
    m.Tmk_harness.Harness.m_unix_comm_pct m.Tmk_harness.Harness.m_unix_mem_pct;
  pf "              treadmarks %.1f%% (mem %.1f%% / consistency %.1f%% / other %.1f%%), idle %.1f%%@."
    (Tmk_harness.Harness.tmk_pct m)
    m.Tmk_harness.Harness.m_tmk_mem_pct m.Tmk_harness.Harness.m_tmk_consistency_pct
    m.Tmk_harness.Harness.m_tmk_other_pct m.Tmk_harness.Harness.m_idle_pct;
  let s = m.Tmk_harness.Harness.m_raw.Tmk_dsm.Api.total_stats in
  pf "protocol    : %d twins, %d diffs created, %d applied, %d page fetches, %d gc runs@."
    s.Tmk_dsm.Stats.twins_created s.Tmk_dsm.Stats.diffs_created s.Tmk_dsm.Stats.diffs_applied
    s.Tmk_dsm.Stats.page_fetches s.Tmk_dsm.Stats.gc_runs;
  if batching then
    pf "batching    : %d frames coalesced, diff cache %d hits / %d misses@."
      m.Tmk_harness.Harness.m_raw.Tmk_dsm.Api.frames_coalesced
      s.Tmk_dsm.Stats.diff_cache_hits s.Tmk_dsm.Stats.diff_cache_misses;
  if diff_backup then
    pf "replication : %d diffs mirrored, %d bytes@." s.Tmk_dsm.Stats.diff_backups
      s.Tmk_dsm.Stats.diff_backup_bytes;
  if Tmk_net.Fault_plan.is_faulty faults then
    pf "reliability : %d retransmissions@."
      m.Tmk_harness.Harness.m_raw.Tmk_dsm.Api.retransmissions;
  if breakdown then pf "%s@." (Tmk_harness.Harness.breakdown_table m);
  (* The speedup baseline above runs untraced on purpose: only the main
     run's configuration carries the sink. *)
  (match (sink, trace_file) with
  | Some s, Some file ->
    let oc = open_out file in
    (match trace_format with
    | `Jsonl -> Tmk_trace.Jsonl.write oc s
    | `Chrome -> Tmk_trace.Chrome.write oc s);
    close_out oc;
    pf "trace       : %d events -> %s (%s)@." (Tmk_trace.Sink.length s) file
      (match trace_format with `Jsonl -> "jsonl" | `Chrome -> "chrome trace_event")
  | _ -> ());
  let lint_findings = Option.map (fun l -> Tmk_lint.Lint.findings ?race l) lint in
  (match sink with
  | Some s when trace_report ->
    let findings = Option.map Tmk_lint.Findings.table lint_findings in
    pf "@.%s" (Tmk_trace.Analyze.report ?findings (Tmk_trace.Analyze.analyze s))
  | _ -> ());
  let race_bad =
    (* With --lint the HB findings already appear in the unified report
       (analyzer "hb"); print the dedicated race report only when
       --racecheck asked for it. *)
    match race with
    | None -> false
    | Some r ->
      if racecheck then pf "@.%s@." (Tmk_check.Race.report r);
      racecheck && Tmk_check.Race.has_findings r
  in
  let lint_bad =
    match (lint, lint_findings) with
    | Some l, Some fs ->
      pf "@.%s@." (Tmk_lint.Lint.report ?race l);
      let uri = app_uri app in
      (match lint_sarif with
      | Some file ->
        let oc = open_out file in
        output_string oc (Tmk_lint.Findings.to_sarif ~uri fs);
        close_out oc;
        pf "sarif       : %d finding(s) -> %s@." (List.length fs) file
      | None -> ());
      (match lint_jsonl with
      | Some file ->
        let oc = open_out file in
        output_string oc (Tmk_lint.Findings.to_jsonl fs);
        close_out oc;
        pf "findings    : %d finding(s) -> %s@." (List.length fs) file
      | None -> ());
      Tmk_lint.Findings.has_errors fs
    | _ -> false
  in
  let oracle_bad =
    match oracle with
    | None -> false
    | Some o ->
      let violations = Tmk_check.Oracle.finish o in
      pf "@.%s@." (Tmk_check.Oracle.report violations);
      violations <> []
  in
  (race_bad || oracle_bad || lint_bad, raw.Tmk_dsm.Api.stopped <> None)

let app_conv =
  let parse s =
    match Tmk_harness.Harness.app_of_name s with
    | app -> Ok app
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun ppf app -> Format.pp_print_string ppf (Tmk_harness.Harness.app_name app))

let protocol_conv =
  let parse s =
    match Tmk_dsm.Config.protocol_of_string s with
    | p -> Ok p
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  Arg.conv
    (parse, fun ppf p -> Format.pp_print_string ppf (Tmk_dsm.Config.protocol_name p))

let net_conv =
  let parse = function
    | "atm" | "atm-aal34" -> Ok Params.atm_aal34
    | "atm-udp" -> Ok Params.atm_udp
    | "ethernet" | "eth" -> Ok Params.ethernet_udp
    | s -> Error (`Msg (Printf.sprintf "unknown network %S (atm|atm-udp|ethernet)" s))
  in
  Arg.conv (parse, fun ppf n -> Format.pp_print_string ppf (Params.name n))

let cmd =
  let app_arg =
    Arg.(value & opt app_conv Tmk_harness.Harness.Jacobi
         & info [ "a"; "app" ] ~docv:"APP"
             ~doc:"Application: water, jacobi, tsp, quicksort, ilink — or racey, the \
                   deliberately data-racy fixture for $(b,--racecheck).")
  in
  let app_pos =
    Arg.(value & pos 0 (some app_conv) None
         & info [] ~docv:"APP"
             ~doc:"Application, as a positional alternative to $(b,--app); also accepts \
                   a source path such as $(i,examples/racey.ml).")
  in
  let procs =
    Arg.(value & opt int 8
         & info [ "p"; "nprocs"; "procs" ] ~docv:"N"
             ~doc:"Number of processors, 1 to 1024 ($(b,--procs) is an alias kept for \
                   compatibility).  Backends with a lower ceiling (sc-abd's quorums stop \
                   at 64) reject larger clusters at startup.")
  in
  let protocol =
    Arg.(value & opt protocol_conv Tmk_dsm.Config.Lrc
         & info [ "c"; "protocol" ] ~docv:"PROTO"
             ~doc:"Coherence backend: lazy (TreadMarks LRC), eager (Munin-style update), \
                   sc (single-writer baseline), tardis (timestamp leases, no \
                   invalidations), or sc-abd (majority-quorum replication, crash-tolerant \
                   with zero recovery).")
  in
  let net =
    Arg.(value & opt net_conv Params.atm_aal34
         & info [ "n"; "network" ] ~docv:"NET" ~doc:"Network: atm, atm-udp or ethernet.")
  in
  let speedup =
    Arg.(value & flag & info [ "s"; "speedup" ] ~doc:"Also run a uniprocessor baseline and report speedup.")
  in
  let list =
    Arg.(value & flag & info [ "list" ] ~doc:"List applications and exit.")
  in
  let verbose =
    Arg.(value & flag
         & info [ "v"; "verbose" ]
             ~doc:"Trace protocol events (lock transfers, misses, flushes, barriers) to stderr.")
  in
  let seed =
    Arg.(value & opt int64 1994L & info [ "seed" ] ~docv:"N" ~doc:"Root random seed.")
  in
  let gc_threshold =
    Arg.(value & opt (some int) None
         & info [ "gc-threshold" ] ~docv:"N"
             ~doc:"Garbage-collect at the next barrier once a node holds N consistency records.")
  in
  let eager_diffs =
    Arg.(value & flag
         & info [ "eager-diffs" ]
             ~doc:"Create diffs eagerly at every interval close (Munin-style; default lazy).")
  in
  let updates =
    Arg.(value & flag
         & info [ "updates" ]
             ~doc:"Hybrid update protocol: piggyback diffs on synchronization messages for \
                   pages the receiver caches (default: invalidate).")
  in
  let no_batching =
    Arg.(value & flag
         & info [ "no-batching" ]
             ~doc:"Disable consistency-traffic batching: send each piggybacked interval, \
                   diff request and diff reply as its own frame instead of coalescing \
                   per-peer (the ablation baseline; default batched).")
  in
  let sharding =
    Arg.(value & flag
         & info [ "sharding" ]
             ~doc:"Shard page and lock ownership across processors with a consistent-hash \
                   ring (16 virtual nodes per processor) instead of the static \
                   $(i,id mod nprocs) placement; ownership lookups walk past dead \
                   processors, so a crash moves only the dead owner's shards.")
  in
  let barrier_tree =
    Arg.(value & flag
         & info [ "barrier-tree" ]
             ~doc:"Narrow the barrier tree to arity $(b,--tree-arity).  Barrier arrivals \
                   and the GC exchange combine up a tree rooted at processor 0 and fan \
                   back down it; without this flag every processor is a direct child \
                   of the root, the paper's central manager.  Caps any single \
                   processor's barrier traffic at the tree arity.  Incompatible with \
                   $(b,--crash).")
  in
  let tree_arity =
    Arg.(value & opt int 4
         & info [ "tree-arity" ] ~docv:"K"
             ~doc:"Fan-in of the combining tree used by $(b,--barrier-tree) (at least 2).")
  in
  let loss =
    Arg.(value & opt float 0.0
         & info [ "loss" ] ~docv:"P" ~doc:"Frame loss probability in [0,1).")
  in
  let dup =
    Arg.(value & opt float 0.0
         & info [ "dup" ] ~docv:"P" ~doc:"Frame duplication probability in [0,1).")
  in
  let reorder =
    Arg.(value & opt float 0.0
         & info [ "reorder" ] ~docv:"P"
             ~doc:"Probability a frame is held back by a random delay (reordering) in [0,1).")
  in
  let reorder_window =
    Arg.(value & opt int 200
         & info [ "reorder-window" ] ~docv:"US"
             ~doc:"Maximum extra delay of a held-back frame, microseconds.")
  in
  let stall =
    Arg.(value & opt string ""
         & info [ "stall" ] ~docv:"SPEC"
             ~doc:"Node stall windows: comma-separated pid@start_us+len_us, e.g. 1@2000+500.")
  in
  let unreachable =
    Arg.(value & opt (list int) []
         & info [ "unreachable" ] ~docv:"PIDS"
             ~doc:"Partitioned processors (every frame to or from them is dropped); once a \
                   retry budget is exhausted the peer is suspected and the run stops \
                   cleanly, reporting the stop reason.")
  in
  let crash =
    Arg.(value & opt string ""
         & info [ "crash" ] ~docv:"SPEC"
             ~doc:"Crash schedule: comma-separated pid@t_us, e.g. 4@5000.  The processor \
                   goes silent at that instant (crash-stop); the survivors detect it, fail \
                   its lock managership over, and finish the run (the lazy and sc-abd \
                   backends; the others refuse crash schedules).  Exits 3 if the run \
                   cannot complete without the dead processor's state.")
  in
  let diff_backup =
    Arg.(value & flag
         & info [ "diff-backup" ]
             ~doc:"Mirror every diff to a deterministic backup peer at creation (forces \
                   eager diff creation), so a crashed processor's committed work stays \
                   fetchable (use with $(b,--crash)).")
  in
  let racecheck =
    Arg.(value & flag
         & info [ "racecheck" ]
             ~doc:"Run the happens-before data-race detector alongside the application: \
                   every typed shared access is checked against a per-word frontier of \
                   prior accesses, and conflicting pairs not ordered by the run's locks \
                   and barriers are reported.  Exits 2 if any race is found.")
  in
  let check_invariants =
    Arg.(value & flag
         & info [ "check-invariants" ]
             ~doc:"Run the protocol invariant oracle over the live event stream (vector \
                   time monotonicity, interval coverage at acquire, diff conservation, \
                   barrier epoch agreement, GC safety).  Exits 2 on any violation.")
  in
  let lint =
    Arg.(value
         & opt ~vopt:(Some "all") (some string) None
         & info [ "lint" ] ~docv:"ANALYZERS"
             ~doc:"Run the sanitizer suite alongside the application: the Eraser-style \
                   lockset race detector (potential races, schedule-insensitive), the \
                   sharing-pattern linter (false sharing, diff fragmentation, never-read \
                   write notices, lock contention) and the sync-discipline lints.  \
                   ANALYZERS is a comma-separated subset of lockset, sharing, discipline \
                   (default all).  The happens-before detector runs too, so confirmed \
                   races outrank the lockset's potential ones.  Exits 2 on any \
                   error-severity finding.")
  in
  let lint_sarif =
    Arg.(value & opt (some string) None
         & info [ "lint-sarif" ] ~docv:"FILE"
             ~doc:"Write the sanitizer findings to FILE as SARIF 2.1.0 (GitHub \
                   code-scanning ingests it).  Implies $(b,--lint).")
  in
  let lint_jsonl =
    Arg.(value & opt (some string) None
         & info [ "lint-jsonl" ] ~docv:"FILE"
             ~doc:"Write the sanitizer findings to FILE as JSONL, one finding per line.  \
                   Implies $(b,--lint).")
  in
  let check_trace =
    Arg.(value & opt (some string) None
         & info [ "check-trace" ] ~docv:"FILE"
             ~doc:"Instead of running an application, replay a recorded JSONL trace (from \
                   $(b,--trace)) through the invariant oracle.  The cluster size is \
                   inferred from the processor ids in the stream.  Exits 2 on any \
                   violation.  (Race checking needs the typed accesses of a live run, so \
                   it is not available offline.)")
  in
  let trace_file =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Record the typed protocol event stream and write it to FILE (see \
                   --trace-format).")
  in
  let trace_format =
    Arg.(value
         & opt (enum [ ("jsonl", `Jsonl); ("chrome", `Chrome) ]) `Jsonl
         & info [ "trace-format" ] ~docv:"FMT"
             ~doc:"Trace file format: jsonl (one event per line) or chrome (trace_event \
                   JSON loadable in Perfetto / chrome://tracing, one track per processor).")
  in
  let trace_report =
    Arg.(value & flag
         & info [ "trace-report" ]
             ~doc:"Record the event stream and print the analyzer's lock-contention, \
                   hot-page, barrier-skew and per-processor tables.")
  in
  let breakdown =
    Arg.(value & flag
         & info [ "breakdown" ]
             ~doc:"Print a per-processor execution-time table with the idle remainder \
                   (makespan minus the busy categories) reported explicitly.")
  in
  let main app app_pos nprocs protocol net show_speedup list verbose seed gc_threshold
      eager_diffs updates no_batching sharding barrier_tree tree_arity loss dup reorder
      reorder_window stall unreachable crash diff_backup racecheck check_invariants lint
      lint_sarif lint_jsonl check_trace trace_file trace_format trace_report breakdown =
    let app = match app_pos with Some a -> a | None -> app in
    (* Asking for a findings file implies running the suite. *)
    let lint =
      match lint with
      | None when lint_sarif <> None || lint_jsonl <> None -> Some "all"
      | l -> l
    in
    if verbose then begin
      Logs.set_reporter (Logs_fmt.reporter ());
      Logs.set_level ~all:true (Some Logs.Debug)
    end;
    if list then
      List.iter
        (fun a ->
          pf "%-10s %s@." (Tmk_harness.Harness.app_name a)
            (Tmk_harness.Harness.workload_description a))
        Tmk_harness.Harness.all_apps
    else
      match check_trace with
      | Some file -> (
        try
          let sink = Tmk_trace.Jsonl.read_file file in
          let nprocs =
            let top = ref 0 in
            Tmk_trace.Sink.iter
              (fun r -> if r.Tmk_trace.Sink.r_pid > !top then top := r.Tmk_trace.Sink.r_pid)
              sink;
            !top + 1
          in
          let violations = Tmk_check.Oracle.check_sink ~nprocs sink in
          pf "trace       : %d events from %s (%d processors)@."
            (Tmk_trace.Sink.length sink) file nprocs;
          pf "%s@." (Tmk_check.Oracle.report violations);
          if violations <> [] then exit 2
        with
        | Sys_error msg ->
          prerr_endline ("tmk_run: " ^ msg);
          exit 1
        | Tmk_trace.Jsonl.Parse_error msg ->
          prerr_endline (Printf.sprintf "tmk_run: %s: %s" file msg);
          exit 1)
      | None ->
    if nprocs < 1 || nprocs > max_nprocs then begin
      Printf.eprintf
        "tmk_run: --nprocs %d is out of range: the simulated cluster supports 1 to %d \
         processors (the scaling study's upper bound; see EXPERIMENTS.md E14)\n"
        nprocs max_nprocs;
      exit 1
    end
    else
      match
        let open Tmk_net.Fault_plan in
        let plan = none in
        let plan = if loss > 0.0 then with_loss plan loss else plan in
        let plan = if dup > 0.0 then with_dup plan dup else plan in
        let plan =
          if reorder > 0.0 then
            with_reorder ~window:(Tmk_sim.Vtime.us reorder_window) plan reorder
          else plan
        in
        let plan =
          List.fold_left
            (fun p s -> with_stall p ~pid:s.st_pid ~start:s.st_start ~len:s.st_len)
            plan (parse_stalls stall)
        in
        let plan = List.fold_left with_unreachable plan unreachable in
        List.fold_left
          (fun p c -> with_crash p ~pid:c.cr_pid ~at:c.cr_at)
          plan (parse_crashes crash)
      with
      | faults -> (
        try
          let lint = Option.map Tmk_lint.Lint.analyzers_of_string lint in
          let findings, stopped =
            run_one ~app ~nprocs ~protocol ~net ~show_speedup ~seed ~gc_threshold
              ~eager_diffs ~updates ~batching:(not no_batching) ~sharding ~barrier_tree
              ~tree_arity ~faults ~diff_backup ~racecheck ~check_invariants ~lint
              ~lint_sarif ~lint_jsonl ~trace_file ~trace_format ~trace_report ~breakdown
          in
          if findings then exit 2;
          (* the run was cut short with a diagnosis (e.g. an unreachable
             peer): the printed stats describe an incomplete execution *)
          if stopped then exit 1
        with
        | Tmk_dsm.Api.Degraded { pid; reason } ->
          Printf.eprintf
            "tmk_run: degraded: the run cannot complete without processor %d (%s)\n" pid
            reason;
          exit 3
        | Invalid_argument msg | Sys_error msg ->
          (* e.g. Config.validate rejecting a fault plan that names pids
             outside the cluster, or a --trace/--lint-sarif/--lint-jsonl
             file that cannot be opened *)
          prerr_endline ("tmk_run: " ^ msg);
          exit 1)
      | exception Invalid_argument msg ->
        prerr_endline ("tmk_run: " ^ msg);
        exit 1
  in
  let term =
    Term.(
      const main $ app_arg $ app_pos $ procs $ protocol $ net $ speedup $ list $ verbose
      $ seed $ gc_threshold $ eager_diffs $ updates $ no_batching $ sharding
      $ barrier_tree $ tree_arity $ loss $ dup $ reorder $ reorder_window $ stall
      $ unreachable $ crash $ diff_backup $ racecheck $ check_invariants $ lint
      $ lint_sarif $ lint_jsonl $ check_trace $ trace_file $ trace_format $ trace_report
      $ breakdown)
  in
  Cmd.v
    (Cmd.info "tmk_run" ~version:"1.0.0"
       ~doc:"Run a TreadMarks application on the simulated workstation cluster")
    term

let () = exit (Cmd.eval cmd)
