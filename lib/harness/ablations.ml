open Tmk_dsm
module Tablefmt = Tmk_util.Tablefmt
module Params = Tmk_net.Params

let atm = Params.atm_aal34
let f1 v = Printf.sprintf "%.1f" v
let f2 v = Printf.sprintf "%.2f" v
let f0 v = Printf.sprintf "%.0f" v

(* ------------------------------------------------------------------ *)
(* A1: protocol zoo                                                    *)

let a1 () =
  let protocols = [ Config.Lrc; Config.Erc; Config.Sc ] in
  let rows =
    List.concat_map
      (fun app ->
        let base = Harness.run ~app ~nprocs:1 ~protocol:Config.Lrc ~net:atm in
        List.map
          (fun protocol ->
            let m = Harness.run ~app ~nprocs:8 ~protocol ~net:atm in
            [ Harness.app_name app;
              Config.protocol_name protocol;
              f2 m.Harness.m_time_s;
              f2 (base.Harness.m_time_s /. m.Harness.m_time_s);
              f0 m.Harness.m_msgs_per_sec;
              f0 m.Harness.m_kbytes_per_sec ])
          protocols)
      Harness.all_apps
  in
  Tablefmt.render
    ~title:
      "A1. Protocol zoo, 8 processors, ATM\n\
       (sc = sequentially consistent single-writer: the pre-TreadMarks DSM design;\n\
       its whole-page transfers and invalidations are why release consistency and\n\
       multiple writers were introduced)"
    ~header:[ "app"; "protocol"; "time s"; "speedup"; "msgs/s"; "KB/s" ]
    rows

(* ------------------------------------------------------------------ *)
(* A2: false sharing                                                   *)

(* [writers] processors update disjoint slots of ONE shared page between
   barriers. *)
let false_sharing_run ~protocol ~writers ~rounds =
  let cfg =
    { Config.default with Config.nprocs = writers; pages = 4; seed = 7L; protocol }
  in
  Api.run cfg (fun ctx ->
      let arr = Api.ialloc ctx 64 in
      if Api.pid ctx = 0 then
        for s = 0 to 63 do
          Api.iset ctx arr s 0
        done;
      Api.barrier ctx 0;
      for r = 1 to rounds do
        Api.iset ctx arr (Api.pid ctx) r;
        Api.compute_ns ctx 200_000;
        Api.barrier ctx r
      done)

let a2 () =
  let rounds = 20 in
  let rows =
    List.concat_map
      (fun writers ->
        List.map
          (fun protocol ->
            let r = false_sharing_run ~protocol ~writers ~rounds in
            [ string_of_int writers;
              Config.protocol_name protocol;
              f1 (Tmk_sim.Vtime.to_ms r.Api.total_time);
              string_of_int r.Api.messages;
              string_of_int (r.Api.bytes / 1024);
              string_of_int r.Api.total_stats.Stats.page_fetches ])
          [ Config.Lrc; Config.Sc ])
      [ 2; 4; 8 ]
  in
  Tablefmt.render
    ~title:
      (Printf.sprintf
         "A2. False sharing: %d rounds of disjoint writes to ONE page (section 2.3)\n\
          (under LRC concurrent writers exchange small diffs; under single-writer SC\n\
          the entire 4 KB page ping-pongs through the manager on every write)"
         rounds)
    ~header:[ "writers"; "protocol"; "time ms"; "msgs"; "KB"; "page fetches" ]
    rows

(* ------------------------------------------------------------------ *)
(* A3: lazy vs eager diff creation                                     *)

let a3 () =
  let rows =
    List.concat_map
      (fun app ->
        List.map
          (fun lazy_diffs ->
            let cfg =
              { (Harness.config ~app ~nprocs:8 ~protocol:Config.Lrc ~net:atm) with
                Config.lazy_diffs }
            in
            let m = Harness.run_cfg ~app cfg in
            let diffs = m.Harness.m_raw.Api.total_stats.Stats.diffs_created in
            [ Harness.app_name app;
              (if lazy_diffs then "lazy" else "eager");
              f2 m.Harness.m_time_s;
              string_of_int diffs;
              f0 (float_of_int diffs /. m.Harness.m_time_s) ])
          [ true; false ])
      Harness.all_apps
  in
  Tablefmt.render
    ~title:
      "A3. Lazy vs eager diff creation within LRC, 8 processors (section 2.4)\n\
       (the paper reports lazy creation makes 25% fewer diffs for Jacobi at their scale)"
    ~header:[ "app"; "diffing"; "time s"; "diffs"; "diffs/s" ]
    rows

(* ------------------------------------------------------------------ *)
(* A4: garbage collection threshold                                    *)

let a4 () =
  (* A long-running barrier workload accumulating consistency records:
     every processor rewrites its slice of a multi-page region each
     round. *)
  let run threshold =
    let cfg =
      {
        Config.default with
        Config.nprocs = 8;
        pages = 64;
        seed = 9L;
        gc_threshold = threshold;
      }
    in
    Api.run cfg (fun ctx ->
        let nprocs = Api.nprocs ctx in
        let arr = Api.ialloc ~align:Tmk_mem.Vm.page_size ctx (8 * 1024) in
        for round = 1 to 30 do
          (* write the local slice, read the neighbour's: every round each
             slice is invalidated and re-fetched as diffs, so interval,
             notice and diff records accumulate on every node *)
          let base = Api.pid ctx * 1024 in
          for i = 0 to 255 do
            Api.iset ctx arr (base + (i * 4)) ((round * 10_000) + i)
          done;
          let nbase = (Api.pid ctx + 1) mod nprocs * 1024 in
          let sum = ref 0 in
          for i = 0 to 255 do
            sum := !sum + Api.iget ctx arr (nbase + (i * 4))
          done;
          Api.compute_ns ctx 2_000_000;
          Api.barrier ctx round
        done)
  in
  let rows =
    List.map
      (fun threshold ->
        let r = run threshold in
        let live =
          List.fold_left
            (fun acc p -> acc + (Protocol.node r.Api.cluster p).Node.live_records)
            0
            (List.init 8 (fun p -> p))
        in
        [ (if threshold = max_int then "off" else string_of_int threshold);
          f1 (Tmk_sim.Vtime.to_ms r.Api.total_time);
          string_of_int r.Api.total_stats.Stats.gc_runs;
          string_of_int r.Api.total_stats.Stats.records_discarded;
          string_of_int live;
          string_of_int r.Api.messages ])
      [ max_int; 400; 200; 100 ]
  in
  Tablefmt.render
    ~title:
      "A4. Garbage collection threshold (records per node) on a 30-round barrier\n\
       workload (section 3.6): lower thresholds bound memory at the cost of extra\n\
       collection barriers and page revalidation traffic"
    ~header:[ "threshold"; "time ms"; "gc runs"; "records freed"; "records live"; "msgs" ]
    rows

(* ------------------------------------------------------------------ *)
(* A5: loss                                                            *)

let a5 () =
  let app = Harness.Ilink in
  let rows =
    List.map
      (fun loss ->
        let cfg = Harness.config ~app ~nprocs:4 ~protocol:Config.Lrc ~net:atm in
        let cfg =
          if loss = 0.0 then cfg
          else { cfg with Config.faults = Tmk_net.Fault_plan.(with_loss none loss) }
        in
        let m = Harness.run_cfg ~app cfg in
        let raw = m.Harness.m_raw in
        [ Printf.sprintf "%.0f%%" (loss *. 100.0);
          f2 m.Harness.m_time_s;
          string_of_int raw.Api.messages;
          string_of_int raw.Api.retransmissions ])
      [ 0.0; 0.01; 0.05; 0.15 ]
  in
  Tablefmt.render
    ~title:
      "A5. Frame loss (ILINK, 4 processors): the operation-specific user-level\n\
       reliability protocols of section 3.7 keep executions correct; losses cost\n\
       retransmission timeouts"
    ~header:[ "loss rate"; "time s"; "frames"; "retransmissions" ]
    rows

(* ------------------------------------------------------------------ *)
(* A6: invalidate vs hybrid update                                     *)

let a6 () =
  let rows =
    List.concat_map
      (fun app ->
        List.map
          (fun lrc_updates ->
            let cfg =
              { (Harness.config ~app ~nprocs:8 ~protocol:Config.Lrc ~net:atm) with
                Config.lrc_updates }
            in
            let m = Harness.run_cfg ~app cfg in
            [ Harness.app_name app;
              (if lrc_updates then "update" else "invalidate");
              f2 m.Harness.m_time_s;
              f0 m.Harness.m_msgs_per_sec;
              f0 m.Harness.m_kbytes_per_sec;
              string_of_int m.Harness.m_raw.Api.total_stats.Stats.read_faults;
              string_of_int m.Harness.m_raw.Api.total_stats.Stats.remote_misses ])
          [ false; true ])
      Harness.all_apps
  in
  Tablefmt.render
    ~title:
      "A6. Invalidate vs hybrid-update write-notice propagation within LRC,
       8 processors (section 2.2 lists both; TreadMarks ships invalidate).
       The hybrid piggybacks diffs for pages the receiver caches, trading
       larger synchronization messages for fewer access misses"
    ~header:[ "app"; "mode"; "time s"; "msgs/s"; "KB/s"; "faults"; "misses" ]
    rows

let all =
  [
    Experiments.report "a1"
      "protocol zoo: LRC vs ERC vs single-writer SC on the five applications" a1;
    Experiments.report "a2"
      "false sharing: multiple-writer diffs vs single-writer page ping-pong" a2;
    Experiments.report "a3" "lazy vs eager diff creation within LRC" a3;
    Experiments.report "a4" "garbage collection threshold sweep" a4;
    Experiments.report "a5" "frame loss and the user-level reliability protocol" a5;
    Experiments.report "a6" "invalidate vs hybrid-update propagation within LRC" a6;
  ]
