open Tmk_sim
open Tmk_dsm
module Json = Tmk_util.Json
module Tablefmt = Tmk_util.Tablefmt
module Params = Tmk_net.Params

type id = E1 | E2 | E3 | E4 | E5 | E6 | E7 | E8 | E9 | E10 | E11 | E12 | E13 | E14

let all = [ E1; E2; E3; E4; E5; E6; E7; E8; E9; E10; E11; E12; E13; E14 ]

let id_name = function
  | E1 -> "e1"
  | E2 -> "e2"
  | E3 -> "e3"
  | E4 -> "e4"
  | E5 -> "e5"
  | E6 -> "e6"
  | E7 -> "e7"
  | E8 -> "e8"
  | E9 -> "e9"
  | E10 -> "e10"
  | E11 -> "e11"
  | E12 -> "e12"
  | E13 -> "e13"
  | E14 -> "e14"

let id_of_name s =
  match String.lowercase_ascii s with
  | "e1" -> E1
  | "e2" -> E2
  | "e3" -> E3
  | "e4" -> E4
  | "e5" -> E5
  | "e6" -> E6
  | "e7" -> E7
  | "e8" -> E8
  | "e9" -> E9
  | "e10" -> E10
  | "e11" -> E11
  | "e12" -> E12
  | "e13" -> E13
  | "e14" -> E14
  | other -> invalid_arg (Printf.sprintf "Experiments.id_of_name: unknown experiment %S" other)

let describe = function
  | E1 -> "basic operation costs (paper section 4.2)"
  | E2 -> "speedups on 1-8 processors, ATM/AAL3/4 (Figure 3)"
  | E3 -> "8-processor execution statistics (Figure 4)"
  | E4 -> "execution time breakdown (Figure 5)"
  | E5 -> "Unix overhead breakdown (Figure 6)"
  | E6 -> "TreadMarks overhead breakdown (Figure 7)"
  | E7 -> "Water across communication substrates (Figure 8)"
  | E8 -> "lazy vs eager release consistency (Figures 9-12)"
  | E9 -> "speedups on the 10 Mbps Ethernet (abstract)"
  | E10 -> "robustness sweep: all applications under 0-20% frame loss (section 3.7)"
  | E11 -> "scaling study, 2-64 processors, batched vs unbatched consistency traffic"
  | E12 -> "crash survival: recovery latency and diff replication cost, 8 processors"
  | E13 -> "coherence backend comparison: lazy/eager/tardis/sc-abd on both networks"
  | E14 -> "metadata-plane scaling, 64-1024 processors: flat vs ring-sharded + tree barriers"

let atm = Params.atm_aal34

(* Worker-domain count for sweeps whose arms are independent runs (E10,
   E11); 1 = sequential.  Arms that share memoised [lazy] baselines stay
   sequential whatever this says — forcing a lazy from two domains races. *)
let jobs = ref 1
let set_jobs n = jobs := max 1 n

let f1 v = Printf.sprintf "%.1f" v
let f2 v = Printf.sprintf "%.2f" v
let f0 v = Printf.sprintf "%.0f" v

(* Shared measurements, computed once per process. *)
let lrc_atm_8p =
  lazy
    (List.map
       (fun app -> (app, Harness.run ~app ~nprocs:8 ~protocol:Config.Lrc ~net:atm))
       Harness.all_apps)

let lrc_atm_1p =
  lazy
    (List.map
       (fun app -> (app, Harness.run ~app ~nprocs:1 ~protocol:Config.Lrc ~net:atm))
       Harness.all_apps)

let metrics_8p app = List.assoc app (Lazy.force lrc_atm_8p)
let metrics_1p app = List.assoc app (Lazy.force lrc_atm_1p)

(* ------------------------------------------------------------------ *)
(* E1: basic operation costs                                           *)

let measure_op nprocs setup op =
  let cfg = { Config.default with Config.nprocs; pages = 4; seed = 5L } in
  let cluster = Protocol.create cfg in
  let engine = Protocol.engine cluster in
  setup cluster engine;
  let t0 = ref Vtime.zero and t1 = ref Vtime.zero in
  Engine.spawn engine 0 (fun () ->
      t0 := Engine.now engine;
      op cluster;
      t1 := Engine.now engine);
  Engine.run engine;
  Vtime.to_us (Vtime.sub !t1 !t0)

let e1 () =
  let idle_spawn pids cluster engine =
    ignore cluster;
    List.iter (fun p -> Engine.spawn engine p (fun () -> ())) pids
  in
  let lock_direct =
    measure_op 2 (idle_spawn [ 1 ]) (fun cluster -> Protocol.acquire cluster ~pid:0 ~lock:1)
  in
  let lock_forwarded =
    measure_op 3
      (fun cluster engine ->
        Engine.spawn engine 1 (fun () -> ());
        Engine.spawn engine 2 (fun () ->
            Protocol.acquire cluster ~pid:2 ~lock:1;
            Protocol.release cluster ~pid:2 ~lock:1))
      (fun cluster ->
        Engine.advance Category.Computation (Vtime.ms 20);
        Protocol.acquire cluster ~pid:0 ~lock:1)
    -. 20_000.0
  in
  let barrier8 =
    let cfg = { Config.default with Config.nprocs = 8; pages = 4; seed = 5L } in
    let cluster = Protocol.create cfg in
    let engine = Protocol.engine cluster in
    let finish = Array.make 8 Vtime.zero in
    for p = 0 to 7 do
      Engine.spawn engine p (fun () ->
          Protocol.barrier cluster ~pid:p ~id:0;
          finish.(p) <- Engine.now engine)
    done;
    Engine.run engine;
    Vtime.to_us (Array.fold_left Vtime.max Vtime.zero finish)
  in
  let page_fault =
    (* the faulting processor must be the one with no copy: measure on 1 *)
    let cfg = { Config.default with Config.nprocs = 2; pages = 4; seed = 5L } in
    let cluster = Protocol.create cfg in
    let engine = Protocol.engine cluster in
    Engine.spawn engine 0 (fun () -> ());
    let t0 = ref Vtime.zero and t1 = ref Vtime.zero in
    Engine.spawn engine 1 (fun () ->
        t0 := Engine.now engine;
        ignore (Tmk_mem.Vm.read_int (Protocol.node cluster 1).Node.vm 0);
        t1 := Engine.now engine);
    Engine.run engine;
    Vtime.to_us (Vtime.sub !t1 !t0)
  in
  (* minimum round trips over the raw transport: the paper's 500 us
     blocking-receive case, and the 670 us both-ends-handler case *)
  let roundtrip ~handlers =
    let engine = Engine.create ~nprocs:2 in
    let prng = Tmk_util.Prng.create 5L in
    let transport = Tmk_net.Transport.create ~engine ~params:Params.atm_aal34 ~prng () in
    let t0 = ref Vtime.zero and t1 = ref Vtime.zero in
    if handlers then begin
      (* both directions delivered through SIGIO handlers *)
      Engine.spawn engine 1 (fun () -> ());
      Engine.spawn engine 0 (fun () ->
          t0 := Engine.now engine;
          let done_ = Engine.Ivar.create () in
          Tmk_net.Transport.send transport ~src:0 ~dst:1 ~bytes:0 ~deliver:(fun h ->
              Tmk_net.Transport.hsend transport h ~dst:0 ~bytes:0 ~deliver:(fun h2 ->
                  Engine.fill engine done_ ~at:(Engine.hnow h2) ()));
          Engine.await done_;
          t1 := Engine.now engine)
    end
    else begin
      (* both ends block in receive: the paper's plain send/receive case *)
      let ping = Tmk_net.Transport.mailbox () and pong = Tmk_net.Transport.mailbox () in
      Engine.spawn engine 1 (fun () ->
          let () = Tmk_net.Transport.await_value transport ping in
          Tmk_net.Transport.send_value transport ~src:1 ~dst:0 ~bytes:0 pong ());
      Engine.spawn engine 0 (fun () ->
          t0 := Engine.now engine;
          Tmk_net.Transport.send_value transport ~src:0 ~dst:1 ~bytes:0 ping ();
          let () = Tmk_net.Transport.await_value transport pong in
          t1 := Engine.now engine)
    end;
    Engine.run engine;
    Vtime.to_us (Vtime.sub !t1 !t0)
  in
  let rt_blocking = roundtrip ~handlers:false in
  let rt_handlers = roundtrip ~handlers:true in
  Tablefmt.render ~title:"E1. Basic operation costs (us), ATM/AAL3/4 [paper section 4.2]"
    ~header:[ "operation"; "measured"; "paper" ]
    [
      [ "min round trip, blocked receive both ends"; f0 rt_blocking; "500" ];
      [ "round trip, signal handlers both ends"; f0 rt_handlers; "670" ];
      [ "lock acquire, manager was last holder"; f0 lock_direct; "827" ];
      [ "lock acquire, one forwarding hop"; f0 lock_forwarded; "1149" ];
      [ "barrier, 8 processors"; f0 barrier8; "2186" ];
      [ "remote page fault (4096 bytes)"; f0 page_fault; "2792" ];
    ]

(* ------------------------------------------------------------------ *)
(* E2: Figure 3 speedups                                               *)

let paper_speedups_atm =
  [ (Harness.Water, 4.0); (Harness.Jacobi, 7.4); (Harness.Tsp, 7.2);
    (Harness.Quicksort, 6.3); (Harness.Ilink, 5.7) ]

let e2 () =
  let procs = [ 1; 2; 4; 6; 8 ] in
  let curves =
    List.map
      (fun app ->
        let base = (metrics_1p app).Harness.m_time_s in
        let speeds =
          List.map
            (fun n ->
              if n = 1 then 1.0
              else if n = 8 then base /. (metrics_8p app).Harness.m_time_s
              else
                base
                /. (Harness.run ~app ~nprocs:n ~protocol:Config.Lrc ~net:atm).Harness.m_time_s)
            procs
        in
        (app, speeds))
      Harness.all_apps
  in
  let chart =
    Tablefmt.line_chart ~title:"E2. Speedups on ATM/AAL3/4 [Figure 3]" ~x_label:"processors"
      ~y_label:"speedup"
      ~x:(List.map float_of_int procs)
      (List.map
         (fun (app, speeds) ->
           (Harness.app_name app, (Harness.app_name app).[0], speeds))
         curves)
  in
  let table =
    Tablefmt.render ~title:"8-processor speedups vs paper"
      ~header:[ "app"; "measured"; "paper" ]
      (List.map
         (fun (app, speeds) ->
           (* last point of the sweep = the 8-processor speedup; an empty
              sweep must render, not raise *)
           let speed_8p =
             match List.rev speeds with [] -> "n/a" | last :: _ -> f2 last
           in
           [ Harness.app_name app; speed_8p; f1 (List.assoc app paper_speedups_atm) ])
         curves)
  in
  chart ^ "\n" ^ table

(* ------------------------------------------------------------------ *)
(* E3: Figure 4 execution statistics                                   *)

let paper_stats =
  (* app, time, barriers/s, locks/s, msgs/s, kbytes/s *)
  [ (Harness.Water, (15.0, 2.5, 582.4, 2238.0, 798.0));
    (Harness.Jacobi, (32.0, 6.3, 0.0, 334.0, 415.0));
    (Harness.Tsp, (43.8, 0.0, 16.1, 404.0, 121.0));
    (Harness.Quicksort, (13.1, 0.4, 53.9, 703.0, 788.0));
    (Harness.Ilink, (1113.0, 0.4, 0.0, 456.0, 164.0)) ]

let e3 () =
  let row app =
    let m = metrics_8p app in
    let pt, pb, pl, pm, pk = List.assoc app paper_stats in
    let avg_msg = 1024.0 *. m.Harness.m_kbytes_per_sec /. m.Harness.m_msgs_per_sec in
    let paper_avg = 1024.0 *. pk /. pm in
    [ Harness.app_name app;
      Harness.workload_description app;
      f1 m.Harness.m_time_s ^ " / " ^ f1 pt;
      f1 m.Harness.m_barriers_per_sec ^ " / " ^ f1 pb;
      f1 m.Harness.m_locks_per_sec ^ " / " ^ f1 pl;
      f0 m.Harness.m_msgs_per_sec ^ " / " ^ f0 pm;
      f0 m.Harness.m_kbytes_per_sec ^ " / " ^ f0 pk;
      f0 avg_msg ^ " / " ^ f0 paper_avg ]
  in
  let stats_table =
    Tablefmt.render
      ~title:
        "E3. Execution statistics, 8 processors, ATM (measured / paper) [Figure 4]\n\
         (inputs are scaled versions of the paper's; rates are expected to land in the same \
         regime, not match absolutely; the paper highlights Water's many small messages —\n\
         average size 356 bytes)"
      ~header:[ "app"; "input"; "time s"; "barr/s"; "locks/s"; "msgs/s"; "KB/s"; "B/msg" ]
      (List.map row Harness.all_apps)
  in
  (* Message mix for Water, the communication-bound case: which protocol
     operations the 4.7 "large number of small messages" actually are. *)
  let water = metrics_8p Harness.Water in
  let transport = Protocol.transport water.Harness.m_raw.Api.cluster in
  let mix =
    Tablefmt.render ~title:"Water message mix (protocol operation, frames, on-wire KB)"
      ~header:[ "operation"; "frames"; "KB"; "avg B" ]
      (List.map
         (fun e ->
           let msgs = e.Tmk_net.Transport.mix_msgs
           and bytes = e.Tmk_net.Transport.mix_bytes in
           [ e.Tmk_net.Transport.mix_label; string_of_int msgs;
             string_of_int (bytes / 1024);
             f0 (float_of_int bytes /. float_of_int (max 1 msgs)) ])
         (Tmk_net.Transport.message_mix transport))
  in
  stats_table ^ "\n" ^ mix

(* ------------------------------------------------------------------ *)
(* E4-E6: breakdowns                                                   *)

let e4 () =
  let items =
    List.map
      (fun app ->
        let m = metrics_8p app in
        ( Harness.app_name app,
          [ m.Harness.m_comp_pct; Harness.unix_pct m; Harness.tmk_pct m; m.Harness.m_idle_pct ] ))
      Harness.all_apps
  in
  Tablefmt.stacked_bar_chart
    ~title:
      "E4. Execution time breakdown, % of total, 8 processors [Figure 5]\n\
       (paper: Unix overhead at least 3x TreadMarks overhead for every application)"
    ~unit_:"%" ~components:[ "computation"; "unix"; "treadmarks"; "idle" ] items

let e5 () =
  let items =
    List.concat_map
      (fun app ->
        let m = metrics_8p app in
        [ (Harness.app_name app ^ " comm", m.Harness.m_unix_comm_pct);
          (Harness.app_name app ^ " mem", m.Harness.m_unix_mem_pct) ])
      Harness.all_apps
  in
  Tablefmt.bar_chart
    ~title:
      "E5. Unix overhead breakdown, % of total execution time [Figure 6]\n\
       (paper: at least 80% of kernel time is communication for every application)"
    ~unit_:"%" items

let e6 () =
  let items =
    List.map
      (fun app ->
        let m = metrics_8p app in
        ( Harness.app_name app,
          [ m.Harness.m_tmk_mem_pct; m.Harness.m_tmk_consistency_pct; m.Harness.m_tmk_other_pct ] ))
      Harness.all_apps
  in
  Tablefmt.stacked_bar_chart
    ~title:
      "E6. TreadMarks overhead breakdown, % of total execution time [Figure 7]\n\
       (paper: dominated by memory management; consistency bookkeeping small)"
    ~unit_:"%" ~components:[ "memory"; "consistency"; "other" ] items

(* ------------------------------------------------------------------ *)
(* E7: Figure 8, Water across substrates                               *)

let e7 () =
  let substrates =
    [ (Params.atm_aal34, 15.0); (Params.atm_udp, 17.5); (Params.ethernet_udp, 27.5) ]
  in
  let rows =
    List.map
      (fun (net, paper_time) ->
        let m = Harness.run ~app:Harness.Water ~nprocs:8 ~protocol:Config.Lrc ~net in
        (m, paper_time))
      substrates
  in
  let base = (fun (m, _) -> m.Harness.m_time_s) (List.hd rows) in
  let paper_base = 15.0 in
  let items =
    List.map
      (fun (m, _) ->
        ( m.Harness.m_net,
          [ m.Harness.m_comp_pct *. m.Harness.m_time_s /. 100.0;
            Harness.unix_pct m *. m.Harness.m_time_s /. 100.0;
            Harness.tmk_pct m *. m.Harness.m_time_s /. 100.0;
            m.Harness.m_idle_pct *. m.Harness.m_time_s /. 100.0 ] ))
      rows
  in
  let chart =
    Tablefmt.stacked_bar_chart
      ~title:"E7. Water, 8 processors, per-processor seconds by category [Figure 8]" ~unit_:"s"
      ~components:[ "computation"; "unix"; "treadmarks"; "idle" ] items
  in
  let table =
    Tablefmt.render ~title:"Relative execution time (ATM-AAL3/4 = 1.0)"
      ~header:[ "substrate"; "time s"; "relative"; "paper relative" ]
      (List.map
         (fun (m, paper_time) ->
           [ m.Harness.m_net; f2 m.Harness.m_time_s; f2 (m.Harness.m_time_s /. base);
             f2 (paper_time /. paper_base) ])
         rows)
  in
  chart ^ "\n" ^ table

(* ------------------------------------------------------------------ *)
(* E8: Figures 9-12, LRC vs ERC                                        *)

let e8 () =
  let erc app n = Harness.run ~app ~nprocs:n ~protocol:Config.Erc ~net:atm in
  let data =
    List.map
      (fun app ->
        let lazy8 = metrics_8p app in
        let lazy1 = metrics_1p app in
        let eager8 = erc app 8 in
        let eager1 = erc app 1 in
        ( app,
          lazy1.Harness.m_time_s /. lazy8.Harness.m_time_s,
          eager1.Harness.m_time_s /. eager8.Harness.m_time_s,
          lazy8,
          eager8 ))
      Harness.all_apps
  in
  let speedups =
    Tablefmt.grouped_bar_chart ~title:"E8a. Speedups, 8 processors [Figure 9]" ~unit_:"x"
      ~series:[ "lazy"; "eager" ]
      (List.map (fun (app, sl, se, _, _) -> (Harness.app_name app, [ sl; se ])) data)
  in
  let msgs =
    Tablefmt.grouped_bar_chart ~title:"E8b. Message rate (messages/sec) [Figure 10]" ~unit_:""
      ~series:[ "lazy"; "eager" ]
      (List.map
         (fun (app, _, _, l, e) ->
           (Harness.app_name app, [ l.Harness.m_msgs_per_sec; e.Harness.m_msgs_per_sec ]))
         data)
  in
  let bytes =
    Tablefmt.grouped_bar_chart ~title:"E8c. Data rate (kbytes/sec) [Figure 11]" ~unit_:""
      ~series:[ "lazy"; "eager" ]
      (List.map
         (fun (app, _, _, l, e) ->
           (Harness.app_name app, [ l.Harness.m_kbytes_per_sec; e.Harness.m_kbytes_per_sec ]))
         data)
  in
  let diffs =
    Tablefmt.grouped_bar_chart ~title:"E8d. Diff creation rate (diffs/sec) [Figure 12]"
      ~unit_:"" ~series:[ "lazy"; "eager" ]
      (List.map
         (fun (app, _, _, l, e) ->
           (Harness.app_name app, [ l.Harness.m_diffs_per_sec; e.Harness.m_diffs_per_sec ]))
         data)
  in
  let note =
    "paper shape: LRC beats ERC for Water and Quicksort; comparable for Jacobi and ILINK;\n\
     ERC beats LRC for TSP (stale unsynchronized bound reads cause redundant search under\n\
     LRC, section 5.2); ERC always creates diffs at least as fast (eager creation).\n"
  in
  speedups ^ "\n" ^ msgs ^ "\n" ^ bytes ^ "\n" ^ diffs ^ "\n" ^ note

(* ------------------------------------------------------------------ *)
(* E9: Ethernet speedups                                               *)

let paper_speedups_eth =
  [ (Harness.Water, 2.1); (Harness.Jacobi, 5.5); (Harness.Tsp, 6.5);
    (Harness.Quicksort, 4.2); (Harness.Ilink, 5.1) ]

let e9 () =
  let eth = Params.ethernet_udp in
  let rows =
    List.map
      (fun app ->
        let base = Harness.run ~app ~nprocs:1 ~protocol:Config.Lrc ~net:eth in
        let m = Harness.run ~app ~nprocs:8 ~protocol:Config.Lrc ~net:eth in
        [ Harness.app_name app;
          f2 (base.Harness.m_time_s /. m.Harness.m_time_s);
          f1 (List.assoc app paper_speedups_eth);
          f2
            ((metrics_1p app).Harness.m_time_s /. (metrics_8p app).Harness.m_time_s) ])
      Harness.all_apps
  in
  Tablefmt.render
    ~title:"E9. 8-processor speedups on the 10 Mbps Ethernet [paper abstract]"
    ~header:[ "app"; "measured"; "paper"; "(ATM measured)" ]
    rows

(* ------------------------------------------------------------------ *)
(* E10: robustness sweep                                               *)

let e10_loss_rates = [ 0.0; 0.01; 0.05; 0.10; 0.20 ]

let e10 () =
  let run_at app rate =
    let cfg = Harness.config ~app ~nprocs:8 ~protocol:Config.Lrc ~net:atm in
    let cfg =
      if rate = 0.0 then cfg
      else { cfg with Config.faults = Tmk_net.Fault_plan.with_loss Tmk_net.Fault_plan.none rate }
    in
    Harness.run_checked ~app cfg
  in
  (* app × loss-rate arms are independent checked runs — fan them across
     domains and look results up by arm (rate 0.0 doubles as the baseline,
     run once). *)
  let arms =
    List.concat_map
      (fun app -> List.map (fun rate -> (app, rate)) e10_loss_rates)
      Harness.all_apps
  in
  let results = Harness.parallel_map ~jobs:!jobs (fun (app, rate) -> run_at app rate) arms in
  let by_arm = Hashtbl.create 32 in
  List.iter2 (fun arm r -> Hashtbl.replace by_arm arm r) arms results;
  let rows =
    List.concat_map
      (fun app ->
        let base, base_digest = Hashtbl.find by_arm (app, 0.0) in
        let base_msgs = base.Harness.m_raw.Api.messages in
        List.map
          (fun rate ->
            let m, digest = Hashtbl.find by_arm (app, rate) in
            let msgs = m.Harness.m_raw.Api.messages in
            let overhead =
              100.0 *. (float_of_int msgs /. float_of_int base_msgs -. 1.0)
            in
            [ Harness.app_name app;
              Printf.sprintf "%.0f%%" (rate *. 100.0);
              f2 m.Harness.m_time_s;
              string_of_int m.Harness.m_raw.Api.retransmissions;
              string_of_int msgs;
              Printf.sprintf "%+.0f%%" overhead;
              (if digest = base_digest then "ok" else "MISMATCH") ])
          e10_loss_rates)
      Harness.all_apps
  in
  Tablefmt.render
    ~title:
      "E10. Robustness sweep: LRC, 8 processors, ATM, frame loss 0-20%\n\
       (user-level reliability protocol, section 3.7: the DSM answer must be\n\
       bit-identical at every loss rate; message overhead = extra frames from\n\
       retransmissions and acknowledgements vs the loss-free run)"
    ~header:[ "app"; "loss"; "time s"; "retrans"; "frames"; "overhead"; "result" ]
    rows

(* ------------------------------------------------------------------ *)
(* E11: scaling past the paper, batched vs unbatched traffic           *)

let e11_procs = [ 2; 4; 8; 16; 32; 64 ]

(* "Per acquire" normalizes traffic by synchronization operations (lock
   acquires + barrier arrivals): as the cluster grows, each operation
   carries more piggybacked intervals, and the batched protocol's win is
   exactly the frames it no longer pays per interval. *)
let e11_acquires (m : Harness.metrics) =
  let s = m.Harness.m_raw.Api.total_stats in
  s.Stats.lock_acquires + s.Stats.barriers

let e11_per_acquire (m : Harness.metrics) =
  let acq = float_of_int (max 1 (e11_acquires m)) in
  ( float_of_int m.Harness.m_raw.Api.messages /. acq,
    float_of_int m.Harness.m_raw.Api.bytes /. 1024.0 /. acq )

let e11_json data =
  let mode_json (m : Harness.metrics) base_time =
    let mpa, kpa = e11_per_acquire m in
    let raw = m.Harness.m_raw in
    let s = raw.Api.total_stats in
    Json.(
      Obj
        [ ("time_s", Float (m.Harness.m_time_s, 6));
          ("speedup", Float (base_time /. m.Harness.m_time_s, 4));
          ("messages", Int raw.Api.messages); ("bytes", Int raw.Api.bytes);
          ("acquires", Int (e11_acquires m)); ("msgs_per_acquire", Float (mpa, 4));
          ("kb_per_acquire", Float (kpa, 4));
          ("frames_coalesced", Int raw.Api.frames_coalesced);
          ("diff_cache_hits", Int s.Stats.diff_cache_hits);
          ("diff_cache_misses", Int s.Stats.diff_cache_misses) ])
  in
  let point base_time (n, batched, unbatched) =
    Json.(
      Obj
        [ ("nprocs", Int n); ("batched", mode_json batched base_time);
          ("unbatched", mode_json unbatched base_time) ])
  in
  let app_json (app, (base : Harness.metrics), points) =
    Json.(
      Obj
        [ ("app", String (Harness.app_name app));
          ("workload", String (Harness.workload_description app));
          ("baseline_time_s", Float (base.Harness.m_time_s, 6));
          ("points", List (List.map (point base.Harness.m_time_s) points)) ])
  in
  Json.(
    Obj
      [ ("experiment", String "E11"); ("protocol", String "lrc");
        ("network", String "atm-aal34"); ("apps", List (List.map app_json data)) ])

let e11 () =
  (* Every arm of the sweep is an independent run, so fan the flattened
     arm list across domains ([--jobs]) and reassemble by position —
     output is identical to the sequential nesting. *)
  let arms =
    List.concat_map
      (fun app ->
        (app, 1, true)
        :: List.concat_map (fun n -> [ (app, n, true); (app, n, false) ]) e11_procs)
      Harness.all_apps
  in
  let run_arm (app, n, batching) =
    let cfg = Harness.config ~app ~nprocs:n ~protocol:Config.Lrc ~net:atm in
    Harness.run_cfg ~app { cfg with Config.batching = batching }
  in
  let results = Harness.parallel_map ~jobs:!jobs run_arm arms in
  let by_arm = Hashtbl.create 128 in
  List.iter2 (fun arm m -> Hashtbl.replace by_arm arm m) arms results;
  let data =
    List.map
      (fun app ->
        let base = Hashtbl.find by_arm (app, 1, true) in
        let points =
          List.map
            (fun n ->
              (n, Hashtbl.find by_arm (app, n, true), Hashtbl.find by_arm (app, n, false)))
            e11_procs
        in
        (app, base, points))
      Harness.all_apps
  in
  let json_file = "BENCH_3.json" in
  Json.to_file json_file (e11_json data);
  let speedup_chart =
    Tablefmt.line_chart
      ~title:"E11a. Speedups, 2-64 processors, batched (4x the paper's cluster size)"
      ~x_label:"processors" ~y_label:"speedup"
      ~x:(List.map float_of_int e11_procs)
      (List.map
         (fun (app, (base : Harness.metrics), points) ->
           ( Harness.app_name app,
             (Harness.app_name app).[0],
             List.map
               (fun (_, (batched : Harness.metrics), _) ->
                 base.Harness.m_time_s /. batched.Harness.m_time_s)
               points ))
         data)
  in
  let per_app (app, (base : Harness.metrics), points) =
    Tablefmt.render
      ~title:
        (Printf.sprintf "E11b. %s (%s): batched vs unbatched consistency traffic"
           (Harness.app_name app)
           (Harness.workload_description app))
      ~header:
        [ "procs"; "speedup b/u"; "msgs/acq b/u"; "KB/acq b/u"; "coalesced"; "cache h/m" ]
      (List.map
         (fun (n, (bm : Harness.metrics), (um : Harness.metrics)) ->
           let b_mpa, b_kpa = e11_per_acquire bm in
           let u_mpa, u_kpa = e11_per_acquire um in
           let bs = bm.Harness.m_raw.Api.total_stats in
           [ string_of_int n;
             f2 (base.Harness.m_time_s /. bm.Harness.m_time_s)
             ^ " / "
             ^ f2 (base.Harness.m_time_s /. um.Harness.m_time_s);
             f2 b_mpa ^ " / " ^ f2 u_mpa;
             f2 b_kpa ^ " / " ^ f2 u_kpa;
             string_of_int bm.Harness.m_raw.Api.frames_coalesced;
             Printf.sprintf "%d/%d" bs.Stats.diff_cache_hits bs.Stats.diff_cache_misses ])
         points)
  in
  let strict =
    List.for_all
      (fun (_, _, points) ->
        List.for_all
          (fun (_, bm, um) ->
            let b_mpa, _ = e11_per_acquire bm and u_mpa, _ = e11_per_acquire um in
            b_mpa < u_mpa)
          points)
      data
  in
  String.concat "\n"
    (speedup_chart :: List.map per_app data
    @ [
        Printf.sprintf
          "batching strictly reduces messages per acquire at every point: %s\n\
           (raw measurements written to %s)"
          (if strict then "yes" else "NO - REGRESSION")
          json_file;
      ])

(* ------------------------------------------------------------------ *)
(* E12: crash survival, recovery latency, diff replication cost        *)

let e12_nprocs = 8
let e12_crash_pid = 4

(* One arm of the E12 matrix.  [Harness.run_checked] raises [Degraded]
   when the survivors needed state only the dead processor held; the arm
   records that outcome instead of aborting the experiment. *)
type e12_outcome =
  | E12_ok of Harness.metrics * string  (* metrics, result digest *)
  | E12_degraded of int * string  (* pid whose loss caused it, reason *)

let e12_arm ~app ~crash_at ~backup =
  let cfg = Harness.config ~app ~nprocs:e12_nprocs ~protocol:Config.Lrc ~net:atm in
  let cfg = { cfg with Config.diff_backup = backup } in
  let cfg =
    match crash_at with
    | None -> cfg
    | Some at ->
      { cfg with
        Config.faults =
          Tmk_net.Fault_plan.with_crash Tmk_net.Fault_plan.none ~pid:e12_crash_pid ~at }
  in
  match Harness.run_checked ~app cfg with
  | m, digest -> E12_ok (m, digest)
  | exception Api.Degraded { pid; reason } -> E12_degraded (pid, reason)

let e12_json data =
  let us t = Json.Float (Vtime.to_us t, 0) in
  let recovery_json (r : Protocol.recovery) =
    Json.(
      Obj
        [ ("pid", Int r.Protocol.rc_pid); ("epoch", Int r.Protocol.rc_epoch);
          ("crash_at_us", us r.Protocol.rc_crash_at);
          ("detected_at_us", us r.Protocol.rc_detected_at);
          ("latency_us", us (Vtime.sub r.Protocol.rc_detected_at r.Protocol.rc_crash_at));
          ("locks_rehomed", Int r.Protocol.rc_locks_rehomed);
          ("refetches", Int r.Protocol.rc_retries) ])
  in
  let arm_json ((crash, backup), outcome) =
    let arm = Json.[ ("crash", Bool crash); ("backup", Bool backup) ] in
    match outcome with
    | E12_degraded (pid, reason) ->
      Json.(
        Obj
          (arm
          @ [ ("survived", Bool false); ("degraded_pid", Int pid);
              ("reason", String reason) ]))
    | E12_ok (m, digest) ->
      let raw = m.Harness.m_raw in
      let s = raw.Api.total_stats in
      Json.(
        Obj
          (arm
          @ [ ("survived", Bool true); ("time_s", Float (m.Harness.m_time_s, 6));
              ("messages", Int raw.Api.messages); ("bytes", Int raw.Api.bytes);
              ("diff_backups", Int s.Stats.diff_backups);
              ("diff_backup_bytes", Int s.Stats.diff_backup_bytes); ("digest", String digest);
              ("recoveries", List (List.map recovery_json raw.Api.recoveries)) ]))
  in
  let app_json (app, crash_at, arms) =
    Json.(
      Obj
        [ ("app", String (Harness.app_name app));
          ("crash_at_us", us crash_at);
          ("arms", List (List.map arm_json arms)) ])
  in
  Json.(
    Obj
      [ ("experiment", String "E12"); ("protocol", String "lrc");
        ("network", String "atm-aal34"); ("nprocs", Int e12_nprocs);
        ("crash_pid", Int e12_crash_pid); ("apps", List (List.map app_json data)) ])

let e12 () =
  let data =
    List.map
      (fun app ->
        (* Crash processor 4 halfway through the crash-free run. *)
        let base = e12_arm ~app ~crash_at:None ~backup:false in
        let base_time =
          match base with
          | E12_ok (m, _) -> m.Harness.m_time_s
          | E12_degraded _ -> assert false (* no crash plan: cannot degrade *)
        in
        let crash_at = Vtime.us (int_of_float (base_time *. 1e6 /. 2.0)) in
        let arms =
          [ ((false, false), base);
            ((false, true), e12_arm ~app ~crash_at:None ~backup:true);
            ((true, false), e12_arm ~app ~crash_at:(Some crash_at) ~backup:false);
            ((true, true), e12_arm ~app ~crash_at:(Some crash_at) ~backup:true) ]
        in
        (app, crash_at, arms))
      Harness.all_apps
  in
  let json_file = "BENCH_5.json" in
  Json.to_file json_file (e12_json data);
  let arm_name (crash, backup) =
    (if crash then "crash" else "no crash") ^ (if backup then " +backup" else "")
  in
  let rows =
    List.concat_map
      (fun (app, crash_at, arms) ->
        List.map
          (fun (arm, outcome) ->
            let when_ = if fst arm then Printf.sprintf "%.0f" (Vtime.to_us crash_at) else "-" in
            match outcome with
            | E12_degraded (pid, reason) ->
              [ Harness.app_name app; arm_name arm; when_;
                Printf.sprintf "degraded (p%d: %s)" pid reason; "-"; "-"; "-" ]
            | E12_ok (m, _) ->
              let latency, rehomed, refetches =
                match m.Harness.m_raw.Api.recoveries with
                | [] -> ("-", "-", "-")
                | rs ->
                  ( String.concat "+"
                      (List.map
                         (fun r ->
                           f0
                             (Vtime.to_us
                                (Vtime.sub r.Protocol.rc_detected_at r.Protocol.rc_crash_at)))
                         rs),
                    string_of_int
                      (List.fold_left (fun a r -> a + r.Protocol.rc_locks_rehomed) 0 rs),
                    string_of_int (List.fold_left (fun a r -> a + r.Protocol.rc_retries) 0 rs) )
              in
              [ Harness.app_name app; arm_name arm; when_; "completed " ^ f2 m.Harness.m_time_s ^ "s";
                latency; rehomed; refetches ])
          arms)
      data
  in
  let table =
    Tablefmt.render
      ~title:
        (Printf.sprintf
           "E12. Crash survival: LRC, %d processors, ATM; processor %d dies halfway\n\
            (failure detection by heartbeat + retransmission exhaustion; lock managership\n\
            migrates to the next live processor; +backup mirrors each diff to one peer)"
           e12_nprocs e12_crash_pid)
      ~header:[ "app"; "arm"; "crash us"; "outcome"; "detect us"; "locks rehomed"; "refetches" ]
      rows
  in
  (* Replication cost: what the diff mirroring adds to a crash-free run. *)
  let overhead =
    Tablefmt.render ~title:"Diff replication overhead (no-crash runs, +backup vs plain)"
      ~header:[ "app"; "mirrored diffs"; "mirror KB"; "msgs +%"; "bytes +%"; "time +%" ]
      (List.filter_map
         (fun (app, _, arms) ->
           match (List.assoc (false, false) arms, List.assoc (false, true) arms) with
           | E12_ok (plain, _), E12_ok (backed, _) ->
             let s = backed.Harness.m_raw.Api.total_stats in
             let pct f g = Printf.sprintf "%+.1f%%" (100.0 *. ((f /. g) -. 1.0)) in
             Some
               [ Harness.app_name app;
                 string_of_int s.Stats.diff_backups;
                 string_of_int (s.Stats.diff_backup_bytes / 1024);
                 pct
                   (float_of_int backed.Harness.m_raw.Api.messages)
                   (float_of_int plain.Harness.m_raw.Api.messages);
                 pct
                   (float_of_int backed.Harness.m_raw.Api.bytes)
                   (float_of_int plain.Harness.m_raw.Api.bytes);
                 pct backed.Harness.m_time_s plain.Harness.m_time_s ]
           | _ -> None)
         data)
  in
  let survived_crashes =
    List.concat_map
      (fun (_, _, arms) ->
        List.filter_map
          (fun ((crash, _), o) ->
            if crash then Some (match o with E12_ok _ -> true | E12_degraded _ -> false)
            else None)
          arms)
      data
  in
  let n_ok = List.length (List.filter Fun.id survived_crashes) in
  table ^ "\n" ^ overhead
  ^ Printf.sprintf "\ncrash arms survived: %d/%d (raw measurements written to %s)\n" n_ok
      (List.length survived_crashes) json_file

(* ------------------------------------------------------------------ *)
(* E13: coherence backend comparison                                   *)

let e13_nprocs = 8
let e13_backends = [ Config.Lrc; Config.Erc; Config.Tardis; Config.Sc_abd ]
let e13_nets = [ Params.atm_aal34; Params.ethernet_udp ]

let e13_json data =
  let arm_json lazy_time (protocol, (m : Harness.metrics), digest) =
    let raw = m.Harness.m_raw in
    let s = raw.Api.total_stats in
    Json.(
      Obj
        [ ("backend", String (Config.protocol_name protocol));
          ("time_s", Float (m.Harness.m_time_s, 6));
          ("vs_lazy", Float (lazy_time /. m.Harness.m_time_s, 4));
          ("messages", Int raw.Api.messages); ("bytes", Int raw.Api.bytes);
          ("page_fetches", Int s.Stats.page_fetches);
          ("diffs_created", Int s.Stats.diffs_created);
          ("diffs_applied", Int s.Stats.diffs_applied);
          ("lease_expiries", Int s.Stats.lease_expiries);
          ("quorum_reads", Int s.Stats.quorum_reads);
          ("quorum_writes", Int s.Stats.quorum_writes);
          ("digest", String digest) ])
  in
  let app_json (app, arms) =
    let lazy_time =
      let _, (m : Harness.metrics), _ = List.find (fun (p, _, _) -> p = Config.Lrc) arms in
      m.Harness.m_time_s
    in
    Json.(
      Obj
        [ ("app", String (Harness.app_name app));
          ("workload", String (Harness.workload_description app));
          ("backends", List (List.map (arm_json lazy_time) arms)) ])
  in
  let net_json (net, by_app) =
    Json.(
      Obj
        [ ("network", String (Params.name net)); ("apps", List (List.map app_json by_app)) ])
  in
  Json.(
    Obj
      [ ("experiment", String "E13"); ("nprocs", Int e13_nprocs);
        ("networks", List (List.map net_json data)) ])

let e13 () =
  let arms =
    List.concat_map
      (fun net ->
        List.concat_map
          (fun app -> List.map (fun protocol -> (net, app, protocol)) e13_backends)
          Harness.all_apps)
      e13_nets
  in
  let run_arm (net, app, protocol) =
    Harness.run_checked ~app (Harness.config ~app ~nprocs:e13_nprocs ~protocol ~net)
  in
  let results = Harness.parallel_map ~jobs:!jobs run_arm arms in
  let by_arm = Hashtbl.create 64 in
  List.iter2 (fun arm r -> Hashtbl.replace by_arm arm r) arms results;
  let data =
    List.map
      (fun net ->
        ( net,
          List.map
            (fun app ->
              ( app,
                List.map
                  (fun protocol ->
                    let m, digest = Hashtbl.find by_arm (net, app, protocol) in
                    (protocol, m, digest))
                  e13_backends ))
            Harness.all_apps ))
      e13_nets
  in
  let json_file = "BENCH_7.json" in
  Json.to_file json_file (e13_json data);
  let per_net (net, by_app) =
    Tablefmt.render
      ~title:
        (Printf.sprintf
           "E13. Coherence backends on %s, %d processors\n\
            (time in simulated seconds; vs-lazy = lazy time / backend time)"
           (Params.name net) e13_nprocs)
      ~header:
        [ "app"; "lazy s"; "eager s (vs)"; "tardis s (vs)"; "sc-abd s (vs)"; "answers" ]
      (List.map
         (fun (app, arms) ->
           let time p =
             let _, (m : Harness.metrics), _ = List.find (fun (q, _, _) -> q = p) arms in
             m.Harness.m_time_s
           in
           let cell p = Printf.sprintf "%s (%s)" (f2 (time p)) (f2 (time Config.Lrc /. time p)) in
           let digests = List.map (fun (_, _, d) -> d) arms in
           let agree = List.for_all (fun d -> d = List.hd digests) digests in
           [ Harness.app_name app;
             f2 (time Config.Lrc);
             cell Config.Erc;
             cell Config.Tardis;
             cell Config.Sc_abd;
             (if agree then "identical" else "MISMATCH") ])
         by_app)
  in
  let all_agree =
    List.for_all
      (fun (_, by_app) ->
        List.for_all
          (fun (_, arms) ->
            match List.map (fun (_, _, d) -> d) arms with
            | [] -> true
            | d :: rest -> List.for_all (( = ) d) rest)
          by_app)
      data
  in
  String.concat "\n"
    (List.map per_net data
    @ [
        Printf.sprintf
          "every application digests identically under every backend: %s\n\
           (raw measurements written to %s)"
          (if all_agree then "yes" else "NO - REGRESSION")
          json_file;
      ])

(* ------------------------------------------------------------------ *)
(* E14: metadata-plane scaling, flat vs ring-sharded + tree barriers   *)

(* Water is excluded: its lock-heavy molecule sweep runs minutes of wall
   time per 1024-processor arm without exercising the metadata plane any
   differently than TSP's queue lock already does. *)
let e14_apps = [ Harness.Jacobi; Harness.Tsp ]
let e14_protocols = [ Config.Lrc; Config.Tardis ]
let e14_procs = ref [ 64; 256; 1024 ]
let set_e14_procs l = if l <> [] then e14_procs := List.sort_uniq compare l

let e14_cfg ~app ~n ~protocol ~sharded =
  let cfg = Harness.config ~app ~nprocs:n ~protocol ~net:atm in
  { cfg with Config.sharding = sharded; barrier_tree = sharded }

(* The hot-spot metric: frames delivered at processor 0 — the flat
   design's barrier manager, GC aggregator and home of the low-numbered
   locks — normalized by the barriers it went through.  The flat plane
   grows O(nprocs) here; the sharded one is capped near the tree arity
   plus a 1/nprocs slice of the data traffic. *)
let e14_mgr_per_barrier (m : Harness.metrics) =
  let raw = m.Harness.m_raw in
  let barriers = max 1 raw.Api.stats.(0).Stats.barriers in
  float_of_int raw.Api.proc_msgs.(0) /. float_of_int barriers

let e14_json data =
  let mode_json ((m : Harness.metrics), digest) =
    let mpa, kpa = e11_per_acquire m in
    let raw = m.Harness.m_raw in
    Json.(
      Obj
        [ ("time_s", Float (m.Harness.m_time_s, 6)); ("messages", Int raw.Api.messages);
          ("bytes", Int raw.Api.bytes); ("acquires", Int (e11_acquires m));
          ("msgs_per_acquire", Float (mpa, 4)); ("kb_per_acquire", Float (kpa, 4));
          ("mgr_frames", Int raw.Api.proc_msgs.(0));
          ("max_frames", Int (Array.fold_left max 0 raw.Api.proc_msgs));
          ("barriers_per_proc", Int raw.Api.stats.(0).Stats.barriers);
          ("mgr_frames_per_barrier", Float (e14_mgr_per_barrier m, 2));
          ("digest", String digest) ])
  in
  let point (n, flat, sharded) =
    Json.(
      Obj
        [ ("nprocs", Int n); ("flat", mode_json flat); ("sharded", mode_json sharded);
          ("digests_match", Bool (snd flat = snd sharded)) ])
  in
  let protocol_json (protocol, points) =
    Json.(
      Obj
        [ ("protocol", String (Config.protocol_name protocol));
          ("points", List (List.map point points)) ])
  in
  let app_json (app, by_proto) =
    Json.(
      Obj
        [ ("app", String (Harness.app_name app));
          ("workload", String (Harness.workload_description app));
          ("protocols", List (List.map protocol_json by_proto)) ])
  in
  Json.(
    Obj
      [ ("experiment", String "E14"); ("network", String "atm-aal34");
        ("apps", List (List.map app_json data)) ])

let e14 () =
  let procs = !e14_procs in
  let arms =
    List.concat_map
      (fun app ->
        List.concat_map
          (fun protocol ->
            List.concat_map
              (fun n -> [ (app, protocol, n, false); (app, protocol, n, true) ])
              procs)
          e14_protocols)
      e14_apps
  in
  let run_arm (app, protocol, n, sharded) =
    Harness.run_checked ~app (e14_cfg ~app ~n ~protocol ~sharded)
  in
  let results = Harness.parallel_map ~jobs:!jobs run_arm arms in
  let by_arm = Hashtbl.create 64 in
  List.iter2 (fun arm r -> Hashtbl.replace by_arm arm r) arms results;
  let data =
    List.map
      (fun app ->
        ( app,
          List.map
            (fun protocol ->
              ( protocol,
                List.map
                  (fun n ->
                    ( n,
                      Hashtbl.find by_arm (app, protocol, n, false),
                      Hashtbl.find by_arm (app, protocol, n, true) ))
                  procs ))
            e14_protocols ))
      e14_apps
  in
  let json_file = "BENCH_10.json" in
  Json.to_file json_file (e14_json data);
  let per_table (app, by_proto) =
    List.map
      (fun (protocol, points) ->
        Tablefmt.render
          ~title:
            (Printf.sprintf
               "E14. %s, %s: flat vs ring-sharded metadata plane\n\
                (mgr/barrier = frames delivered at processor 0 per barrier; flat \
                centralizes there, sharding caps it near the tree arity)"
               (Harness.app_name app)
               (Config.protocol_name protocol))
          ~header:
            [ "procs"; "time f/s"; "mgr/barrier f/s"; "msgs/acq f/s"; "answers" ]
          (List.map
             (fun (n, ((fm : Harness.metrics), fd), ((sm : Harness.metrics), sd)) ->
               let f_mpa, _ = e11_per_acquire fm and s_mpa, _ = e11_per_acquire sm in
               [ string_of_int n;
                 f2 fm.Harness.m_time_s ^ " / " ^ f2 sm.Harness.m_time_s;
                 f1 (e14_mgr_per_barrier fm) ^ " / " ^ f1 (e14_mgr_per_barrier sm);
                 f2 f_mpa ^ " / " ^ f2 s_mpa;
                 (if fd = sd then "identical" else "MISMATCH") ])
             points))
      by_proto
  in
  let digests_ok =
    List.for_all
      (fun (_, by_proto) ->
        List.for_all
          (fun (_, points) -> List.for_all (fun (_, (_, fd), (_, sd)) -> fd = sd) points)
          by_proto)
      data
  in
  (* The scaling claims need a real sweep (at least a 4x processor
     range); a smoke run at a single count only checks digests and the
     strict-reduction property.

     The within-2x flatness claim applies to *barrier-paced* arms
     (Jacobi: 17 barriers per processor) — there the pid-0 frames are
     the metadata plane the tree shards, and the sharded load is
     constant.  TSP runs two barriers total, so its pid-0 frames are
     dominated by the central work-queue lock's request/forward chain —
     a single hot lock is O(nprocs) requests under the paper's
     forwarding protocol no matter who homes it.  Sharding still halves
     that hot spot (the lock's home moves off the barrier manager and
     the data traffic spreads), which is the strict-reduction line. *)
  let lo = List.hd procs and hi = List.nth procs (List.length procs - 1) in
  let swept = hi >= 4 * lo in
  let barrier_paced points =
    List.for_all
      (fun (_, ((fm : Harness.metrics), _), _) ->
        fm.Harness.m_raw.Api.stats.(0).Stats.barriers >= 8)
      points
  in
  let fold_arms f init =
    List.fold_left
      (fun acc (_, by_proto) ->
        List.fold_left (fun acc (_, points) -> f acc points) acc by_proto)
      init data
  in
  let flat_grows, sharded_flat =
    if not swept then (true, true)
    else
      fold_arms
        (fun (fg, sf) points ->
          let at n sel =
            let _, f, s = List.find (fun (m, _, _) -> m = n) points in
            e14_mgr_per_barrier (fst (sel (f, s)))
          in
          ( fg && at hi fst >= 4.0 *. at lo fst,
            sf && ((not (barrier_paced points)) || at hi snd <= 2.0 *. at lo snd) ))
        (true, true)
  in
  let sharding_reduces =
    fold_arms
      (fun ok points ->
        ok
        && List.for_all
             (fun (_, (fm, _), (sm, _)) ->
               e14_mgr_per_barrier sm < e14_mgr_per_barrier fm)
             points)
      true
  in
  String.concat "\n"
    (List.concat_map per_table data
    @ [
        Printf.sprintf
          "digests identical across flat and sharded arms: %s\n\
           sharding reduces the pid-0 hot spot at every measured point: %s\n\
           flat manager load grows at least 4x from %d to %d processors: %s\n\
           sharded manager load stays within 2x from %d to %d processors (barrier-paced arms): %s\n\
           (raw measurements written to %s)"
          (if digests_ok then "yes" else "NO - REGRESSION")
          (if sharding_reduces then "yes" else "NO - REGRESSION")
          lo hi
          (if not swept then "not swept" else if flat_grows then "yes" else "NO - REGRESSION")
          lo hi
          (if not swept then "not swept" else if sharded_flat then "yes" else "NO - REGRESSION")
          json_file;
      ])

let run = function
  | E1 -> e1 ()
  | E2 -> e2 ()
  | E3 -> e3 ()
  | E4 -> e4 ()
  | E5 -> e5 ()
  | E6 -> e6 ()
  | E7 -> e7 ()
  | E8 -> e8 ()
  | E9 -> e9 ()
  | E10 -> e10 ()
  | E11 -> e11 ()
  | E12 -> e12 ()
  | E13 -> e13 ()
  | E14 -> e14 ()

let run_all () =
  String.concat "\n"
    (List.map
       (fun id ->
         Printf.sprintf "=== %s: %s ===\n%s" (String.uppercase_ascii (id_name id))
           (describe id) (run id))
       all)
