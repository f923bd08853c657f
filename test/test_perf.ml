(* Digest equivalence for the simulator's hot-path machinery.

   The fast paths (software-MMU unchecked-access bitmap, word-granular
   RLE, domain-parallel sweeps) and the sparse per-node layout (page
   frames allocated on first touch, write notices keyed by writer) are
   pure simulator-speed changes: every simulated quantity — application
   answer, Stats counters, message/byte counts, simulated time — must be
   bit-identical with them on or off.  These tests enforce that
   end-to-end:

   - all five applications at 8 and 32 processors, Quicksort under
     Tardis and Water under SC-ABD at 8: same digest and same run
     accounting on the MMU fast path as on the checked path, which a
     checker carrying one no-op access hook forces;
   - the race detector is an observer only: a run carrying it matches a
     run with no checker, and it flags the racy fixture (a Vm-level test
     counts hook calls);
   - the benchmark's four workloads, Water at 32 and 64 processors, a
     GC-heavy Water run, a Jacobi run collecting over a narrow barrier
     tree, Water under frame loss and under a crash, Water with the
     hybrid update protocol over a binary tree, Jacobi with diff
     backups, ILINK at 16 processors with and without the update
     protocol, Quicksort at 8 processors under lazy and sc, and Water at
     8 processors under eager, sc and sc-abd match pinned fingerprints;
   - set-up memory follows the pages a node touches, fast-path typed
     accesses allocate nothing, a diff replay allocates in proportion
     to the diffs it applies, not to held x missing notices, an engine
     advance allocates only what its effect round trip needs, a
     protocol section allocates nothing per charge, a diff encode
     allocates its runs, a barrier release's records are
     incorporated and walked without temporaries, a cluster holds
     one record per interval, not one per node, page entries share
     their copysets, a page with nothing unsettled is walked without
     allocating, and a page copy reuses a pooled buffer;
   - a sweep mapped with [Harness.parallel_map ~jobs:4] equals the
     sequential map, element for element.

   The equivalence runs themselves fan out across domains (they are
   independent simulations), which keeps the suite's wall time near the
   slowest single run instead of the sum. *)

open Tmk_dsm
module Harness = Tmk_harness.Harness
module Vm = Tmk_mem.Vm

let check = Alcotest.check

let cfg_of ~app ~nprocs ~protocol =
  Harness.config ~app ~nprocs ~protocol ~net:Tmk_net.Params.atm_aal34

(* A checker whose one hook observes nothing.  Any access hook sends every
   typed access through the checked MMU path, so a run carrying this
   checker is the reference the fast path must match. *)
let with_no_op_hook cfg =
  let hook =
    {
      Tmk_check.Hooks.h_access = (fun ~pid:_ _ ~addr:_ ~width:_ -> ());
      h_lock_acquired = (fun ~pid:_ ~lock:_ -> ());
      h_lock_release = (fun ~pid:_ ~lock:_ -> ());
      h_barrier_arrive = (fun ~pid:_ ~id:_ -> ());
      h_barrier_depart = (fun ~pid:_ ~id:_ -> ());
      h_suppress = (fun ~pid:_ _ -> ());
    }
  in
  { cfg with Config.check = Some (Tmk_check.Checker.create ~hooks:[ hook ] ()) }

(* One comparable record per run: the digest plus every piece of
   simulated accounting a fast path could plausibly disturb. *)
type fingerprint = {
  fp_digest : string;
  fp_stats : Stats.t;
  fp_time : int;
  fp_messages : int;
  fp_bytes : int;
}

let fingerprint ~app cfg =
  let m, digest = Harness.run_checked ~app cfg in
  let raw = m.Harness.m_raw in
  {
    fp_digest = digest;
    fp_stats = raw.Api.total_stats;
    fp_time = raw.Api.total_time;
    fp_messages = raw.Api.messages;
    fp_bytes = raw.Api.bytes;
  }

(* Each app's (nprocs, protocol) arms: LRC at 8 and 32 processors, plus
   Quicksort under Tardis (a benchmark workload) and Water under SC-ABD,
   two backends that flip page protections at every synchronization. *)
let arms_of app =
  [ (8, Config.Lrc); (32, Config.Lrc) ]
  @
  match app with
  | Harness.Quicksort -> [ (8, Config.Tardis) ]
  | Harness.Water -> [ (8, Config.Sc_abd) ]
  | _ -> []

(* Every (app, nprocs, protocol, checked?) run, once across domains,
   keyed for the per-app test cases below. *)
let equivalence_runs =
  lazy
    (let arms =
       List.concat_map
         (fun app ->
           List.concat_map
             (fun (nprocs, protocol) ->
               [ (app, nprocs, protocol, false); (app, nprocs, protocol, true) ])
             (arms_of app))
         Harness.all_apps
     in
     let results =
       Harness.parallel_map ~jobs:4
         (fun (app, nprocs, protocol, checked) ->
           let cfg = cfg_of ~app ~nprocs ~protocol in
           fingerprint ~app (if checked then with_no_op_hook cfg else cfg))
         arms
     in
     let tbl = Hashtbl.create 32 in
     List.iter2 (fun arm fp -> Hashtbl.replace tbl arm fp) arms results;
     tbl)

let check_equal ~what fast checked =
  check Alcotest.string (what ^ ": digest") checked.fp_digest fast.fp_digest;
  check Alcotest.bool (what ^ ": digest nonempty") true (fast.fp_digest <> "");
  check Alcotest.bool (what ^ ": stats") true (fast.fp_stats = checked.fp_stats);
  check Alcotest.int (what ^ ": simulated time") checked.fp_time fast.fp_time;
  check Alcotest.int (what ^ ": messages") checked.fp_messages fast.fp_messages;
  check Alcotest.int (what ^ ": bytes") checked.fp_bytes fast.fp_bytes

let fast_path_equivalence app () =
  let runs = Lazy.force equivalence_runs in
  List.iter
    (fun (nprocs, protocol) ->
      let what =
        Printf.sprintf "%s %dp %s" (Harness.app_name app) nprocs
          (Config.protocol_name protocol)
      in
      check_equal ~what
        (Hashtbl.find runs (app, nprocs, protocol, false))
        (Hashtbl.find runs (app, nprocs, protocol, true)))
    (arms_of app)

(* ------------------------------------------------------------------ *)
(* The race detector only observes: its access hook sends the run down
   the checked path, and the run must still match one with no checker —
   same digest, same accounting.  Racey is the positive fixture, so the
   detector must also flag it.                                           *)

let race_detector_equivalence () =
  let app = Harness.Racey in
  let cfg = cfg_of ~app ~nprocs:8 ~protocol:Config.Lrc in
  let race = Tmk_check.Race.create ~nprocs:8 ~pages:cfg.Config.pages () in
  let detected =
    fingerprint ~app { cfg with Config.check = Some (Tmk_check.Checker.create ~race ()) }
  in
  check Alcotest.bool "racy fixture still flagged" true (Tmk_check.Race.report race <> "");
  check_equal ~what:"racey 8p, race detector on" (fingerprint ~app cfg) detected

(* Vm-level hook coverage: installing an access hook must force every
   typed access back onto the observed path — one hook call per load or
   store, with the right kind and width. *)
let hook_sees_every_access () =
  let vm = Vm.create ~pages:2 () in
  let seen = ref [] in
  Vm.set_access_hook vm (fun kind addr width -> seen := (kind, addr, width) :: !seen);
  Vm.write_int vm 0 42;
  ignore (Vm.read_int vm 0);
  Vm.write_f64 vm 4096 7.0;
  ignore (Vm.read_f64 vm 4096);
  check Alcotest.bool "every access observed" true
    (List.rev !seen
    = [ (Vm.Write, 0, 8); (Vm.Read, 0, 8); (Vm.Write, 4096, 8); (Vm.Read, 4096, 8) ])

(* Fast-path semantics: out-of-range and straddling accesses must keep
   raising exactly as the checked path does. *)
let fast_path_still_raises () =
  let vm = Vm.create ~pages:1 () in
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  check Alcotest.bool "negative addr" true (raises (fun () -> Vm.read_int vm (-1)));
  check Alcotest.bool "past the end" true (raises (fun () -> Vm.read_int vm 4096));
  check Alcotest.bool "straddle" true (raises (fun () -> Vm.read_f64 vm 4092));
  Vm.write_int vm 4088 9;
  check Alcotest.int "last word still accessible" 9 (Vm.read_int vm 4088)

(* ------------------------------------------------------------------ *)
(* Pinned simulation.  The cases above compare the fast path with the
   checked path within one build, so they cannot see a change of memory
   layout that has no off switch.  These literals were recorded with the dense
   per-node layout (a flat address space per node and one write-notice
   slot per processor per page), before sparse page frames and writer
   maps replaced it: the repository benchmark's four workloads at seed 0,
   each as a checked run, and Water with a record threshold low enough
   to run the GC sweep.  Water at 32 processors was recorded with the
   quadratic diff replay, before the replay walked writer prefixes, and
   Water at 64 with one wire form built per receiver.                   *)

type pinned = {
  p_digest : string;
  p_time : int;
  p_messages : int;
  p_bytes : int;
  p_hot : int;  (** the largest [Api.proc_msgs] entry *)
  p_stats : string;  (** MD5 of the marshalled summed [Stats.t] *)
}

let md5 v = Digest.to_hex (Digest.string (Marshal.to_string v []))

let pin_of digest (r : Api.run_result) =
  {
    p_digest = digest;
    p_time = r.Api.total_time;
    p_messages = r.Api.messages;
    p_bytes = r.Api.bytes;
    p_hot = Array.fold_left max 0 r.Api.proc_msgs;
    p_stats = md5 r.Api.total_stats;
  }

let benchmark_run ~app ~nprocs ~protocol ~scaled () =
  let cfg =
    {
      (Harness.config ~app ~nprocs ~protocol ~net:Tmk_net.Params.atm_aal34) with
      Config.sharding = scaled;
      barrier_tree = scaled;
    }
  in
  let m, digest = Harness.run_checked ~app cfg in
  pin_of digest m.Harness.m_raw

(* The configuration of [Test_apps.water_with_gc]. *)
let water_gc_run () =
  let module Water = Tmk_apps.Water in
  let p = { Water.default with Water.nmol = 27; steps = 3 } in
  let cfg =
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
    Api.run cfg (fun ctx ->
        match Water.parallel ctx p with Some x -> out := Some x | None -> ())
  in
  let x = Option.get !out in
  pin_of (md5 (x.Water.energy, x.Water.positions)) r

let narrow_tree_gc_run () =
  let cfg =
    {
      (Harness.config ~app:Harness.Jacobi ~nprocs:16 ~protocol:Config.Lrc
         ~net:Tmk_net.Params.atm_aal34)
      with
      Config.barrier_tree = true;
      tree_arity = 3;
      gc_threshold = 40;
    }
  in
  let m, digest = Harness.run_checked ~app:Harness.Jacobi cfg in
  pin_of digest m.Harness.m_raw

(* Water at 8 processors under the hybrid update protocol over a binary
   barrier tree, where piggybacked diffs pass through relays, and Jacobi
   at 32 processors mirroring every diff to a backup peer.  Both were
   recorded while every node kept its own copy of each interval record,
   and a relay listed an interval's pages in the reverse of the order it
   received them. *)
let updates_tree_run () =
  let cfg =
    {
      (Harness.config ~app:Harness.Water ~nprocs:8 ~protocol:Config.Lrc
         ~net:Tmk_net.Params.atm_aal34)
      with
      Config.lrc_updates = true;
      sharding = true;
      barrier_tree = true;
      tree_arity = 2;
    }
  in
  let m, digest = Harness.run_checked ~app:Harness.Water cfg in
  pin_of digest m.Harness.m_raw

let diff_backup_run () =
  let cfg =
    {
      (Harness.config ~app:Harness.Jacobi ~nprocs:32 ~protocol:Config.Lrc
         ~net:Tmk_net.Params.atm_aal34)
      with
      Config.diff_backup = true;
    }
  in
  let m, digest = Harness.run_checked ~app:Harness.Jacobi cfg in
  pin_of digest m.Harness.m_raw

(* Water at 8 processors under a fault plan, so the run takes the
   acknowledged, retransmitting path. *)
let faulty_water_run faults () =
  let cfg =
    {
      (Harness.config ~app:Harness.Water ~nprocs:8 ~protocol:Config.Lrc
         ~net:Tmk_net.Params.atm_aal34)
      with
      Config.faults;
    }
  in
  let m, digest = Harness.run_checked ~app:Harness.Water cfg in
  pin_of digest m.Harness.m_raw

(* ILINK at 16 processors with the hybrid update protocol: the fifth
   app's pins, with [benchmark_run]'s flat ILINK-16 below. *)
let ilink_updates_run () =
  let cfg =
    {
      (Harness.config ~app:Harness.Ilink ~nprocs:16 ~protocol:Config.Lrc
         ~net:Tmk_net.Params.atm_aal34)
      with
      Config.lrc_updates = true;
    }
  in
  let m, digest = Harness.run_checked ~app:Harness.Ilink cfg in
  pin_of digest m.Harness.m_raw

let pinned_runs =
  [
    ( "tsp-8",
      benchmark_run ~app:Harness.Tsp ~nprocs:8 ~protocol:Config.Lrc ~scaled:false,
      {
        p_digest = "3d826e62141c5e93901328c36938ffd5";
        p_time = 6707087712;
        p_messages = 3065;
        p_bytes = 309495;
        p_hot = 895;
        p_stats = "6d4ee2d60ffbf918f48a758eb731c644";
      } );
    ( "water-16",
      benchmark_run ~app:Harness.Water ~nprocs:16 ~protocol:Config.Lrc ~scaled:false,
      {
        p_digest = "c7f75ef5b495806f2415bc74c79a0354";
        p_time = 1867410464;
        p_messages = 12926;
        p_bytes = 4418753;
        p_hot = 1177;
        p_stats = "ae2532486e957988770e09c9125145e1";
      } );
    (* The many-records regime: with GC off, held write notices only
       grow, and a diff fetch here replays hundreds of them. *)
    ( "water-32",
      benchmark_run ~app:Harness.Water ~nprocs:32 ~protocol:Config.Lrc ~scaled:false,
      {
        p_digest = "c7f75ef5b495806f2415bc74c79a0354";
        p_time = 3091474644;
        p_messages = 21027;
        p_bytes = 17481644;
        p_hot = 1409;
        p_stats = "dd384af223afe02160d4bd6f7259617d";
      } );
    (* The many-relays case: the barrier manager's 63 children each get
       every other child's intervals.  Recorded before the manager shared
       one wire form per interval among its releases. *)
    ( "water-64",
      benchmark_run ~app:Harness.Water ~nprocs:64 ~protocol:Config.Lrc ~scaled:false,
      {
        p_digest = "c7f75ef5b495806f2415bc74c79a0354";
        p_time = 10527187064;
        p_messages = 33104;
        p_bytes = 86287254;
        p_hot = 2102;
        p_stats = "69254813c347d8d8c6fcaee9020af119";
      } );
    ( "jacobi-256-sharded",
      benchmark_run ~app:Harness.Jacobi ~nprocs:256 ~protocol:Config.Lrc ~scaled:true,
      {
        p_digest = "bbaeb195790d70dceca49ee7011091ab";
        p_time = 15068444268;
        p_messages = 18922;
        p_bytes = 680946431;
        p_hot = 1474;
        p_stats = "565ead3349929bfa76e80f1696b0ebd4";
      } );
    ( "quicksort-8-tardis",
      benchmark_run ~app:Harness.Quicksort ~nprocs:8 ~protocol:Config.Tardis ~scaled:false,
      {
        p_digest = "a2d0b03ff32450c2bf75a292c27441eb";
        p_time = 33383607640;
        p_messages = 137374;
        p_bytes = 129607169;
        p_hot = 19540;
        p_stats = "932f68b0d7f62041738890b8048ba5f4";
      } );
    (* Quicksort's false sharing under the twin-and-diff protocol, where a
       dirty provider serves its twin as the base copy, and under
       write-invalidate SC, where every miss moves a whole page.  Recorded
       while the app kernels compared through polymorphic [get]/[set]
       closures and every page copy was a fresh buffer. *)
    ( "quicksort-8 lazy",
      benchmark_run ~app:Harness.Quicksort ~nprocs:8 ~protocol:Config.Lrc ~scaled:false,
      {
        p_digest = "a2d0b03ff32450c2bf75a292c27441eb";
        p_time = 14374783696;
        p_messages = 14204;
        p_bytes = 18685061;
        p_hot = 4733;
        p_stats = "98ed83f7f1e38a079bf839cb15b5e849";
      } );
    ( "quicksort-8 sc",
      benchmark_run ~app:Harness.Quicksort ~nprocs:8 ~protocol:Config.Sc ~scaled:false,
      {
        p_digest = "a2d0b03ff32450c2bf75a292c27441eb";
        p_time = 39252288840;
        p_messages = 208101;
        p_bytes = 133673133;
        p_hot = 31822;
        p_stats = "3b2748b368721960a93e752c6696bcb2";
      } );
    ( "water-4 with gc",
      water_gc_run,
      {
        p_digest = "5204a6a9860b5cf871595167e0341241";
        p_time = 231635380;
        p_messages = 1327;
        p_bytes = 140044;
        p_hot = 370;
        p_stats = "90b10657cdbd08858afc5da2ac0e1d81";
      } );
    (* GC over a narrow barrier tree, recorded once the centralized
       barrier became the width-(nprocs-1) tree.  Only the simulated time
       moved, because a GC message now wakes its parent at the handler's
       start: this run took 5467661132 ns before, and `tmk_run --app
       jacobi --nprocs 16 --barrier-tree --tree-arity 3 --gc-threshold 40`
       printed 4.816 s before and 4.809 s after.  Messages, bytes, the
       busiest processor's frames and the stats did not change. *)
    ( "jacobi-16 narrow tree with gc",
      narrow_tree_gc_run,
      {
        p_digest = "bbaeb195790d70dceca49ee7011091ab";
        p_time = 5461109132;
        p_messages = 2684;
        p_bytes = 4425771;
        p_hot = 610;
        p_stats = "682f314eadd7fe13b3889c024beca9a2";
      } );
    (* The reliable path, recorded while one-way messages and mailbox
       values still ran separate retransmission machines: a lossy,
       duplicating, reordering medium (832 retransmissions), and E12's
       crash arm for Water, which survives processor 4 failing at half
       its fault-free run time. *)
    ( "water-8 lossy",
      faulty_water_run
        Tmk_net.Fault_plan.(with_reorder (with_dup (with_loss none 0.05) 0.02) 0.05),
      {
        p_digest = "c7f75ef5b495806f2415bc74c79a0354";
        p_time = 3900392227;
        p_messages = 16482;
        p_bytes = 1867443;
        p_hot = 2474;
        p_stats = "b55f9f679fc6983a82a005ee323eb917";
      } );
    ( "water-8 crash",
      faulty_water_run
        Tmk_net.Fault_plan.(with_crash none ~pid:4 ~at:(Tmk_sim.Vtime.us 1103453)),
      {
        p_digest = "0b683036030c2c2893c76e9f09525396";
        p_time = 2539996960;
        p_messages = 15288;
        p_bytes = 1616144;
        p_hot = 2742;
        p_stats = "8a66dd6f6b7018c7cdba69ae8eb5d398";
      } );
    ( "water-8 updates over a binary tree",
      updates_tree_run,
      {
        p_digest = "c7f75ef5b495806f2415bc74c79a0354";
        p_time = 2040893224;
        p_messages = 6516;
        p_bytes = 1535367;
        p_hot = 1043;
        p_stats = "05301b56f678e8ec37d38e301d3f5abc";
      } );
    ( "jacobi-32 diff backup",
      diff_backup_run,
      {
        p_digest = "bbaeb195790d70dceca49ee7011091ab";
        p_time = 5685263288;
        p_messages = 6780;
        p_bytes = 22467389;
        p_hot = 1402;
        p_stats = "287603975e7712f84d19f8cedd7e3636";
      } );
    (* ILINK, the one app the pins above leave out, recorded while every
       access miss walked the page's whole notice history. *)
    ( "ilink-16",
      benchmark_run ~app:Harness.Ilink ~nprocs:16 ~protocol:Config.Lrc ~scaled:false,
      {
        p_digest = "b2da79d9d52430f049bd48cb843c7ddd";
        p_time = 1399103972;
        p_messages = 840;
        p_bytes = 387926;
        p_hot = 420;
        p_stats = "bef42a159a3e54c01028ccccd53849ee";
      } );
    ( "ilink-16 updates",
      ilink_updates_run,
      {
        p_digest = "b2da79d9d52430f049bd48cb843c7ddd";
        p_time = 1352023624;
        p_messages = 510;
        p_bytes = 381000;
        p_hot = 255;
        p_stats = "7e422bd05b2bce62f2d2fd4b7bd6f894";
      } );
    (* The three backends the pins above leave out, recorded while each
       kept its own copy of the fault prologue, the page install and the
       diff bookkeeping.  ERC's run also applies updates queued while a
       base copy was in flight. *)
    ( "water-8 eager",
      benchmark_run ~app:Harness.Water ~nprocs:8 ~protocol:Config.Erc ~scaled:false,
      {
        p_digest = "c7f75ef5b495806f2415bc74c79a0354";
        p_time = 2706883380;
        p_messages = 30615;
        p_bytes = 1985668;
        p_hot = 4605;
        p_stats = "11e40bddd5a9ba42e10684e25b404abf";
      } );
    ( "water-8 sc",
      benchmark_run ~app:Harness.Water ~nprocs:8 ~protocol:Config.Sc ~scaled:false,
      {
        p_digest = "c7f75ef5b495806f2415bc74c79a0354";
        p_time = 18842516840;
        p_messages = 45920;
        p_bytes = 32596186;
        p_hot = 10991;
        p_stats = "055127778e96da912891acc6dcb28249";
      } );
    ( "water-8 sc-abd",
      benchmark_run ~app:Harness.Water ~nprocs:8 ~protocol:Config.Sc_abd ~scaled:false,
      {
        p_digest = "c7f75ef5b495806f2415bc74c79a0354";
        p_time = 16068994496;
        p_messages = 116103;
        p_bytes = 161317426;
        p_hot = 16529;
        p_stats = "0e797a46bfdfaf8104cd313a1479c7a0";
      } );
  ]

let pinned_simulation () =
  let got = Harness.parallel_map ~jobs:2 (fun (_, run, _) -> run ()) pinned_runs in
  List.iter2
    (fun (what, _, want) got ->
      check Alcotest.string (what ^ ": digest") want.p_digest got.p_digest;
      check Alcotest.int (what ^ ": simulated time") want.p_time got.p_time;
      check Alcotest.int (what ^ ": messages") want.p_messages got.p_messages;
      check Alcotest.int (what ^ ": bytes") want.p_bytes got.p_bytes;
      check Alcotest.int (what ^ ": busiest processor's frames") want.p_hot got.p_hot;
      check Alcotest.string (what ^ ": stats") want.p_stats got.p_stats)
    pinned_runs got

(* ------------------------------------------------------------------ *)
(* Host memory.  Words allocated are the minor words, read with
   [Gc.minor_words] (on OCaml 5.1 the minor count of [Gc.counters] omits
   the current minor heap), plus the major words less the promoted ones,
   read with [Gc.counters] ([Gc.quick_stat] reports direct major
   allocations only after a major slice), less what the measurement
   itself allocates.                                                    *)

let allocated f =
  let measure f =
    let minor0 = Gc.minor_words () in
    let _, promoted0, major0 = Gc.counters () in
    ignore (Sys.opaque_identity (f ()));
    let _, promoted1, major1 = Gc.counters () in
    let minor1 = Gc.minor_words () in
    minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)
  in
  measure f -. measure (fun () -> ())

let under what words limit =
  check Alcotest.bool (Printf.sprintf "%s: %.0f words, under %.0f" what words limit) true
    (words < limit)

(* An address space and a node's metadata grow with the pages touched and
   the writers seen, not with [pages * page_size] or [nprocs * pages].
   The node, with a store of its own, is 10 989 words on OCaml 5.1.1;
   16 385 with a private [nprocs]-bit copyset per page. *)
let setup_memory_is_sparse () =
  under "Vm.create ~pages:1024" (allocated (fun () -> Vm.create ~pages:1024 ())) 16_000.;
  under "Node.create ~pid:1 ~nprocs:1024 ~pages:258"
    (allocated (fun () -> Node.create ~pid:1 ~nprocs:1024 ~pages:258 ()))
    12_000.

let typed_accesses_allocate_nothing () =
  let vm = Vm.create ~pages:5 () in
  (* the first store gives pages 0-3 their frames and makes them writable;
     page 4 stays on the zero frame *)
  for page = 0 to 3 do
    Vm.write_int vm (Vm.addr_of_page page) 0
  done;
  let mask = (4 * Vm.page_size) - 1 in
  let pairs () =
    for i = 0 to 9_999 do
      let addr = (i * 8) land mask in
      Vm.write_int vm addr i;
      ignore (Vm.read_int vm addr)
    done
  in
  check (Alcotest.float 0.0) "words allocated by 10 000 read_int/write_int pairs" 0.0
    (allocated pairs);
  check Alcotest.int "last store read back" 9_999 (Vm.read_int vm ((9_999 * 8) land mask));
  (* Loads from a Read_only page and from a never-written page. *)
  Vm.set_prot vm 3 Vm.Read_only;
  let loads page () =
    for i = 0 to 9_999 do
      ignore (Vm.read_int vm (Vm.addr_of_page page + ((i * 8) land (Vm.page_size - 1))))
    done
  in
  check (Alcotest.float 0.0) "words allocated by 10 000 read_int of a Read_only page" 0.0
    (allocated (loads 3));
  check (Alcotest.float 0.0) "words allocated by 10 000 read_int of a never-written page"
    0.0 (allocated (loads 4));
  (* The checked path, which any access hook forces, allocates nothing
     either. *)
  Vm.set_prot vm 3 Vm.Read_write;
  Vm.set_access_hook vm (fun _ _ _ -> ());
  check (Alcotest.float 0.0) "words allocated by 10 000 checked read_int/write_int pairs"
    0.0 (allocated pairs)

(* A diff fetch's replay costs comparisons in the writers and the notices
   replayed, not in held x missing notices.  One page of a 64-processor
   node holds 16 applied one-word diffs from each of 63 writers (writer
   [q]'s interval [i] has entry [q] = [i], zeros elsewhere); then each
   writer's interval 17 arrives and is applied in one call.  Writer 63's
   interval is the oldest, so the other 62 writers' 992 held diffs are
   replayed with the 63 new ones. *)
let replay_allocates_little () =
  let nprocs = 64 and no_charge _ _ = () in
  let node = Node.create ~pid:0 ~nprocs ~pages:1 () in
  let writers = List.init (nprocs - 1) succ in
  let arrive i =
    let one_word q =
      let base = Bytes.make Vm.page_size '\000' in
      let cur = Bytes.copy base in
      Bytes.set_int64_le cur (8 * q) (Int64.of_int i);
      Tmk_util.Rle.encode ~old_:base cur
    in
    let interval q =
      let vt = Vector_time.create nprocs in
      Vector_time.set vt q i;
      { Node.mi_proc = q; mi_id = i; mi_vt = vt; mi_pages = [ (0, None) ] }
    in
    Node.incorporate node (List.map interval writers) ~charge:no_charge;
    List.iter
      (fun q -> Node.store_diff node ~proc:q ~interval_id:i ~page:0 (one_word q))
      writers;
    Node.unapplied_diffs node 0
  in
  for i = 1 to 16 do
    Node.apply_missing_diffs node 0 (arrive i) ~charge:no_charge
  done;
  let fetched = arrive 17 in
  let applied0 = node.Node.stats.Stats.diffs_applied in
  under "one replay over 1 008 held notices"
    (allocated (fun () -> Node.apply_missing_diffs node 0 fetched ~charge:no_charge))
    200_000.;
  check Alcotest.int "diffs applied: 63 fetched, 992 replayed" (63 + 992)
    (node.Node.stats.Stats.diffs_applied - applied0);
  check Alcotest.int "writer 63's newest word" 17 (Vm.read_int node.Node.vm (8 * 63))

(* The advance path allocates only what the effect round trip needs (the
   [Advance] value and the continuation): 8 processes make 10 000
   advances of 8 us each, TSP's charge per search node.  That is 6 words
   on OCaml 5.1 and 7 from 5.2 on, where a continuation also records its
   last fiber; an option around the continuation adds 2.  Creating and
   spawning stay outside the measurement. *)
let advance_allocates_little () =
  let open Tmk_sim in
  let nprocs = 8 and advances = 10_000 in
  let engine = Engine.create ~nprocs in
  for p = 0 to nprocs - 1 do
    Engine.spawn engine p (fun () ->
        for _ = 1 to advances do
          Engine.advance Category.Computation (Vtime.us 8)
        done)
  done;
  let per_advance = allocated (fun () -> Engine.run engine) /. float (nprocs * advances) in
  check Alcotest.bool
    (Printf.sprintf "%.1f words per advance, under 8" per_advance)
    true (per_advance < 8.);
  check Alcotest.int "last process finishes" (Vtime.us (8 * advances))
    (Engine.finish_time engine (nprocs - 1))

(* A scheduled event costs the queue no allocation of its own: the thunk
   goes into a reusable slot and the heap holds only ints, so 8 chains
   that each reschedule a preallocated thunk 12 500 times allocate under
   a word per event (0.001, the queue's arrays growing on first use; an
   event record and its [Thunk] box were 7). *)
let scheduled_event_allocates_only_its_thunk () =
  let open Tmk_sim in
  let chains = 8 and per_chain = 12_500 in
  let engine = Engine.create ~nprocs:1 in
  let fired = ref 0 in
  let chain () =
    let left = ref per_chain in
    let rec tick () =
      incr fired;
      decr left;
      if !left > 0 then
        Engine.schedule engine ~at:(Vtime.add (Engine.now engine) (Vtime.us 1)) tick
    in
    tick
  in
  let ticks = Array.init chains (fun _ -> chain ()) in
  let per_event =
    allocated (fun () ->
        Array.iteri (fun c tick -> Engine.schedule engine ~at:(Vtime.ns c) tick) ticks;
        Engine.run engine)
    /. float (chains * per_chain)
  in
  check Alcotest.bool
    (Printf.sprintf "%.3f words per event, under 1" per_event)
    true (per_event < 1.);
  check Alcotest.int "every event fires" (chains * per_chain) !fired

(* A page copy reuses a buffer: a twin, or a page on its way to another
   processor, is a blit into a buffer from the cluster's pool.  A fresh
   4 KB [Bytes] is 513 words, over the minor heap's 256-word limit, so
   it would be allocated in the major heap directly.  Those words, major
   less promoted ([Gc.counters]), are counted per page copy (page fetches
   plus twins) over a small Quicksort under the four backends that copy
   pages.  A fresh buffer per copy read 548-553 words per copy under
   each; what remains is mostly the nodes' private frames, one per page
   a node touches. *)
let page_copies_reuse_buffers () =
  let module Quicksort = Tmk_apps.Quicksort in
  let p = { Quicksort.default with Quicksort.n = 2048; threshold = 64 } in
  let per_copy protocol =
    let cfg =
      { Config.default with Config.nprocs = 4; pages = Quicksort.pages_needed p; protocol }
    in
    let _, promoted0, major0 = Gc.counters () in
    let r = Api.run cfg (fun ctx -> ignore (Quicksort.parallel ~collect:false ctx p)) in
    let _, promoted1, major1 = Gc.counters () in
    let copies = r.Api.total_stats.Stats.page_fetches + r.Api.total_stats.Stats.twins_created in
    under
      (Printf.sprintf "%s: major-heap words per page copy (%d copies)"
         (Config.protocol_name protocol) copies)
      ((major1 -. major0 -. (promoted1 -. promoted0)) /. float copies)
      128.
  in
  List.iter per_copy [ Config.Lrc; Config.Erc; Config.Sc; Config.Tardis ]

(* A protocol section suspends its process once, and each charge it makes
   is pushed or skipped without allocating: 8 processes run 100 sections
   of 100 charges each (a barrier manager absorbing a few hundred
   interval records charges one per record and one per write notice). *)
let section_allocates_nothing_per_charge () =
  let open Tmk_sim in
  let nprocs = 8 and sections = 100 and charges = 100 in
  let engine = Engine.create ~nprocs in
  let make charge =
    for _ = 1 to charges do
      charge Category.Tmk_consistency (Vtime.us 8)
    done
  in
  for p = 0 to nprocs - 1 do
    Engine.spawn engine p (fun () ->
        for _ = 1 to sections do
          Engine.section engine make
        done)
  done;
  let per_charge =
    allocated (fun () -> Engine.run engine) /. float (nprocs * sections * charges)
  in
  check Alcotest.bool
    (Printf.sprintf "%.3f words per charge, under 0.25" per_charge)
    true (per_charge < 0.25);
  check Alcotest.int "last process finishes" (Vtime.us (8 * sections * charges))
    (Engine.finish_time engine (nprocs - 1))

(* A page whose every float changed, four of them only in sign and
   exponent (x to -2x keeps the 6 low bytes): 5 runs carrying 4 072
   bytes.  Encoding it allocates the runs and the list holding them, not
   a boxed word per 8 bytes compared. *)
let dense_diff_allocates_only_runs () =
  let twin = Bytes.create Vm.page_size and page = Bytes.create Vm.page_size in
  for w = 0 to (Vm.page_size / 8) - 1 do
    let x = float w in
    let y = if w mod 128 = 127 then -2. *. x else -.(x +. (1. /. 3.)) in
    Bytes.set_int64_le twin (8 * w) (Int64.bits_of_float x);
    Bytes.set_int64_le page (8 * w) (Int64.bits_of_float y)
  done;
  let diff = Tmk_util.Rle.encode ~old_:twin page in
  check Alcotest.int "runs" 5 (Tmk_util.Rle.run_count diff);
  check Alcotest.int "payload bytes" 4_072 (Tmk_util.Rle.payload_size diff);
  under "encoding a dense page diff"
    (allocated (fun () -> Tmk_util.Rle.encode ~old_:twin page))
    (float ((4_072 / 8) + 128))

(* A barrier release at 256 processors: processor 0 incorporates one
   one-notice interval from each other processor, on a page of its own,
   then walks the 256 processors' intervals once their wire forms are
   cached.  The writers closed those intervals over the same record store,
   so incorporation allocates no record: it sets the node's two bits per
   notice and its timestamp, and fills the settle table, with no closure,
   option or lookup temporary per interval.  That is about 11 words; a
   record per node made it 39.1.  The walk allocates its result list. *)
let release_allocates_no_temporaries () =
  let nprocs = 256 and no_charge _ _ = () in
  let store = Node.create_store ~nprocs ~pages:nprocs in
  let node = Node.create ~store ~pid:0 ~nprocs ~pages:nprocs () in
  let since = Vector_time.create nprocs in
  let interval q =
    let writer = Node.create ~store ~pid:q ~nprocs ~pages:nprocs () in
    Node.write_fault_twin writer q ~charge:no_charge;
    Node.close_interval writer ~charge:no_charge;
    List.hd (Node.own_intervals_since writer since)
  in
  let intervals = List.init (nprocs - 1) (fun i -> interval (i + 1)) in
  let per_interval =
    allocated (fun () -> Node.incorporate node intervals ~charge:no_charge)
    /. float (nprocs - 1)
  in
  check Alcotest.bool
    (Printf.sprintf "incorporate: %.1f words per interval, under 16" per_interval)
    true (per_interval < 16.);
  check Alcotest.int "intervals incorporated" (nprocs - 1)
    node.Node.stats.Stats.intervals_in;
  check Alcotest.int "wire forms" (nprocs - 1) (List.length (Node.intervals_since node since));
  under "intervals_since over 256 processors with 255 cached forms"
    (allocated (fun () -> Node.intervals_since node since))
    (float ((3 * (nprocs - 1)) + 64))

(* A run's records are held once for the cluster, not once per node:
   after Jacobi at 64 processors, sharded with tree barriers at Harness
   scale, everything reachable from the cluster is under 3.0 M words.
   With a copy of every interval and notice record per node it was
   4.80 M, 2.75 M of them the copies; with one record store it is 2.06 M. *)
let cluster_heap_holds_one_record_per_interval () =
  let cfg =
    {
      (Harness.config ~app:Harness.Jacobi ~nprocs:64 ~protocol:Config.Lrc
         ~net:Tmk_net.Params.atm_aal34)
      with
      Config.sharding = true;
      barrier_tree = true;
    }
  in
  let m, _ = Harness.run_checked ~app:Harness.Jacobi cfg in
  under "words reachable from a Jacobi-64 cluster after its run"
    (float (Obj.reachable_words (Obj.repr m.Harness.m_raw.Api.cluster)))
    3_000_000.

(* Entries share their copysets: after the same Jacobi-64 run, the words
   reachable from every node's copysets, with each node's array of them
   (259 words), are under 32 000.  They were 115 713 with a private
   bitset per (node, page) entry, and are 19 647 shared. *)
let copysets_are_shared_values () =
  let cfg =
    {
      (Harness.config ~app:Harness.Jacobi ~nprocs:64 ~protocol:Config.Lrc
         ~net:Tmk_net.Params.atm_aal34)
      with
      Config.sharding = true;
      barrier_tree = true;
    }
  in
  let m, _ = Harness.run_checked ~app:Harness.Jacobi cfg in
  let cluster = m.Harness.m_raw.Api.cluster in
  let copysets =
    Array.init 64 (fun pid ->
        Array.map (fun e -> e.Node.pg_copyset) (Protocol.node cluster pid).Node.pages)
  in
  under "words reachable from a Jacobi-64 cluster's copysets after its run"
    (float (Obj.reachable_words (Obj.repr copysets)))
    32_000.

(* An access miss costs what is unsettled: after Water at 16 processors at
   Harness scale, on every page of processor 3 where nothing is missing or
   unapplied, [missing_diffs] and [unapplied_diffs] return at the page's
   frontier and allocate nothing.  Walking each page's whole notice
   history, each allocated 742 words over these 7 pages. *)
let settled_walks_allocate_nothing () =
  let cfg =
    Harness.config ~app:Harness.Water ~nprocs:16 ~protocol:Config.Lrc
      ~net:Tmk_net.Params.atm_aal34
  in
  let m, _ = Harness.run_checked ~app:Harness.Water cfg in
  let node = Protocol.node m.Harness.m_raw.Api.cluster 3 in
  let settled =
    List.filter
      (fun page -> Node.missing_diffs node page = [] && Node.unapplied_diffs node page = [])
      (List.init (Array.length node.Node.pages) Fun.id)
    |> Array.of_list
  in
  check Alcotest.int "pages with nothing missing or unapplied" 7 (Array.length settled);
  let walks () =
    for i = 0 to Array.length settled - 1 do
      ignore (Sys.opaque_identity (Node.missing_diffs node settled.(i)));
      ignore (Sys.opaque_identity (Node.unapplied_diffs node settled.(i)))
    done
  in
  check (Alcotest.float 0.0) "words allocated by both walks over those pages" 0.0
    (allocated walks)

(* ------------------------------------------------------------------ *)
(* Domain-parallel sweeps: mapping the arms on 4 domains must be
   indistinguishable from the sequential map.                           *)

let parallel_map_equivalence () =
  let arms =
    List.concat_map
      (fun app -> List.map (fun n -> (app, n)) [ 2; 4 ])
      [ Harness.Tsp; Harness.Jacobi ]
  in
  let run (app, nprocs) = fingerprint ~app (cfg_of ~app ~nprocs ~protocol:Config.Lrc) in
  let sequential = Harness.parallel_map ~jobs:1 run arms in
  let parallel = Harness.parallel_map ~jobs:4 run arms in
  check Alcotest.int "same length" (List.length sequential) (List.length parallel)
  ;
  List.iteri
    (fun i (s, p) -> check_equal ~what:(Printf.sprintf "arm %d" i) p s)
    (List.combine sequential parallel)

(* ------------------------------------------------------------------ *)
(* Determinism of the findings pipeline: a lint-attached run's full
   report (findings table + JSONL) is a pure function of the config, so
   sweeping the arms across 4 domains must reproduce the sequential
   output byte for byte.                                                *)

let lint_report_of (app, nprocs) =
  let cfg = cfg_of ~app ~nprocs ~protocol:Config.Lrc in
  let race = Tmk_check.Race.create ~nprocs ~pages:cfg.Config.pages () in
  let lint = Tmk_lint.Lint.create ~nprocs () in
  let cfg =
    {
      cfg with
      Config.check =
        Some
          (Tmk_check.Checker.create ~race
             ~hooks:[ Tmk_lint.Lint.hooks lint ]
             ~attach:[ Tmk_lint.Lint.attach lint ] ());
    }
  in
  let _ = Harness.run_checked ~app cfg in
  let fs = Tmk_lint.Lint.findings ~race lint in
  Tmk_lint.Lint.report ~race lint ^ "\n" ^ Tmk_lint.Findings.to_jsonl fs

let lint_findings_deterministic_across_jobs () =
  let arms =
    [ (Harness.Water, 4); (Harness.Tsp, 4); (Harness.Racey, 8); (Harness.Racey2, 8) ]
  in
  let sequential = Harness.parallel_map ~jobs:1 lint_report_of arms in
  let parallel = Harness.parallel_map ~jobs:4 lint_report_of arms in
  List.iteri
    (fun i (s, p) ->
      check Alcotest.string (Printf.sprintf "arm %d report byte-identical" i) s p)
    (List.combine sequential parallel);
  (* the racy arms really carry findings — the comparison is not vacuous *)
  check Alcotest.bool "racey arm has findings" true
    (match List.nth sequential 2 with s -> not (String.length s < 40))

let suite =
  let app_case app =
    Alcotest.test_case
      (Printf.sprintf "fast path preserves %s at 8 and 32 procs" (Harness.app_name app))
      `Slow (fast_path_equivalence app)
  in
  List.map app_case Harness.all_apps
  @ [
      Alcotest.test_case "race detector findings unchanged by fast path" `Slow
        race_detector_equivalence;
      Alcotest.test_case "access hook observes every access" `Quick hook_sees_every_access;
      Alcotest.test_case "fast path keeps checked-path errors" `Quick fast_path_still_raises;
      Alcotest.test_case "simulation matches the pinned fingerprints" `Slow pinned_simulation;
      Alcotest.test_case "set-up memory is sparse" `Quick setup_memory_is_sparse;
      Alcotest.test_case "typed accesses allocate nothing" `Quick
        typed_accesses_allocate_nothing;
      Alcotest.test_case "diff replay allocates little" `Quick replay_allocates_little;
      Alcotest.test_case "advance allocates little" `Quick advance_allocates_little;
      Alcotest.test_case "a protocol section allocates nothing per charge" `Quick
        section_allocates_nothing_per_charge;
      Alcotest.test_case "parallel_map jobs:4 equals sequential" `Slow
        parallel_map_equivalence;
      Alcotest.test_case "lint findings byte-identical across jobs" `Slow
        lint_findings_deterministic_across_jobs;
      Alcotest.test_case "a dense page diff allocates only its runs" `Quick
        dense_diff_allocates_only_runs;
      Alcotest.test_case "a release is incorporated and walked without temporaries" `Quick
        release_allocates_no_temporaries;
      Alcotest.test_case "a cluster holds one record per interval" `Quick
        cluster_heap_holds_one_record_per_interval;
      Alcotest.test_case "copysets are shared values" `Quick copysets_are_shared_values;
      Alcotest.test_case "settled pages are walked without allocating" `Quick
        settled_walks_allocate_nothing;
      Alcotest.test_case "a scheduled event allocates only its thunk" `Quick
        scheduled_event_allocates_only_its_thunk;
      Alcotest.test_case "a page copy reuses a buffer" `Quick page_copies_reuse_buffers;
    ]
