(* Cross-backend equivalence and capability tests.

   The coherence backends differ in everything they are allowed to
   differ in — message counts, timing, protection traffic — and in
   nothing else: a data-race-free program must compute the same answer
   under every backend.  These tests enforce that end-to-end:

   - all five applications at 8 processors digest identically under
     lazy, eager, tardis and sc-abd;
   - Tardis really keeps vector timestamps off the wire: its trace
     stream contains no interval or write-notice records at all, only
     scalar timestamp syncs;
   - SC-ABD really needs no recovery protocol: a crash run completes
     with an empty recovery list and no [Api.Degraded];
   - the race detector reports the same findings on the racy fixture
     whichever backend runs it;
   - [Config.protocol_of_string] round-trips every backend name, and
     [Protocol.create] rejects configurations asking for capabilities
     the selected backend lacks. *)

open Tmk_dsm
module Harness = Tmk_harness.Harness
module Sink = Tmk_trace.Sink
module Event = Tmk_trace.Event

let check = Alcotest.check

let cfg_of ~app ~protocol =
  Harness.config ~app ~nprocs:8 ~protocol ~net:Tmk_net.Params.atm_aal34

(* ------------------------------------------------------------------ *)
(* Digest equivalence: same answer under every backend.                 *)

let backends = [ Config.Lrc; Config.Erc; Config.Tardis; Config.Sc_abd ]

let equivalence_runs =
  lazy
    (let arms =
       List.concat_map
         (fun app -> List.map (fun protocol -> (app, protocol)) backends)
         Harness.all_apps
     in
     let results =
       Harness.parallel_map ~jobs:4
         (fun (app, protocol) -> snd (Harness.run_checked ~app (cfg_of ~app ~protocol)))
         arms
     in
     let tbl = Hashtbl.create 32 in
     List.iter2 (fun arm digest -> Hashtbl.replace tbl arm digest) arms results;
     tbl)

let digest_equivalence app () =
  let runs = Lazy.force equivalence_runs in
  let reference = Hashtbl.find runs (app, Config.Lrc) in
  check Alcotest.bool "reference digest nonempty" true (reference <> "");
  List.iter
    (fun protocol ->
      check Alcotest.string
        (Printf.sprintf "%s under %s" (Harness.app_name app)
           (Config.protocol_name protocol))
        reference
        (Hashtbl.find runs (app, protocol)))
    backends

(* ------------------------------------------------------------------ *)
(* Tardis: no vector timestamps on the wire.                            *)

let tardis_zero_vector_timestamps () =
  let app = Harness.Jacobi in
  let sink = Sink.create () in
  let _ = Harness.run_cfg ~trace:sink ~app (cfg_of ~app ~protocol:Config.Tardis) in
  let intervals = ref 0 and notices = ref 0 and syncs = ref 0 in
  Sink.iter
    (fun r ->
      match r.Sink.r_ev with
      | Event.Interval_close _ | Event.Interval_recv _ -> incr intervals
      | Event.Write_notice_recv _ -> incr notices
      | Event.Ts_sync _ -> incr syncs
      | _ -> ())
    sink;
  check Alcotest.int "no interval records in the stream" 0 !intervals;
  check Alcotest.int "no write notices in the stream" 0 !notices;
  check Alcotest.bool "scalar timestamp syncs instead" true (!syncs > 0)

(* ------------------------------------------------------------------ *)
(* SC-ABD: crash-stop tolerance with zero recovery.                     *)

let sc_abd_crash_zero_recovery () =
  let app = Harness.Jacobi in
  let cfg = cfg_of ~app ~protocol:Config.Sc_abd in
  let cfg =
    {
      cfg with
      Config.faults =
        Tmk_net.Fault_plan.with_crash Tmk_net.Fault_plan.none ~pid:4
          ~at:(Tmk_sim.Vtime.ms 5000);
    }
  in
  (* Quorum intersection absorbs the minority crash: the run must finish
     normally (no Degraded), detect the death, and rebuild nothing. *)
  let sink = Sink.create () in
  let m = Harness.run_cfg ~trace:sink ~app cfg in
  let raw = m.Harness.m_raw in
  (match raw.Api.stopped with
  | Some reason -> Alcotest.failf "run stopped: %s" reason
  | None -> ());
  check
    Alcotest.(list (pair int int))
    "death of processor 4 detected, membership epoch bumped" [ (4, 1) ]
    (Test_crash.failovers sink);
  check Alcotest.int "zero recoveries" 0 (List.length raw.Api.recoveries)

(* ------------------------------------------------------------------ *)
(* Race detector: identical findings under every backend.               *)

let racey_findings ~protocol =
  let app = Harness.Racey in
  let cfg = cfg_of ~app ~protocol in
  let race = Tmk_check.Race.create ~nprocs:8 ~pages:cfg.Config.pages () in
  let cfg = { cfg with Config.check = Some (Tmk_check.Checker.create ~race ()) } in
  let _ = Harness.run_cfg ~app cfg in
  (* Compare the distinct racing extents: how many times a race is
     re-observed is interleaving-dependent, which words race is not. *)
  List.sort_uniq compare
    (List.map
       (fun f -> (f.Tmk_check.Race.f_page, f.Tmk_check.Race.f_lo, f.Tmk_check.Race.f_hi))
       (Tmk_check.Race.findings race))

let race_findings_equivalence () =
  let reference = racey_findings ~protocol:Config.Lrc in
  check Alcotest.bool "racy fixture flagged" true (reference <> []);
  List.iter
    (fun protocol ->
      check
        Alcotest.(list (triple int int int))
        (Printf.sprintf "findings under %s" (Config.protocol_name protocol))
        reference
        (racey_findings ~protocol))
    backends

(* ------------------------------------------------------------------ *)
(* Name round-trip and capability validation.                           *)

(* Every backend: a new one makes this match inexhaustive, which fails
   the build until it is listed. *)
let all_protocols =
  let _listed = function Config.Lrc | Erc | Sc | Tardis | Sc_abd -> () in
  Config.[ Lrc; Erc; Sc; Tardis; Sc_abd ]

let protocol_names_roundtrip () =
  List.iter
    (fun p ->
      check Alcotest.bool
        (Printf.sprintf "%s round-trips" (Config.protocol_name p))
        true
        (Config.protocol_of_string (Config.protocol_name p) = p))
    all_protocols;
  (* the historic aliases stay accepted *)
  check Alcotest.bool "lrc alias" true (Config.protocol_of_string "lrc" = Config.Lrc);
  check Alcotest.bool "abd alias" true (Config.protocol_of_string "abd" = Config.Sc_abd);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  match Config.protocol_of_string "mesi" with
  | _ -> Alcotest.fail "unknown protocol accepted"
  | exception Invalid_argument msg ->
    (* the error must enumerate every valid name *)
    List.iter
      (fun p ->
        let name = Config.protocol_name p in
        check Alcotest.bool
          (Printf.sprintf "error lists %s" name)
          true (contains msg name))
      all_protocols

let caps_reject_invalid_configs () =
  let crash_cfg protocol =
    {
      Config.default with
      Config.nprocs = 4;
      pages = 4;
      protocol;
      faults =
        Tmk_net.Fault_plan.with_crash Tmk_net.Fault_plan.none ~pid:2
          ~at:(Tmk_sim.Vtime.ms 10);
    }
  in
  let rejects what f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects "crash schedule under eager" (fun () -> Protocol.create (crash_cfg Config.Erc));
  rejects "crash schedule under tardis" (fun () ->
      Protocol.create (crash_cfg Config.Tardis));
  rejects "diff_backup under sc-abd" (fun () ->
      Protocol.create
        {
          Config.default with
          Config.nprocs = 4;
          pages = 4;
          protocol = Config.Sc_abd;
          diff_backup = true;
        });
  (* and the capable backends still accept the same requests *)
  ignore (Protocol.create (crash_cfg Config.Lrc));
  ignore (Protocol.create (crash_cfg Config.Sc_abd))

let suite =
  List.map
    (fun app ->
      Alcotest.test_case
        (Printf.sprintf "%s digests identically under every backend"
           (Harness.app_name app))
        `Slow (digest_equivalence app))
    Harness.all_apps
  @ [
      Alcotest.test_case "tardis keeps vector timestamps off the wire" `Slow
        tardis_zero_vector_timestamps;
      Alcotest.test_case "sc-abd rides out a crash with zero recoveries" `Slow
        sc_abd_crash_zero_recovery;
      Alcotest.test_case "race findings identical under every backend" `Slow
        race_findings_equivalence;
      Alcotest.test_case "protocol names round-trip" `Quick protocol_names_roundtrip;
      Alcotest.test_case "capability checks reject invalid configs" `Quick
        caps_reject_invalid_configs;
    ]
