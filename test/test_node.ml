(* White-box tests of the consistency bookkeeping in Node: interval
   closing, incorporation and its duplicate suppression, interval deltas,
   lazy diff creation, miss planning inputs, replay ordering, and the GC
   sweep. *)

open Tmk_dsm
module Vm = Tmk_mem.Vm

let check = Alcotest.check
let no_charge _ _ = ()

let make_node ?(pid = 0) ?(nprocs = 4) ?(pages = 4) () = Node.create ~pid ~nprocs ~pages ()

(* simulate a local write: twin the page, then poke the vm *)
let write node page ~offset v =
  (match Vm.prot node.Node.vm page with
  | Vm.Read_write -> ()
  | Vm.Read_only | Vm.No_access ->
    (* tests drive the bookkeeping directly; force writability first *)
    if node.Node.pages.(page).Node.pg_twin = None then
      Node.write_fault_twin node page ~charge:no_charge);
  Vm.write_int node.Node.vm (Vm.addr_of_page page + offset) v

let close_creates_interval () =
  let n = make_node () in
  write n 0 ~offset:0 1;
  write n 1 ~offset:8 2;
  check Alcotest.int "two dirty pages" 2 (List.length n.Node.dirty);
  Node.close_interval n ~charge:no_charge;
  check Alcotest.int "dirty drained" 0 (List.length n.Node.dirty);
  check Alcotest.int "vt advanced" 1 (Vector_time.get n.Node.vt 0);
  (match n.Node.intervals.(0) with
  | [ iv ] ->
    check Alcotest.int "interval id" 1 iv.Node.iv_id;
    check Alcotest.int "two notices" 2 (List.length iv.Node.iv_notices)
  | other -> Alcotest.failf "expected one interval, got %d" (List.length other));
  (* closing again with nothing dirty is a no-op *)
  Node.close_interval n ~charge:no_charge;
  check Alcotest.int "vt unchanged" 1 (Vector_time.get n.Node.vt 0)

let close_eager_diffs () =
  let n = make_node () in
  write n 0 ~offset:0 5;
  Node.close_interval ~eager_diffs:true n ~charge:no_charge;
  check Alcotest.int "diff created eagerly" 1 n.Node.stats.Stats.diffs_created;
  check Alcotest.bool "twin discarded" true (n.Node.pages.(0).Node.pg_twin = None);
  (* lazy default: no diff until demanded *)
  let n2 = make_node () in
  write n2 0 ~offset:0 5;
  Node.close_interval n2 ~charge:no_charge;
  check Alcotest.int "no eager diff" 0 n2.Node.stats.Stats.diffs_created;
  check Alcotest.bool "twin kept" true (n2.Node.pages.(0).Node.pg_twin <> None)

let msg_interval ?(diffs = []) ~proc ~id ~vt ~pages () =
  let v = Vector_time.create (List.length vt) in
  List.iteri (fun q x -> Vector_time.set v q x) vt;
  let diff_for p = List.assoc_opt p diffs in
  { Node.mi_proc = proc; mi_id = id; mi_vt = v; mi_pages = List.map (fun p -> (p, diff_for p)) pages }

let incorporate_invalidates () =
  let n = make_node ~pid:0 () in
  (* node 0 initially holds every page read-only *)
  Node.incorporate n [ msg_interval ~proc:1 ~id:1 ~vt:[ 0; 1; 0; 0 ] ~pages:[ 2 ] () ]
    ~charge:no_charge;
  check Alcotest.bool "page invalidated" true (Vm.prot n.Node.vm 2 = Vm.No_access);
  check Alcotest.int "vt tracks" 1 (Vector_time.get n.Node.vt 1);
  check Alcotest.int "notice recorded" 1 (List.length (Node.notices n ~page:2 ~proc:1))

let incorporate_skips_duplicates () =
  let n = make_node ~pid:0 () in
  let mi = msg_interval ~proc:1 ~id:1 ~vt:[ 0; 1; 0; 0 ] ~pages:[ 2 ] () in
  Node.incorporate n [ mi ] ~charge:no_charge;
  Node.incorporate n [ mi ] ~charge:no_charge;
  check Alcotest.int "one record only" 1 (List.length (Node.notices n ~page:2 ~proc:1));
  check Alcotest.int "one interval only" 1 (List.length n.Node.intervals.(1))

let incorporate_saves_local_twin () =
  let n = make_node ~pid:0 () in
  write n 2 ~offset:16 42;
  Node.close_interval n ~charge:no_charge;
  (* a foreign notice for the twinned page forces our diff first *)
  Node.incorporate n [ msg_interval ~proc:1 ~id:1 ~vt:[ 0; 1; 0; 0 ] ~pages:[ 2 ] () ]
    ~charge:no_charge;
  check Alcotest.int "local diff created" 1 n.Node.stats.Stats.diffs_created;
  check Alcotest.bool "twin gone" true (n.Node.pages.(2).Node.pg_twin = None);
  check Alcotest.bool "invalid" true (Vm.prot n.Node.vm 2 = Vm.No_access);
  (* and the local diff is addressable *)
  let diff = Node.find_diff n ~proc:0 ~interval_id:1 ~page:2 ~charge:no_charge in
  check Alcotest.bool "diff nonempty" false (Tmk_util.Rle.is_empty diff)

let intervals_since_delta () =
  let n = make_node ~pid:0 () in
  (* two own intervals *)
  write n 0 ~offset:0 1;
  Node.close_interval n ~charge:no_charge;
  (* page 0 is still writable (twin alive): re-twin requires a diff first *)
  Node.ensure_own_diff n 0 ~charge:no_charge;
  write n 0 ~offset:8 2;
  Node.close_interval n ~charge:no_charge;
  let zero = Vector_time.create 4 in
  check Alcotest.int "all intervals" 2 (List.length (Node.intervals_since n zero));
  let seen_one = Vector_time.create 4 in
  Vector_time.set seen_one 0 1;
  let delta = Node.intervals_since n seen_one in
  check Alcotest.int "only the newer" 1 (List.length delta);
  check Alcotest.int "its id" 2 (List.hd delta).Node.mi_id;
  (* foreign intervals flow through too *)
  Node.incorporate n [ msg_interval ~proc:2 ~id:1 ~vt:[ 0; 0; 1; 0 ] ~pages:[ 3 ] () ]
    ~charge:no_charge;
  check Alcotest.int "foreign included" 2 (List.length (Node.intervals_since n seen_one))

let own_intervals_only () =
  let n = make_node ~pid:0 () in
  write n 0 ~offset:0 1;
  Node.close_interval n ~charge:no_charge;
  Node.incorporate n [ msg_interval ~proc:2 ~id:1 ~vt:[ 0; 0; 1; 0 ] ~pages:[ 3 ] () ]
    ~charge:no_charge;
  let zero = Vector_time.create 4 in
  check Alcotest.int "own only" 1 (List.length (Node.own_intervals_since n zero));
  check Alcotest.int "own id" 0 (List.hd (Node.own_intervals_since n zero)).Node.mi_proc

let lazy_diff_on_request () =
  let n = make_node ~pid:0 () in
  write n 1 ~offset:24 9;
  Node.close_interval n ~charge:no_charge;
  check Alcotest.int "still lazy" 0 n.Node.stats.Stats.diffs_created;
  (* a diff request for our own newest notice creates it *)
  let diff = Node.find_diff n ~proc:0 ~interval_id:1 ~page:1 ~charge:no_charge in
  check Alcotest.int "created on demand" 1 n.Node.stats.Stats.diffs_created;
  check Alcotest.bool "page reprotected" true (Vm.prot n.Node.vm 1 = Vm.Read_only);
  check Alcotest.bool "has the bytes" false (Tmk_util.Rle.is_empty diff);
  (* unknown notices raise *)
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Node.find_diff n ~proc:3 ~interval_id:9 ~page:1 ~charge:no_charge))

let missing_diffs_prefix () =
  let n = make_node ~pid:0 () in
  Node.incorporate n
    [ msg_interval ~proc:1 ~id:1 ~vt:[ 0; 1; 0; 0 ] ~pages:[ 2 ] ();
      msg_interval ~proc:1 ~id:2 ~vt:[ 0; 2; 0; 0 ] ~pages:[ 2 ] () ]
    ~charge:no_charge;
  (match Node.missing_diffs n 2 with
  | [ (1, wns) ] ->
    check Alcotest.int "both lacking" 2 (List.length wns);
    check Alcotest.int "newest first" 2 (List.hd wns).Node.wn_interval.Node.iv_id
  | _ -> Alcotest.fail "unexpected grouping");
  (* Diffs arrive in complete fetch rounds, oldest first within a round,
     so the lacking notices always form a newest-first prefix.  Store the
     older diff: only the newer remains missing. *)
  Node.store_diff n ~proc:1 ~interval_id:1 ~page:2 (Tmk_util.Rle.of_runs []);
  (match Node.missing_diffs n 2 with
  | [ (1, [ wn ]) ] -> check Alcotest.int "newer still lacking" 2 wn.Node.wn_interval.Node.iv_id
  | _ -> Alcotest.fail "unexpected");
  Node.store_diff n ~proc:1 ~interval_id:2 ~page:2 (Tmk_util.Rle.of_runs []);
  check Alcotest.bool "none lacking" true (Node.missing_diffs n 2 = [])

(* Replay: applying an older foreign diff must re-apply newer held diffs
   over it (the byte-regression bug found by quicksort). *)
let apply_replays_newer_diffs () =
  let n = make_node ~pid:0 ~pages:1 () in
  (* incorporate two ordered foreign intervals touching the same word *)
  Node.incorporate n [ msg_interval ~proc:1 ~id:1 ~vt:[ 0; 1; 0; 0 ] ~pages:[ 0 ] () ]
    ~charge:no_charge;
  Node.incorporate n [ msg_interval ~proc:2 ~id:1 ~vt:[ 0; 1; 1; 0 ] ~pages:[ 0 ] () ]
    ~charge:no_charge;
  let diff_of value =
    let base = Bytes.make Vm.page_size '\000' in
    let cur = Bytes.copy base in
    Bytes.set_int64_le cur 0 (Int64.of_int value);
    Tmk_util.Rle.encode ~old_:base cur
  in
  (* the newer diff (proc 2, causally after proc 1's) is already held and
     applied; then the older one arrives *)
  Node.store_diff n ~proc:2 ~interval_id:1 ~page:0 (diff_of 222);
  let newer =
    match Node.notices n ~page:0 ~proc:2 with [ wn ] -> wn | _ -> assert false
  in
  Node.apply_missing_diffs n 0 [ newer ] ~charge:no_charge;
  check Alcotest.int "newer applied" 222 (Vm.read_int n.Node.vm 0);
  Node.store_diff n ~proc:1 ~interval_id:1 ~page:0 (diff_of 111);
  let older =
    match Node.notices n ~page:0 ~proc:1 with [ wn ] -> wn | _ -> assert false
  in
  Node.apply_missing_diffs n 0 [ older ] ~charge:no_charge;
  (* without replay this would regress to 111 *)
  check Alcotest.int "newer value survives" 222 (Vm.read_int n.Node.vm 0)

let discard_sweeps_everything () =
  let n = make_node ~pid:0 () in
  write n 0 ~offset:0 1;
  Node.close_interval n ~charge:no_charge;
  Node.incorporate n [ msg_interval ~proc:1 ~id:1 ~vt:[ 0; 1; 0; 0 ] ~pages:[ 2 ] () ]
    ~charge:no_charge;
  check Alcotest.bool "records live" true (n.Node.live_records > 0);
  let freed = Node.discard_all_records n ~charge:no_charge in
  check Alcotest.bool "freed" true (freed > 0);
  check Alcotest.int "live zero" 0 n.Node.live_records;
  check Alcotest.bool "twins gone" true
    (Array.for_all (fun e -> e.Node.pg_twin = None) n.Node.pages);
  check Alcotest.bool "intervals gone" true
    (Array.for_all (fun l -> l = []) n.Node.intervals)

(* The writer map keeps only the page's writers, but every walk still
   visits them in increasing pid, whatever order their notices came in. *)
let writers_walk_in_pid_order () =
  let n = make_node ~pid:0 ~nprocs:6 () in
  let diff = Tmk_util.Rle.of_runs [] in
  let vt_of q id = List.init 6 (fun p -> if p = q then id else 0) in
  (* writers 5, 3, 1, 2 and 4 arrive in that order; 3 and 2 piggyback
     their diffs, and 5 has a second, newer notice *)
  let arrival =
    [ (5, 1, false); (3, 1, true); (1, 1, false); (2, 1, true); (4, 1, false); (5, 2, false) ]
  in
  List.iter
    (fun (q, id, with_diff) ->
      Node.incorporate n
        [
          msg_interval
            ~diffs:(if with_diff then [ (1, diff) ] else [])
            ~proc:q ~id ~vt:(vt_of q id) ~pages:[ 1 ] ();
        ]
        ~charge:no_charge)
    arrival;
  let ids wns =
    List.map (fun wn -> (wn.Node.wn_interval.Node.iv_proc, wn.Node.wn_interval.Node.iv_id)) wns
  in
  check Alcotest.(list (pair int (list (pair int int))))
    "missing diffs by increasing writer, each newest first"
    [ (1, [ (1, 1) ]); (4, [ (4, 1) ]); (5, [ (5, 2); (5, 1) ]) ]
    (List.map (fun (q, wns) -> (q, ids wns)) (Node.missing_diffs n 1));
  check Alcotest.(list (pair int int))
    "unapplied diffs by increasing writer" [ (2, 1); (3, 1) ]
    (ids (Node.unapplied_diffs n 1));
  check Alcotest.(list (pair int int)) "one writer's notices" [ (5, 2); (5, 1) ]
    (ids (Node.notices n ~page:1 ~proc:5));
  check Alcotest.(list (pair int int)) "a page nobody wrote" []
    (ids (Node.notices n ~page:2 ~proc:5));
  check Alcotest.bool "held diff" true
    (Node.held_diff n ~proc:3 ~interval_id:1 ~page:1 <> None);
  check Alcotest.bool "notice without its diff" true
    (Node.held_diff n ~proc:4 ~interval_id:1 ~page:1 = None);
  ignore (Node.discard_all_records n ~charge:no_charge);
  check Alcotest.int "no missing diffs after GC" 0 (List.length (Node.missing_diffs n 1));
  check Alcotest.int "no unapplied diffs after GC" 0 (List.length (Node.unapplied_diffs n 1));
  check Alcotest.bool "no notices after GC" true
    (List.for_all (fun q -> Node.notices n ~page:1 ~proc:q = []) [ 0; 1; 2; 3; 4; 5 ]);
  check Alcotest.bool "no held diff after GC" true
    (Node.held_diff n ~proc:3 ~interval_id:1 ~page:1 = None)

let modified_pages_tracks () =
  let n = make_node ~pid:0 () in
  write n 0 ~offset:0 1;
  check Alcotest.(list int) "twinned page" [ 0 ] (Node.modified_pages n);
  Node.close_interval n ~charge:no_charge;
  Node.ensure_own_diff n 0 ~charge:no_charge;
  (* notice remains after the diff *)
  check Alcotest.(list int) "still modified" [ 0 ] (Node.modified_pages n)

let notice_counts_sizes () =
  let mis =
    [ msg_interval ~proc:0 ~id:1 ~vt:[ 1; 0; 0; 0 ] ~pages:[ 1; 2; 3 ] ();
      msg_interval ~proc:1 ~id:1 ~vt:[ 0; 1; 0; 0 ] ~pages:[] () ]
  in
  check Alcotest.(list int) "counts" [ 3; 0 ] (Node.notice_counts mis)

let suite =
  [
    Alcotest.test_case "close creates interval" `Quick close_creates_interval;
    Alcotest.test_case "close eager diffs" `Quick close_eager_diffs;
    Alcotest.test_case "incorporate invalidates" `Quick incorporate_invalidates;
    Alcotest.test_case "incorporate skips duplicates" `Quick incorporate_skips_duplicates;
    Alcotest.test_case "incorporate saves local twin" `Quick incorporate_saves_local_twin;
    Alcotest.test_case "intervals_since delta" `Quick intervals_since_delta;
    Alcotest.test_case "own intervals only" `Quick own_intervals_only;
    Alcotest.test_case "lazy diff on request" `Quick lazy_diff_on_request;
    Alcotest.test_case "missing diffs prefix" `Quick missing_diffs_prefix;
    Alcotest.test_case "apply replays newer diffs" `Quick apply_replays_newer_diffs;
    Alcotest.test_case "discard sweeps everything" `Quick discard_sweeps_everything;
    Alcotest.test_case "writers walk in pid order" `Quick writers_walk_in_pid_order;
    Alcotest.test_case "modified pages tracks" `Quick modified_pages_tracks;
    Alcotest.test_case "notice counts" `Quick notice_counts_sizes;
  ]
