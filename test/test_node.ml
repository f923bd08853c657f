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

(* Without [attach], an interval's wire form is built once and shared by
   every later send.  A relay lists an interval's pages in the reverse of
   the order it received them, as a fresh build does.  With [attach],
   each call builds fresh forms. *)
let wire_forms_are_cached () =
  let writer = make_node ~pid:1 () and relay = make_node ~pid:0 () in
  List.iter (fun page -> write writer page ~offset:0 (page + 1)) [ 0; 1; 2 ];
  Node.close_interval writer ~charge:no_charge;
  let zero = Vector_time.create 4 in
  let sent = Node.intervals_since writer zero in
  Node.incorporate relay sent ~charge:no_charge;
  let pages = List.map (fun mi -> List.map fst mi.Node.mi_pages) in
  let first = Node.intervals_since relay zero in
  let second = Node.intervals_since relay zero in
  check Alcotest.int "one interval relayed" 1 (List.length first);
  check Alcotest.bool "physically equal forms" true (List.for_all2 ( == ) first second);
  check Alcotest.bool "own_intervals_since shares them" true
    (List.for_all2 ( == ) sent (Node.own_intervals_since writer zero));
  let no_diff _ = None in
  let fresh = Node.intervals_since ~attach:no_diff relay zero in
  check Alcotest.(list (list int)) "page order of a fresh build" (pages fresh) (pages first);
  check Alcotest.(list (list int)) "reversed at the relay" [ [ 2; 1; 0 ] ] (pages first);
  check Alcotest.(list (list int)) "as the writer sent them" [ [ 0; 1; 2 ] ] (pages sent);
  check Alcotest.bool "attach builds fresh forms" true
    (List.for_all2 ( != ) fresh first
    && List.for_all2 ( != ) fresh (Node.intervals_since ~attach:no_diff relay zero))

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

(* ------------------------------------------------------------------ *)
(* Replay-set equivalence.  [reference_apply] is the replay the node ran
   before it walked writer prefixes: every held diff is tested against
   every notice in the call, under the order defined by cases over the
   partial order. *)

let vt_of wn = wn.Node.wn_interval.Node.iv_vt

let reference_apply node ~emit page notices =
  let needs_replay wn =
    wn.Node.wn_diff <> None
    && (not (List.memq wn notices))
    && List.exists (fun m -> Test_dsm.reference_compare_total (vt_of m) (vt_of wn) < 0) notices
  in
  let replay =
    List.concat_map
      (fun q -> List.filter needs_replay (Node.notices node ~page ~proc:q))
      (List.init node.Node.nprocs Fun.id)
  in
  let ordered =
    List.sort
      (fun a b -> Test_dsm.reference_compare_total (vt_of a) (vt_of b))
      (List.rev_append notices replay)
  in
  List.iter
    (fun wn ->
      let diff = Option.get wn.Node.wn_diff in
      Vm.patch node.Node.vm page diff;
      wn.Node.wn_applied <- true;
      node.Node.stats.Stats.diffs_applied <- node.Node.stats.Stats.diffs_applied + 1;
      let iv = wn.Node.wn_interval in
      emit
        (Tmk_trace.Event.Diff_apply
           {
             page;
             bytes = Tmk_util.Rle.payload_size diff;
             proc = iv.Node.iv_proc;
             interval = iv.Node.iv_id;
           }))
    ordered;
  Vm.set_prot node.Node.vm page Vm.Read_only

(* A writer's notices come newest first, strictly decreasing in
   [compare_total]; the replay walk stops at the first one not newer than
   the oldest missing notice, so it relies on this order. *)
let check_writer_order what node =
  for page = 0 to Array.length node.Node.pages - 1 do
    for q = 0 to node.Node.nprocs - 1 do
      let rec decreasing = function
        | a :: (b :: _ as rest) ->
          Vector_time.compare_total (vt_of a) (vt_of b) > 0 && decreasing rest
        | _ -> true
      in
      if not (decreasing (Node.notices node ~page ~proc:q)) then
        Alcotest.failf "%s: writer %d's notices for page %d are not decreasing" what q page
    done
  done

(* One random causal history played into two identical nodes, one
   replaying with [Node.apply_missing_diffs], the other with
   [reference_apply].  Writers close intervals whose timestamps dominate
   their earlier ones and sometimes merge another writer's clock first;
   the node receives them in per-writer order, some with piggybacked
   diffs; then it fetches missing diffs (all of a page's, or some) and
   applies them with the pending ones, or applies only the pending
   ones. *)
let replay_matches_reference_seed seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let nprocs = 3 + int 6 and pages = 1 + int 2 in
  let pid = nprocs - 1 and writers = nprocs - 1 in
  let events = Array.make 2 [] in
  let emits =
    Array.init 2 (fun i -> function
      | Tmk_trace.Event.Diff_apply _ as ev -> events.(i) <- ev :: events.(i)
      | _ -> ())
  in
  let nodes = Array.map (fun emit -> Node.create ~emit ~pid ~nprocs ~pages ()) emits in
  let clocks = Array.init writers (fun _ -> Array.make nprocs 0) in
  let diffs = Hashtbl.create 64 in
  let undelivered = Array.make writers [] in
  let new_interval q =
    if int 2 = 0 then begin
      let r = int writers in
      Array.iteri (fun i x -> clocks.(q).(i) <- max clocks.(q).(i) x) clocks.(r)
    end;
    clocks.(q).(q) <- clocks.(q).(q) + 1;
    let id = clocks.(q).(q) in
    let written = List.filter (fun _ -> int 3 > 0) (List.init pages Fun.id) in
    let written = if written = [] then [ int pages ] else written in
    List.iter
      (fun page ->
        let base = Bytes.make Vm.page_size '\000' in
        let cur = Bytes.copy base in
        for _ = 0 to int 3 do
          Bytes.set_int64_le cur (8 * int 8) (Int64.of_int (1 + int 1000))
        done;
        Hashtbl.replace diffs (q, id, page) (Tmk_util.Rle.encode ~old_:base cur))
      written;
    undelivered.(q) <- (id, Array.copy clocks.(q), written) :: undelivered.(q)
  in
  let deliver () =
    let mis =
      List.concat
        (List.init writers (fun q ->
             List.rev_map
               (fun (id, vt, written) ->
                 let piggyback page =
                   if int 3 = 0 then Some (Hashtbl.find diffs (q, id, page)) else None
                 in
                 let v = Vector_time.create nprocs in
                 Array.iteri (Vector_time.set v) vt;
                 {
                   Node.mi_proc = q;
                   mi_id = id;
                   mi_vt = v;
                   mi_pages = List.map (fun page -> (page, piggyback page)) written;
                 })
               undelivered.(q)))
    in
    Array.fill undelivered 0 writers [];
    Array.iter (fun n -> Node.incorporate n mis ~charge:no_charge) nodes
  in
  let key wn = (wn.Node.wn_interval.Node.iv_proc, wn.Node.wn_interval.Node.iv_id) in
  let find n page (q, id) =
    List.find (fun wn -> wn.Node.wn_interval.Node.iv_id = id) (Node.notices n ~page ~proc:q)
  in
  let shuffle l =
    let a = Array.of_list l in
    for i = Array.length a - 1 downto 1 do
      let j = int (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    Array.to_list a
  in
  let calls = ref 0 and replayed = ref 0 in
  let apply page keys =
    incr calls;
    let what = Printf.sprintf "seed %d, call %d" seed !calls in
    Array.fill events 0 2 [];
    let args i = List.map (find nodes.(i) page) keys in
    Node.apply_missing_diffs nodes.(0) page (args 0) ~charge:no_charge;
    reference_apply nodes.(1) ~emit:emits.(1) page (args 1);
    if events.(0) <> events.(1) then Alcotest.failf "%s: different Diff_apply sequences" what;
    replayed := !replayed + List.length events.(0) - List.length keys;
    for p = 0 to pages - 1 do
      if Vm.page_snapshot nodes.(0).Node.vm p <> Vm.page_snapshot nodes.(1).Node.vm p then
        Alcotest.failf "%s: page %d differs" what p
    done;
    let applied n =
      List.concat_map
        (fun q -> List.map (fun wn -> wn.Node.wn_applied) (Node.notices n ~page ~proc:q))
        (List.init nprocs Fun.id)
    in
    if applied nodes.(0) <> applied nodes.(1) then
      Alcotest.failf "%s: applied flags differ" what;
    (* invalidate again, so incorporation never applies diffs in place *)
    Array.iter (fun n -> Vm.set_prot n.Node.vm page Vm.No_access) nodes
  in
  for _ = 1 to 80 do
    match int 10 with
    | 0 | 1 | 2 | 3 -> new_interval (int writers)
    | 4 | 5 -> deliver ()
    | 6 | 7 | 8 ->
      let page = int pages in
      let missing = List.concat_map snd (Node.missing_diffs nodes.(0) page) in
      let fetched = if int 3 = 0 then List.filter (fun _ -> int 2 = 0) missing else missing in
      let fetched = List.map key fetched in
      List.iter
        (fun (q, id) ->
          let diff = Hashtbl.find diffs (q, id, page) in
          Array.iter (fun n -> Node.store_diff n ~proc:q ~interval_id:id ~page diff) nodes)
        fetched;
      let pending =
        List.filter
          (fun k -> not (List.mem k fetched))
          (List.map key (Node.unapplied_diffs nodes.(0) page))
      in
      if fetched <> [] || pending <> [] then
        apply page (shuffle (List.rev_append fetched pending))
    | _ ->
      (* only the piggybacked diffs that arrived while the page was invalid *)
      let page = int pages in
      let pending = List.map key (Node.unapplied_diffs nodes.(0) page) in
      if pending <> [] then apply page (shuffle pending)
  done;
  check_writer_order (Printf.sprintf "seed %d" seed) nodes.(0);
  (!calls, !replayed)

let replay_matches_reference () =
  let calls = ref 0 and replayed = ref 0 in
  for seed = 1 to 300 do
    let c, r = replay_matches_reference_seed seed in
    calls := !calls + c;
    replayed := !replayed + r
  done;
  check Alcotest.bool (Printf.sprintf "%d replay calls compared" !calls) true (!calls > 1000);
  check Alcotest.bool (Printf.sprintf "%d held diffs replayed" !replayed) true
    (!replayed > 1000)

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
    Alcotest.test_case "wire forms are cached" `Quick wire_forms_are_cached;
    Alcotest.test_case "lazy diff on request" `Quick lazy_diff_on_request;
    Alcotest.test_case "missing diffs prefix" `Quick missing_diffs_prefix;
    Alcotest.test_case "apply replays newer diffs" `Quick apply_replays_newer_diffs;
    Alcotest.test_case "discard sweeps everything" `Quick discard_sweeps_everything;
    Alcotest.test_case "writers walk in pid order" `Quick writers_walk_in_pid_order;
    Alcotest.test_case "replay matches the quadratic reference" `Quick
      replay_matches_reference;
    Alcotest.test_case "modified pages tracks" `Quick modified_pages_tracks;
    Alcotest.test_case "notice counts" `Quick notice_counts_sizes;
  ]
