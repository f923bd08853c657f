(* White-box tests of the consistency bookkeeping in Node: interval
   closing, incorporation and its duplicate suppression, interval deltas,
   lazy diff creation, miss planning inputs, replay ordering, the GC
   sweep, nodes sharing one record store, and access-miss walks bounded
   by the unsettled-notice frontier. *)

open Tmk_dsm
module Vm = Tmk_mem.Vm

let check = Alcotest.check
let no_charge _ _ = ()

let make_node ?(pid = 0) ?(nprocs = 4) ?(pages = 4) () = Node.create ~pid ~nprocs ~pages ()
let empty_diff = Tmk_util.Rle.encode ~old_:Bytes.empty Bytes.empty

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
  (match Node.own_intervals_since n (Vector_time.create 4) with
  | [ mi ] ->
    check Alcotest.int "interval id" 1 mi.Node.mi_id;
    check Alcotest.int "two notices" 2 (List.length mi.Node.mi_pages)
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

(* Each writer's count of notices for [page] that lack their diff. *)
let lacking n page =
  List.map (fun (q, wns) -> (q, List.length wns)) (Node.missing_diffs n page)

let incorporate_invalidates () =
  let n = make_node ~pid:0 () in
  (* node 0 initially holds every page read-only *)
  Node.incorporate n [ msg_interval ~proc:1 ~id:1 ~vt:[ 0; 1; 0; 0 ] ~pages:[ 2 ] () ]
    ~charge:no_charge;
  check Alcotest.bool "page invalidated" true (Vm.prot n.Node.vm 2 = Vm.No_access);
  check Alcotest.int "vt tracks" 1 (Vector_time.get n.Node.vt 1);
  check Alcotest.(list (pair int int)) "notice recorded" [ (1, 1) ] (lacking n 2)

let incorporate_skips_duplicates () =
  let n = make_node ~pid:0 () in
  let mi = msg_interval ~proc:1 ~id:1 ~vt:[ 0; 1; 0; 0 ] ~pages:[ 2 ] () in
  Node.incorporate n [ mi ] ~charge:no_charge;
  Node.incorporate n [ mi ] ~charge:no_charge;
  check Alcotest.(list (pair int int)) "one record only" [ (1, 1) ] (lacking n 2);
  check Alcotest.int "one interval only" 1
    (List.length (Node.intervals_since n (Vector_time.create 4)))

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
   every later send, from any node over the same store.  Every relay
   lists an interval's pages in its creator's order, as a fresh build
   does.  With [attach], each call builds fresh forms. *)
let wire_forms_are_cached () =
  let store = Node.create_store ~nprocs:4 ~pages:4 in
  let node pid = Node.create ~store ~pid ~nprocs:4 ~pages:4 () in
  let writer = node 1 and relay = node 0 and second_relay = node 2 in
  List.iter (fun page -> write writer page ~offset:0 (page + 1)) [ 0; 1; 2 ];
  Node.close_interval writer ~charge:no_charge;
  let zero = Vector_time.create 4 in
  let sent = Node.intervals_since writer zero in
  Node.incorporate relay sent ~charge:no_charge;
  let pages = List.map (fun mi -> List.map fst mi.Node.mi_pages) in
  let first = Node.intervals_since relay zero in
  let second = Node.intervals_since relay zero in
  Node.incorporate second_relay first ~charge:no_charge;
  check Alcotest.int "one interval relayed" 1 (List.length first);
  check Alcotest.bool "physically equal forms" true (List.for_all2 ( == ) first second);
  check Alcotest.bool "own_intervals_since shares them" true
    (List.for_all2 ( == ) sent (Node.own_intervals_since writer zero));
  check Alcotest.bool "the relay sends the writer's form" true
    (List.for_all2 ( == ) sent first);
  let no_diff _ = None in
  let fresh = Node.intervals_since ~attach:no_diff relay zero in
  check Alcotest.(list (list int)) "page order of a fresh build" (pages fresh) (pages first);
  check
    Alcotest.(list (list int))
    "same page order at every relay"
    [ [ 0; 1; 2 ]; [ 0; 1; 2 ] ]
    (pages first @ pages (Node.intervals_since ~attach:no_diff second_relay zero));
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
  Node.store_diff n ~proc:1 ~interval_id:1 ~page:2 empty_diff;
  (match Node.missing_diffs n 2 with
  | [ (1, [ wn ]) ] -> check Alcotest.int "newer still lacking" 2 wn.Node.wn_interval.Node.iv_id
  | _ -> Alcotest.fail "unexpected");
  Node.store_diff n ~proc:1 ~interval_id:2 ~page:2 empty_diff;
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
  let newer = match Node.unapplied_diffs n 0 with [ wn ] -> wn | _ -> assert false in
  Node.apply_missing_diffs n 0 [ newer ] ~charge:no_charge;
  check Alcotest.int "newer applied" 222 (Vm.read_int n.Node.vm 0);
  Node.store_diff n ~proc:1 ~interval_id:1 ~page:0 (diff_of 111);
  let older = match Node.unapplied_diffs n 0 with [ wn ] -> wn | _ -> assert false in
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
  let freed = Node.discard_all_records n in
  check Alcotest.bool "freed" true (freed > 0);
  check Alcotest.int "live zero" 0 n.Node.live_records;
  check Alcotest.bool "twins gone" true
    (Array.for_all (fun e -> e.Node.pg_twin = None) n.Node.pages);
  check Alcotest.bool "intervals gone" true
    (Node.intervals_since n (Vector_time.create 4) = [])

(* The writer map keeps only the page's writers, but every walk still
   visits them in increasing pid, whatever order their notices came in. *)
let writers_walk_in_pid_order () =
  let n = make_node ~pid:0 ~nprocs:6 () in
  let diff = empty_diff in
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
  check Alcotest.(list (pair int int)) "a page nobody wrote" []
    (List.concat_map (fun (_, wns) -> ids wns) (Node.missing_diffs n 2));
  check Alcotest.bool "held diff" true
    (Node.held_diff n ~proc:3 ~interval_id:1 ~page:1 <> None);
  check Alcotest.bool "notice without its diff" true
    (Node.held_diff n ~proc:4 ~interval_id:1 ~page:1 = None);
  ignore (Node.discard_all_records n);
  check Alcotest.int "no missing diffs after GC" 0 (List.length (Node.missing_diffs n 1));
  check Alcotest.int "no unapplied diffs after GC" 0 (List.length (Node.unapplied_diffs n 1));
  check Alcotest.bool "no intervals after GC" true
    (Node.intervals_since n (Vector_time.create 6) = []);
  check Alcotest.bool "no held diff after GC" true
    (Node.held_diff n ~proc:3 ~interval_id:1 ~page:1 = None)

(* ------------------------------------------------------------------ *)
(* Replay-set equivalence.  The reference is the replay the node ran
   before it walked writer prefixes, kept as a model beside the node: the
   diffs the node holds and has applied, and a shadow copy of each page.
   Every held diff is tested against every notice in the call, under the
   order defined by cases over the partial order. *)

(* A writer's notices come newest first, strictly decreasing in
   [compare_total]; the replay walk stops at the first one not newer than
   the oldest missing notice, so it relies on this order. *)
let check_writer_order what node =
  for page = 0 to Array.length node.Node.pages - 1 do
    let rec decreasing = function
      | a :: (b :: _ as rest) ->
        let a = a.Node.wn_interval and b = b.Node.wn_interval in
        (a.Node.iv_proc <> b.Node.iv_proc
        || Vector_time.compare_total a.Node.iv_vt b.Node.iv_vt > 0)
        && decreasing rest
      | _ -> true
    in
    List.iter
      (fun (q, wns) ->
        if not (decreasing wns) then
          Alcotest.failf "%s: writer %d's notices for page %d are not decreasing" what q page)
      (Node.missing_diffs node page);
    if not (decreasing (Node.unapplied_diffs node page)) then
      Alcotest.failf "%s: held notices for page %d are not decreasing" what page
  done

(* One random causal history played into a node and the model: the node
   replays with [Node.apply_missing_diffs], the model with the reference
   order.  Writers close intervals whose timestamps dominate their earlier
   ones and sometimes merge another writer's clock first; the node
   receives them in per-writer order, some with piggybacked diffs; then it
   fetches missing diffs (all of a page's, or some) and applies them with
   the pending ones, or applies only the pending ones. *)
let replay_matches_reference_seed seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let nprocs = 3 + int 6 and pages = 1 + int 2 in
  let pid = nprocs - 1 and writers = nprocs - 1 in
  let events = ref [] in
  let emit = function
    | Tmk_trace.Event.Diff_apply _ as ev -> events := ev :: !events
    | _ -> ()
  in
  let node = Node.create ~emit ~pid ~nprocs ~pages () in
  let clocks = Array.init writers (fun _ -> Array.make nprocs 0) in
  let diffs = Hashtbl.create 64 and vts = Hashtbl.create 64 in
  let held = Hashtbl.create 64 and applied = Hashtbl.create 64 in
  let shadow = Array.init pages (fun _ -> Bytes.make Vm.page_size '\000') in
  let undelivered = Array.make writers [] in
  let new_interval q =
    if int 2 = 0 then begin
      let r = int writers in
      Array.iteri (fun i x -> clocks.(q).(i) <- max clocks.(q).(i) x) clocks.(r)
    end;
    clocks.(q).(q) <- clocks.(q).(q) + 1;
    let id = clocks.(q).(q) in
    Hashtbl.replace vts (q, id) (Array.copy clocks.(q));
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
    undelivered.(q) <- (id, written) :: undelivered.(q)
  in
  let deliver () =
    let mis =
      List.concat
        (List.init writers (fun q ->
             List.rev_map
               (fun (id, written) ->
                 let piggyback page =
                   if int 3 = 0 then begin
                     Hashtbl.replace held (q, id, page) ();
                     Some (Hashtbl.find diffs (q, id, page))
                   end
                   else None
                 in
                 let v = Vector_time.create nprocs in
                 Array.iteri (Vector_time.set v) (Hashtbl.find vts (q, id));
                 {
                   Node.mi_proc = q;
                   mi_id = id;
                   mi_vt = v;
                   mi_pages = List.map (fun page -> (page, piggyback page)) written;
                 })
               undelivered.(q)))
    in
    Array.fill undelivered 0 writers [];
    Node.incorporate node mis ~charge:no_charge
  in
  let key wn = (wn.Node.wn_interval.Node.iv_proc, wn.Node.wn_interval.Node.iv_id) in
  (* the model's held diffs of [page] the node has not applied *)
  let pending_in_model page =
    Hashtbl.fold
      (fun (q, id, p) () acc ->
        if p = page && not (Hashtbl.mem applied (q, id, p)) then (q, id) :: acc else acc)
      held []
    |> List.sort compare
  in
  let reference_apply page keys =
    let vt (q, id) = Hashtbl.find vts (q, id) in
    let needs_replay (q, id, p) =
      p = page
      && (not (List.mem (q, id) keys))
      && List.exists (fun m -> Test_dsm.reference_compare_total (vt m) (vt (q, id)) < 0) keys
    in
    let replay =
      Hashtbl.fold
        (fun ((q, id, _) as k) () acc -> if needs_replay k then (q, id) :: acc else acc)
        held []
    in
    List.sort
      (fun a b -> Test_dsm.reference_compare_total (vt a) (vt b))
      (List.rev_append keys replay)
    |> List.map (fun (q, id) ->
           let diff = Hashtbl.find diffs (q, id, page) in
           Tmk_util.Rle.apply diff shadow.(page);
           Hashtbl.replace applied (q, id, page) ();
           Tmk_trace.Event.Diff_apply
             { page; bytes = Tmk_util.Rle.payload_size diff; proc = q; interval = id })
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
    events := [];
    let notices =
      let unapplied = Node.unapplied_diffs node page in
      List.map (fun k -> List.find (fun wn -> key wn = k) unapplied) keys
    in
    Node.apply_missing_diffs node page notices ~charge:no_charge;
    let expected = reference_apply page keys in
    if List.rev !events <> expected then
      Alcotest.failf "%s: different Diff_apply sequences" what;
    replayed := !replayed + List.length expected - List.length keys;
    for p = 0 to pages - 1 do
      if Vm.page_snapshot node.Node.vm p <> shadow.(p) then
        Alcotest.failf "%s: page %d differs" what p;
      if List.sort compare (List.map key (Node.unapplied_diffs node p)) <> pending_in_model p
      then Alcotest.failf "%s: applied flags differ on page %d" what p
    done;
    (* invalidate again, so incorporation never applies diffs in place *)
    Vm.set_prot node.Node.vm page Vm.No_access
  in
  for _ = 1 to 80 do
    match int 10 with
    | 0 | 1 | 2 | 3 -> new_interval (int writers)
    | 4 | 5 -> deliver ()
    | 6 | 7 | 8 ->
      let page = int pages in
      let missing = List.concat_map snd (Node.missing_diffs node page) in
      let fetched = if int 3 = 0 then List.filter (fun _ -> int 2 = 0) missing else missing in
      let fetched = List.map key fetched in
      List.iter
        (fun (q, id) ->
          let diff = Hashtbl.find diffs (q, id, page) in
          Node.store_diff node ~proc:q ~interval_id:id ~page diff;
          Hashtbl.replace held (q, id, page) ())
        fetched;
      let pending =
        List.filter
          (fun k -> not (List.mem k fetched))
          (List.map key (Node.unapplied_diffs node page))
      in
      if fetched <> [] || pending <> [] then
        apply page (shuffle (List.rev_append fetched pending))
    | _ ->
      (* only the piggybacked diffs that arrived while the page was invalid *)
      let page = int pages in
      let pending = List.map key (Node.unapplied_diffs node page) in
      if pending <> [] then apply page (shuffle pending)
  done;
  check_writer_order (Printf.sprintf "seed %d" seed) node;
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

(* ------------------------------------------------------------------ *)
(* One record store for the cluster: nodes share the interval and notice
   records, and differ only in their views and their per-notice bits. *)

let shared_nodes ?(nprocs = 4) ?(pages = 4) () =
  let store = Node.create_store ~nprocs ~pages in
  Array.init nprocs (fun pid -> Node.create ~store ~pid ~nprocs ~pages ())

let write_and_close node page =
  write node page ~offset:0 (node.Node.pid + 1);
  Node.close_interval node ~charge:no_charge

let all_but nodes pid f = Array.iter (fun n -> if n.Node.pid <> pid then f n) nodes
let incorporate intervals n = Node.incorporate n intervals ~charge:no_charge
let discard n = ignore (Node.discard_all_records n)

(* Every entry of every node over one store starts from one [{0}]. *)
let fresh_nodes_share_one_copyset () =
  let nodes = shared_nodes ~nprocs:8 ~pages:6 () in
  let first = nodes.(0).Node.pages.(0).Node.pg_copyset in
  check Alcotest.(list int) "processor 0 holds every page" [ 0 ] (Tmk_util.Bitset.to_list first);
  Array.iter
    (fun n ->
      Array.iteri
        (fun page e ->
          check Alcotest.bool
            (Printf.sprintf "node %d page %d shares the set" n.Node.pid page)
            true (e.Node.pg_copyset == first))
        n.Node.pages)
    nodes

let an_interval_is_one_record () =
  let nodes = shared_nodes () in
  write_and_close nodes.(1) 2;
  let zero = Vector_time.create 4 in
  let sent = Node.intervals_since nodes.(1) zero in
  Node.incorporate nodes.(0) sent ~charge:no_charge;
  Node.incorporate nodes.(3) sent ~charge:no_charge;
  let notice n = match Node.missing_diffs n 2 with [ (1, [ wn ]) ] -> wn | _ -> assert false in
  check Alcotest.bool "one notice record" true (notice nodes.(0) == notice nodes.(3));
  check Alcotest.bool "one interval record" true
    ((notice nodes.(0)).Node.wn_interval == (notice nodes.(3)).Node.wn_interval);
  check Alcotest.bool "one wire form" true
    (List.for_all2 ( == ) (Node.intervals_since nodes.(0) zero)
       (Node.intervals_since nodes.(3) zero));
  check Alcotest.bool "no view at a node that has not incorporated it" true
    (Node.intervals_since nodes.(2) zero = [])

(* The diff in the shared notice is not a diff every node holds. *)
(* Every page copy is a buffer from the store's pool, and its consumer
   gives it back: a twin once diffed, a fetched copy once installed, and
   the next copy on any node of the store reuses it.  A twinned page's
   base copy is its twin's bytes, not the live page's. *)
let page_copies_return_to_the_pool () =
  let store = Node.create_store ~nprocs:2 ~pages:2 in
  let a = Node.create ~store ~pid:0 ~nprocs:2 ~pages:2 () in
  let b = Node.create ~store ~pid:1 ~nprocs:2 ~pages:2 () in
  write a 0 ~offset:0 7;
  let twin = Option.get a.Node.pages.(0).Node.pg_twin in
  ignore (Node.flush_page a 0 ~charge:no_charge);
  let copy = Node.page_snapshot a 0 in
  check Alcotest.bool "the diffed twin is the next copy" true (copy == twin);
  Node.validate_page b 0 copy ~charge:no_charge;
  Vm.set_prot b.Node.vm 0 Vm.Read_only;
  check Alcotest.int "installed" 7 (Vm.read_int b.Node.vm 0);
  write a 0 ~offset:0 8;
  check Alcotest.bool "the installed copy is the next twin" true
    (Option.get a.Node.pages.(0).Node.pg_twin == copy);
  let base = Node.base_copy a 0 in
  check Alcotest.int "a twinned page serves its twin" 7 (Int64.to_int (Bytes.get_int64_le base 0));
  check Alcotest.int "while the live page moved on" 8 (Vm.read_int a.Node.vm 0)

let diff_ownership_stays_per_node () =
  let nodes = shared_nodes () in
  write_and_close nodes.(1) 2;
  let sent = Node.intervals_since nodes.(1) (Vector_time.create 4) in
  Node.incorporate nodes.(0) sent ~charge:no_charge;
  Node.incorporate nodes.(3) sent ~charge:no_charge;
  let diff = Node.find_diff nodes.(1) ~proc:1 ~interval_id:1 ~page:2 ~charge:no_charge in
  check Alcotest.(list (pair int int)) "the creator's diff is not the others'" [ (1, 1) ]
    (lacking nodes.(0) 2);
  Node.store_diff nodes.(0) ~proc:1 ~interval_id:1 ~page:2 diff;
  check Alcotest.(list (pair int int)) "stored at node 0" [] (lacking nodes.(0) 2);
  check Alcotest.(list (pair int int)) "still missing at node 3" [ (1, 1) ]
    (lacking nodes.(3) 2);
  check Alcotest.bool "node 0 holds the creator's diff" true
    (match Node.held_diff nodes.(0) ~proc:1 ~interval_id:1 ~page:2 with
    | Some d -> d == diff
    | None -> false);
  check Alcotest.bool "node 3 does not" true
    (Node.held_diff nodes.(3) ~proc:1 ~interval_id:1 ~page:2 = None);
  Alcotest.check_raises "node 3 cannot serve it"
    (Invalid_argument "Node.find_diff: notice (proc 1, interval 1, page 2) has no diff")
    (fun () ->
      ignore (Node.find_diff nodes.(3) ~proc:1 ~interval_id:1 ~page:2 ~charge:no_charge))

(* Weak pointers to the records of processor 1's two intervals, reached
   through node 0's view: the notices and the shared wire forms.  Built in
   a function of its own so no stack slot of the caller keeps them. *)
let weak_records nodes =
  let zero = Vector_time.create (Array.length nodes) in
  let notices = List.concat_map snd (Node.missing_diffs nodes.(0) 2) in
  let forms = Node.intervals_since nodes.(0) zero in
  let records = List.map Obj.repr notices @ List.map Obj.repr forms in
  let weak = Weak.create (List.length records) in
  List.iteri (fun i r -> Weak.set weak i (Some r)) records;
  weak

let collected weak =
  Gc.full_major ();
  List.init (Weak.length weak) (Weak.check weak) |> List.for_all not

(* A GC round leaves no record in the store that every live node has
   discarded; while one live node still keeps an interval, it stays. *)
let gc_frees_what_every_live_node_discarded () =
  let nodes = shared_nodes () in
  write_and_close nodes.(1) 2;
  Node.ensure_own_diff nodes.(1) 2 ~charge:no_charge;
  write_and_close nodes.(1) 2;
  let sent = Node.intervals_since nodes.(1) (Vector_time.create 4) in
  all_but nodes 1 (incorporate sent);
  let weak = weak_records nodes in
  check Alcotest.int "four records watched" 4 (Weak.length weak);
  all_but nodes 2 discard;
  check Alcotest.bool "kept while node 2 keeps them" false (collected weak);
  check Alcotest.int "node 2 still sees both" 2
    (List.length (Node.intervals_since nodes.(2) (Vector_time.create 4)));
  discard nodes.(2);
  check Alcotest.bool "freed once every node discarded them" true (collected weak);
  (* a new interval after the round is held again, by every node *)
  write_and_close nodes.(1) 3;
  check Alcotest.int "the next interval" 3
    (List.hd (Node.own_intervals_since nodes.(1) (Vector_time.create 4))).Node.mi_id

(* A dead node keeps nothing: its view no longer holds records in the
   store once it is retired. *)
let retired_node_keeps_nothing () =
  let nodes = shared_nodes () in
  write_and_close nodes.(1) 2;
  let sent = Node.intervals_since nodes.(1) (Vector_time.create 4) in
  all_but nodes 1 (incorporate sent);
  let weak = weak_records nodes in
  all_but nodes 3 discard;
  check Alcotest.bool "kept for node 3" false (collected weak);
  Node.retire nodes.(3);
  check Alcotest.bool "freed once node 3 is retired" true (collected weak);
  (* the nodes, and so the store, stay reachable through the check *)
  check Alcotest.int "the creator still counts its interval" 1
    (Vector_time.get (Sys.opaque_identity nodes).(1).Node.vt 1)

(* ------------------------------------------------------------------ *)
(* Bounded walks.  [missing_diffs] and [unapplied_diffs] stop each
   writer's walk at the page's unsettled-notice frontier.  The reference
   is the walk they made before the frontier existed: every notice of the
   page in the node's view, writers in increasing pid, each newest first,
   filtered by the node's two bits read from the record.  Every notice of
   the page comes from an observer node over the same store that
   incorporates every interval as it is made and never holds a diff, so
   its [missing_diffs] lists them all; its wire forms check that list. *)

type walk_op =
  | Write of int * int  (* node, page: a write fault, a miss first on an invalid page *)
  | Close of int
  | Transfer of int * int * bool
      (* granter, acquirer, piggybacked diffs: a lock grant, both close *)
  | Absorb of int * int * bool  (* sender, receiver: a barrier arrival, no close *)
  | Settle of int * int  (* node, page: a read miss, the loop of [Lrc.settle] *)
  | Begin_fetch of int * int  (* node, page: a miss's fetch goes out and waits *)
  | End_fetch of int  (* node: its replies arrive and are applied *)
  | Gather of int * int  (* node, page: the newest missing diffs stored, not applied *)
  | Gc
      (* a GC round: the pending fetches end, a barrier brings every node
         up to date, and each validates its pages and discards *)

let show_walk_op = function
  | Write (n, p) -> Printf.sprintf "Write (%d, %d)" n p
  | Close n -> Printf.sprintf "Close %d" n
  | Transfer (g, r, pb) -> Printf.sprintf "Transfer (%d, %d, %b)" g r pb
  | Absorb (s, r, pb) -> Printf.sprintf "Absorb (%d, %d, %b)" s r pb
  | Settle (n, p) -> Printf.sprintf "Settle (%d, %d)" n p
  | Begin_fetch (n, p) -> Printf.sprintf "Begin_fetch (%d, %d)" n p
  | End_fetch n -> Printf.sprintf "End_fetch %d" n
  | Gather (n, p) -> Printf.sprintf "Gather (%d, %d)" n p
  | Gc -> "Gc"

(* [nprocs] nodes over one store, the last of them the observer. *)
let walk_history_gen =
  let open QCheck.Gen in
  int_range 3 6 >>= fun nprocs ->
  int_range 1 3 >>= fun pages ->
  let node = int_bound (nprocs - 2) and page = int_bound (pages - 1) in
  let op =
    frequency
      [
        (3, map2 (fun n p -> Write (n, p)) node page);
        (2, map (fun n -> Close n) node);
        (3, map3 (fun g r pb -> Transfer (g, r, pb)) node node bool);
        (4, map3 (fun s r pb -> Absorb (s, r, pb)) node node bool);
        (2, map2 (fun n p -> Settle (n, p)) node page);
        (4, map2 (fun n p -> Begin_fetch (n, p)) node page);
        (2, map (fun n -> End_fetch n) node);
        (1, map2 (fun n p -> Gather (n, p)) node page);
        (1, return Gc);
      ]
  in
  map (fun ops -> (nprocs, pages, ops)) (list_size (int_range 20 120) op)

let print_walk_history (nprocs, pages, ops) =
  Printf.sprintf "%d nodes (the last observes), %d pages: [%s]" nprocs pages
    (String.concat "; " (List.map show_walk_op ops))

let bit wn i = Char.code (Bytes.get wn.Node.wn_bits (i lsr 3)) land (1 lsl (i land 7)) <> 0
let holds n wn = bit wn (2 * n.Node.pid)
let applied n wn = bit wn ((2 * n.Node.pid) + 1)

(* The full walk over [all], every notice of the page by writer. *)
let full_walk n keep all =
  List.filter_map
    (fun (q, wns) ->
      let in_view wn =
        let id = wn.Node.wn_interval.Node.iv_id in
        id > Vector_time.get n.Node.floor q && id <= Vector_time.get n.Node.vt q
      in
      match List.filter (fun wn -> in_view wn && keep n wn) wns with
      | [] -> None
      | l -> Some (q, l))
    all

let notice_keys wns =
  List.map (fun wn -> (wn.Node.wn_interval.Node.iv_proc, wn.Node.wn_interval.Node.iv_id)) wns

let show_keys keys =
  String.concat " " (List.map (fun (q, id) -> Printf.sprintf "%d.%d" q id) keys)

let bounded_walks_match (nprocs, pages, ops) =
  let store = Node.create_store ~nprocs ~pages in
  let nodes = Array.init nprocs (fun pid -> Node.create ~store ~pid ~nprocs ~pages ()) in
  let observer = nodes.(nprocs - 1) and active = nprocs - 1 in
  let pending = Array.make active None in
  let refresh_observer () =
    for s = 0 to active - 1 do
      Node.incorporate observer
        (Node.own_intervals_since nodes.(s) (Node.snapshot observer))
        ~charge:no_charge
    done
  in
  (* A diff as a responder would serve it: the creator makes it when it
     is still pending. *)
  let diff_of wn =
    (match wn.Node.wn_diff with
    | Some _ -> ()
    | None ->
      Node.ensure_own_diff nodes.(wn.Node.wn_interval.Node.iv_proc) wn.Node.wn_page
        ~charge:no_charge);
    Option.get wn.Node.wn_diff
  in
  let store_all n page wns =
    List.iter
      (fun wn ->
        Node.store_diff n ~proc:wn.Node.wn_interval.Node.iv_proc
          ~interval_id:wn.Node.wn_interval.Node.iv_id ~page (diff_of wn))
      wns
  in
  let fetch n page missing =
    List.iter (fun (_, wns) -> store_all n page wns) missing;
    Node.apply_fetched n page missing ~charge:no_charge
  in
  let attach g piggyback =
    if not piggyback then None
    else
      Some
        (fun wn ->
          if wn.Node.wn_interval.Node.iv_proc = g.Node.pid && Node.diff g wn = None then
            Node.ensure_own_diff g wn.Node.wn_page ~charge:no_charge;
          Node.diff g wn)
  in
  let free n = pending.(n) = None in
  let settle node page =
    let rec loop () =
      match Node.missing_diffs node page with
      | [] ->
        Node.settle_page node page ~charge:no_charge;
        if Vm.prot node.Node.vm page = Vm.No_access then
          Vm.set_prot node.Node.vm page Vm.Read_only
      | missing ->
        fetch node page missing;
        loop ()
    in
    loop ()
  in
  let end_fetch n =
    match pending.(n) with
    | None -> ()
    | Some (page, missing) ->
      pending.(n) <- None;
      fetch nodes.(n) page missing
  in
  let absorb s r attach =
    Node.incorporate nodes.(r)
      (Node.intervals_since ?attach nodes.(s) (Node.snapshot nodes.(r)))
      ~charge:no_charge
  in
  let invalid n page = Vm.prot nodes.(n).Node.vm page = Vm.No_access in
  let run = function
    | Write (n, page) ->
      if free n then begin
        if invalid n page then settle nodes.(n) page;
        write nodes.(n) page ~offset:(8 * n) (n + 1)
      end
    | Close n -> if free n then Node.close_interval nodes.(n) ~charge:no_charge
    | Transfer (g, r, piggyback) ->
      if g <> r && free r then begin
        let request_vt = Node.snapshot nodes.(r) in
        Node.close_interval nodes.(g) ~charge:no_charge;
        let intervals =
          Node.intervals_since ?attach:(attach nodes.(g) piggyback) nodes.(g) request_vt
        in
        Node.close_interval nodes.(r) ~charge:no_charge;
        Node.incorporate nodes.(r) intervals ~charge:no_charge
      end
    | Absorb (s, r, piggyback) -> if s <> r then absorb s r (attach nodes.(s) piggyback)
    | Settle (n, page) -> if free n && invalid n page then settle nodes.(n) page
    | Begin_fetch (n, page) -> (
      if free n && invalid n page then
        match Node.missing_diffs nodes.(n) page with
        | [] -> ()
        | missing -> pending.(n) <- Some (page, missing))
    | End_fetch n -> end_fetch n
    | Gather (n, page) ->
      if free n then
        List.iter
          (fun (_, wns) -> store_all nodes.(n) page [ List.hd wns ])
          (Node.missing_diffs nodes.(n) page)
    | Gc ->
      (* every node's view ends at one timestamp, so none later receives
         an interval newer than one it never saw *)
      for n = 0 to active - 1 do
        end_fetch n;
        Node.close_interval nodes.(n) ~charge:no_charge
      done;
      for s = 1 to active - 1 do
        absorb s 0 None
      done;
      for r = 1 to active - 1 do
        absorb 0 r None
      done;
      Array.iteri
        (fun n node ->
          if n < active then
            List.iter
              (fun page ->
                Node.ensure_own_diff node page ~charge:no_charge;
                settle node page)
              (Node.modified_pages node))
        nodes;
      refresh_observer ();
      for n = 0 to active - 1 do
        ignore (Node.discard_all_records nodes.(n))
      done
  in
  let compare_walks step =
    let zero = Vector_time.create nprocs in
    let forms = Node.intervals_since observer zero in
    for page = 0 to pages - 1 do
      let all = Node.missing_diffs observer page in
      let expected =
        List.init active (fun q ->
            List.filter_map
              (fun mi ->
                if mi.Node.mi_proc = q && List.mem_assoc page mi.Node.mi_pages then
                  Some (q, mi.Node.mi_id)
                else None)
              (List.rev forms))
        |> List.concat
      in
      if notice_keys (List.concat_map snd all) <> expected then
        QCheck.Test.fail_reportf "step %d, page %d: the observer lists [%s], its forms [%s]"
          step page
          (show_keys (notice_keys (List.concat_map snd all)))
          (show_keys expected);
      for n = 0 to active - 1 do
        let node = nodes.(n) in
        let lacks n wn = not (holds n wn) in
        let unapplied n wn = holds n wn && not (applied n wn) in
        let groups l = List.map (fun (q, wns) -> (q, notice_keys wns)) l in
        let want = full_walk node lacks all and got = Node.missing_diffs node page in
        if groups got <> groups want then
          QCheck.Test.fail_reportf "step %d, node %d, page %d: missing [%s], full walk [%s]"
            step n page
            (show_keys (notice_keys (List.concat_map snd got)))
            (show_keys (notice_keys (List.concat_map snd want)));
        let want = List.concat_map snd (full_walk node unapplied all)
        and got = Node.unapplied_diffs node page in
        if notice_keys got <> notice_keys want then
          QCheck.Test.fail_reportf "step %d, node %d, page %d: unapplied [%s], full walk [%s]"
            step n page (show_keys (notice_keys got)) (show_keys (notice_keys want))
      done
    done
  in
  List.iteri
    (fun step op ->
      run op;
      refresh_observer ();
      compare_walks step)
    ops;
  true

let bounded_walks_equal_full_walks =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000 ~name:"bounded notice walks equal full-history walks"
       (QCheck.make ~print:print_walk_history walk_history_gen)
       bounded_walks_match)

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
    Alcotest.test_case "fresh nodes share one copyset" `Quick fresh_nodes_share_one_copyset;
    Alcotest.test_case "an interval is one record for every node" `Quick
      an_interval_is_one_record;
    Alcotest.test_case "diff ownership stays per node" `Quick diff_ownership_stays_per_node;
    Alcotest.test_case "page copies return to the pool" `Quick page_copies_return_to_the_pool;
    Alcotest.test_case "GC frees what every live node discarded" `Quick
      gc_frees_what_every_live_node_discarded;
    Alcotest.test_case "a retired node keeps nothing" `Quick retired_node_keeps_nothing;
    bounded_walks_equal_full_walks;
  ]
