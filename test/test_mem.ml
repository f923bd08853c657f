(* Software-MMU tests: typed accessors, protection faults, page
   snapshot/patch machinery. *)

open Tmk_mem

let check = Alcotest.check
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let accessors_roundtrip () =
  let vm = Vm.create ~pages:4 () in
  Vm.write_u8 vm 0 0xAB;
  check Alcotest.int "u8" 0xAB (Vm.read_u8 vm 0);
  Vm.write_int vm 8 0x1122334455667788;
  check Alcotest.int "int, all eight bytes" 0x1122334455667788 (Vm.read_int vm 8);
  Vm.write_int vm 16 (-123456789);
  check Alcotest.int "int" (-123456789) (Vm.read_int vm 16);
  Vm.write_f64 vm 24 3.14159;
  check (Alcotest.float 0.0) "f64" 3.14159 (Vm.read_f64 vm 24);
  (* Last valid slot of the last page. *)
  let last = Vm.size_bytes vm - 8 in
  Vm.write_f64 vm last 2.5;
  check (Alcotest.float 0.0) "end of space" 2.5 (Vm.read_f64 vm last)

let bounds_checks () =
  let vm = Vm.create ~pages:1 () in
  Alcotest.check_raises "negative" (Invalid_argument "Vm: address -1 out of range")
    (fun () -> ignore (Vm.read_u8 vm (-1)));
  Alcotest.check_raises "past end" (Invalid_argument "Vm: address 4089 out of range")
    (fun () -> ignore (Vm.read_int vm 4089));
  let vm2 = Vm.create ~pages:2 () in
  Alcotest.check_raises "straddle"
    (Invalid_argument "Vm: access at 4092 straddles a page boundary") (fun () ->
      ignore (Vm.read_int vm2 4092))

let read_fault_dispatch () =
  let vm = Vm.create ~pages:2 () in
  Vm.write_int vm 4096 77;
  Vm.set_prot vm 1 Vm.No_access;
  let faults = ref [] in
  Vm.set_fault_handler vm (fun kind page ->
      faults := (kind, page) :: !faults;
      Vm.set_prot vm page Vm.Read_only);
  check Alcotest.int "read retried" 77 (Vm.read_int vm 4096);
  check Alcotest.bool "one read fault" true (!faults = [ (Vm.Read, 1) ]);
  (* Second read: no further fault. *)
  ignore (Vm.read_int vm 4096);
  check Alcotest.int "still one fault" 1 (List.length !faults)

let write_fault_on_read_only () =
  let vm = Vm.create ~pages:1 () in
  Vm.set_prot vm 0 Vm.Read_only;
  let faulted = ref false in
  Vm.set_fault_handler vm (fun kind page ->
      check Alcotest.bool "write kind" true (kind = Vm.Write);
      faulted := true;
      Vm.set_prot vm page Vm.Read_write);
  Vm.write_int vm 0 5;
  check Alcotest.bool "fault ran" true !faulted;
  check Alcotest.int "write landed" 5 (Vm.read_int vm 0)

let fault_loop_detected () =
  let vm = Vm.create ~pages:1 () in
  Vm.set_prot vm 0 Vm.No_access;
  Vm.set_fault_handler vm (fun _ _ -> (* forgets to fix the protection *) ());
  (match Vm.read_u8 vm 0 with
  | _ -> Alcotest.fail "expected Fault_loop"
  | exception Vm.Fault_loop { page = 0; kind = Vm.Read } -> ()
  | exception _ -> Alcotest.fail "wrong exception")

let snapshot_install_roundtrip () =
  let vm = Vm.create ~pages:2 () in
  for i = 0 to 511 do
    Vm.write_int vm (4096 + (i * 8)) (i * i)
  done;
  let snap = Vm.page_snapshot vm 1 in
  let vm2 = Vm.create ~pages:2 () in
  Vm.install_page vm2 1 snap;
  for i = 0 to 511 do
    check Alcotest.int "copied" (i * i) (Vm.read_int vm2 (4096 + (i * 8)))
  done

let install_wrong_size () =
  let vm = Vm.create ~pages:1 () in
  Alcotest.check_raises "wrong size" (Invalid_argument "Vm.install_page: wrong page size")
    (fun () -> Vm.install_page vm 0 (Bytes.create 100))

(* A released copy is the next one handed out, and holds exactly the
   page copied into it. *)
let pool_reuses_released_copies () =
  let vm = Vm.create ~pages:2 () in
  Vm.write_int vm 0 1;
  Vm.write_int vm 4096 2;
  let pool = Vm.create_pool () in
  let a = Vm.snapshot pool vm 0 in
  check Alcotest.int "page 0 copied" 1 (Int64.to_int (Bytes.get_int64_le a 0));
  Vm.release pool a;
  let b = Vm.snapshot pool vm 1 in
  check Alcotest.bool "the released buffer comes back" true (a == b);
  check Alcotest.bool "holding page 1" true (Bytes.equal b (Vm.page_snapshot vm 1));
  let c = Vm.copy pool b in
  check Alcotest.bool "an empty pool gives a fresh buffer" true (c != b && Bytes.equal c b);
  Alcotest.check_raises "wrong size" (Invalid_argument "Vm.release: wrong page size")
    (fun () -> Vm.release pool (Bytes.create 100))

let diff_patch_roundtrip () =
  let vm = Vm.create ~pages:1 () in
  Vm.write_int vm 0 1;
  Vm.write_int vm 1000 2;
  let twin = Vm.page_snapshot vm 0 in
  (* Modify after twinning. *)
  Vm.write_int vm 8 42;
  Vm.write_int vm 2000 43;
  let diff = Vm.diff_against vm 0 ~twin in
  check Alcotest.bool "nonempty" false (Tmk_util.Rle.is_empty diff);
  (* A second VM holding the twin contents catches up via the diff. *)
  let vm2 = Vm.create ~pages:1 () in
  Vm.install_page vm2 0 twin;
  Vm.patch vm2 0 diff;
  check Alcotest.bool "pages equal" true
    (Bytes.equal (Vm.page_snapshot vm 0) (Vm.page_snapshot vm2 0))

let diff_patch_random =
  qtest "random writes diff/patch to equality"
    QCheck.(pair int64 (list_of_size (QCheck.Gen.int_range 0 40) (pair (int_range 0 511) small_int)))
    (fun (seed, writes) ->
      ignore seed;
      let vm = Vm.create ~pages:1 () in
      (* Seed page with a pattern. *)
      for i = 0 to 511 do
        Vm.write_int vm (i * 8) i
      done;
      let twin = Vm.page_snapshot vm 0 in
      List.iter (fun (slot, v) -> Vm.write_int vm (slot * 8) v) writes;
      let diff = Vm.diff_against vm 0 ~twin in
      let vm2 = Vm.create ~pages:1 () in
      Vm.install_page vm2 0 twin;
      Vm.patch vm2 0 diff;
      Bytes.equal (Vm.page_snapshot vm 0) (Vm.page_snapshot vm2 0))

let identical_page_empty_diff () =
  let vm = Vm.create ~pages:1 () in
  Vm.write_int vm 0 9;
  let twin = Vm.page_snapshot vm 0 in
  check Alcotest.bool "empty" true (Tmk_util.Rle.is_empty (Vm.diff_against vm 0 ~twin))

(* Reference model: the per-page frames must behave exactly like one flat
   zero-filled buffer.  A seeded random walk over a 4-page address space
   changes protections, stores and loads through the typed accessors,
   installs and patches pages, and takes snapshots and diffs, checking
   every load, snapshot and diff against a flat [Bytes] model.  The fault
   handler grants what the access needs, as the DSM would, so every access
   lands.  Loads of never-written pages read the shared zero frame, and
   scribbling on a snapshot must not reach the page it was taken from.
   Snapshots come from a pool, and the twin a snapshot replaces goes back
   to it, so later snapshots reuse buffers that held other pages. *)
let flat_model_walk ~fast_path seed =
  let pages = 4 in
  let rng = Random.State.make [| seed |] in
  let vm = Vm.create ~fast_path ~pages () in
  let pool = Vm.create_pool () in
  let model = Bytes.make (pages * Vm.page_size) '\000' in
  Vm.set_fault_handler vm (fun kind page ->
      Vm.set_prot vm page (if kind = Vm.Write then Vm.Read_write else Vm.Read_only));
  let model_page page = Bytes.sub model (Vm.addr_of_page page) Vm.page_size in
  let random_page_bytes () =
    Bytes.init Vm.page_size (fun _ -> Char.chr (Random.State.int rng 4))
  in
  (* earlier snapshots serve as twins; all start as the zero page *)
  let twins = Array.init pages model_page in
  let what step op = Printf.sprintf "seed %d, fast %b, step %d: %s" seed fast_path step op in
  for step = 1 to 3000 do
    let page = Random.State.int rng pages in
    let slot = Random.State.int rng (Vm.page_size / 8) in
    let addr = Vm.addr_of_page page + (slot * 8) in
    match Random.State.int rng 9 with
    | 0 ->
      Vm.set_prot vm page
        (match Random.State.int rng 3 with
        | 0 -> Vm.No_access
        | 1 -> Vm.Read_only
        | _ -> Vm.Read_write)
    | 1 ->
      let v = Random.State.full_int rng max_int - (max_int / 2) in
      Vm.write_int vm addr v;
      Bytes.set_int64_le model addr (Int64.of_int v)
    | 2 ->
      check Alcotest.int (what step "read_int")
        (Int64.to_int (Bytes.get_int64_le model addr))
        (Vm.read_int vm addr)
    | 3 ->
      let addr = addr + Random.State.int rng 8 in
      let v = Random.State.int rng 256 in
      Vm.write_u8 vm addr v;
      Bytes.set_uint8 model addr v;
      check Alcotest.int (what step "read_u8") (Bytes.get_uint8 model addr)
        (Vm.read_u8 vm addr)
    | 4 ->
      let v = Random.State.float rng 1e6 -. 5e5 in
      Vm.write_f64 vm addr v;
      Bytes.set_int64_le model addr (Int64.bits_of_float v);
      check (Alcotest.float 0.0) (what step "read_f64") v (Vm.read_f64 vm addr)
    | 5 ->
      let bytes = random_page_bytes () in
      Vm.install_page vm page bytes;
      Bytes.blit bytes 0 model (Vm.addr_of_page page) Vm.page_size
    | 6 ->
      let diff = Tmk_util.Rle.encode ~old_:(random_page_bytes ()) (random_page_bytes ()) in
      Vm.patch vm page diff;
      List.iter
        (fun { Tmk_util.Rle.offset; bytes } ->
          Bytes.blit bytes 0 model (Vm.addr_of_page page + offset) (Bytes.length bytes))
        (Tmk_util.Rle.runs diff)
    | 7 ->
      let snap = Vm.snapshot pool vm page in
      check Alcotest.bool (what step "snapshot") true (Bytes.equal snap (model_page page));
      Bytes.set snap (Random.State.int rng Vm.page_size) 'x';
      Vm.release pool twins.(page);
      twins.(page) <- snap
    | _ ->
      let twin = twins.(page) in
      check Alcotest.bool (what step "diff_against") true
        (Tmk_util.Rle.runs (Vm.diff_against vm page ~twin)
        = Tmk_util.Rle.runs (Tmk_util.Rle.encode ~old_:twin (model_page page)))
  done;
  for page = 0 to pages - 1 do
    check Alcotest.bool (what 3000 "final contents") true
      (Bytes.equal (Vm.page_snapshot vm page) (model_page page))
  done

let frames_match_flat_model () =
  List.iter
    (fun seed ->
      flat_model_walk ~fast_path:true seed;
      flat_model_walk ~fast_path:false seed)
    [ 1; 2; 3; 4 ]

let costs_sane () =
  check Alcotest.bool "mprotect>0" true (Costs.mprotect > 0);
  check Alcotest.bool "sigsegv>0" true (Costs.sigsegv > 0);
  check Alcotest.bool "twin>0" true (Costs.twin_copy > 0);
  check Alcotest.bool "diff grows" true (Costs.diff_create 4096 > Costs.diff_create 0);
  check Alcotest.bool "apply grows" true (Costs.diff_apply 4096 > Costs.diff_apply 0)

let page_addr_conversions () =
  check Alcotest.int "addr_of_page" 8192 (Vm.addr_of_page 2);
  check Alcotest.int "page_size" 4096 Vm.page_size

let suite =
  [
    Alcotest.test_case "accessors roundtrip" `Quick accessors_roundtrip;
    Alcotest.test_case "bounds checks" `Quick bounds_checks;
    Alcotest.test_case "read fault dispatch" `Quick read_fault_dispatch;
    Alcotest.test_case "write fault on read-only" `Quick write_fault_on_read_only;
    Alcotest.test_case "fault loop detected" `Quick fault_loop_detected;
    Alcotest.test_case "snapshot/install roundtrip" `Quick snapshot_install_roundtrip;
    Alcotest.test_case "install wrong size" `Quick install_wrong_size;
    Alcotest.test_case "pool reuses released copies" `Quick pool_reuses_released_copies;
    Alcotest.test_case "diff/patch roundtrip" `Quick diff_patch_roundtrip;
    diff_patch_random;
    Alcotest.test_case "identical page empty diff" `Quick identical_page_empty_diff;
    Alcotest.test_case "frames match a flat model" `Quick frames_match_flat_model;
    Alcotest.test_case "costs sane" `Quick costs_sane;
    Alcotest.test_case "page addr conversions" `Quick page_addr_conversions;
  ]
