(* Protocol fuzzer: randomized SPMD programs whose outcome is known by
   construction, executed under every protocol.

   Each scenario runs some rounds; in every round each processor writes a
   randomly assigned set of shared slots (scattered across pages, so
   concurrent writers collide on pages but never on words — the
   multiple-writer case) and applies lock-protected increments to shared
   counters (the ordered read-modify-write case); rounds are separated by
   barriers.  Afterwards every slot must hold its last-assigned value on
   every processor and every counter the sum of all increments.  This
   exercises twins, diff creation and merging, invalidations, cold misses,
   diff-fetch planning, lock forwarding and barrier deltas under schedules
   no hand-written test would find. *)

open Tmk_dsm

type scenario = {
  sc_nprocs : int;
  sc_pages : int;
  sc_rounds : int;
  sc_slots : int array;  (* slot index -> 8-aligned byte address *)
  sc_writes : (int * int * int) list array;  (* per round: (slot, writer, value) *)
  sc_incs : int array array;  (* incs.(round).(pid): increment for the counter *)
  sc_protocol : Config.protocol;
  sc_updates : bool;  (* hybrid update protocol (LRC only) *)
  sc_seed : int64;
}

let protocol_gen =
  QCheck.Gen.oneofl [ Config.Lrc; Config.Erc; Config.Sc ]

let scenario_gen =
  let open QCheck.Gen in
  int_range 2 4 >>= fun nprocs ->
  int_range 2 4 >>= fun pages ->
  int_range 1 4 >>= fun rounds ->
  int_range 4 24 >>= fun nslots ->
  (* distinct 8-aligned addresses, none on the counter page (the last) *)
  let space_words = (pages - 1) * 512 in
  let rec pick_addrs chosen n st =
    if n = 0 then chosen
    else
      let w = int_range 0 (space_words - 1) st in
      if List.mem w chosen then pick_addrs chosen n st
      else pick_addrs (w :: chosen) (n - 1) st
  in
  (fun st -> pick_addrs [] nslots st) >>= fun words ->
  let slots = Array.of_list (List.map (fun w -> w * 8) words) in
  let nslots = Array.length slots in
  (* per round: each slot gets one random writer and value *)
  let round_writes st =
    List.init nslots (fun s -> (s, int_range 0 (nprocs - 1) st, int_range 0 10_000 st))
  in
  (fun st -> Array.init rounds (fun _ -> round_writes st)) >>= fun writes ->
  (fun st -> Array.init rounds (fun _ -> Array.init nprocs (fun _ -> int_range 0 100 st)))
  >>= fun incs ->
  protocol_gen >>= fun protocol ->
  bool >>= fun updates ->
  map
    (fun seed ->
      {
        sc_nprocs = nprocs;
        sc_pages = pages;
        sc_rounds = rounds;
        sc_slots = slots;
        sc_writes = writes;
        sc_incs = incs;
        sc_protocol = protocol;
        sc_updates = (updates && protocol = Config.Lrc);
        sc_seed = Int64.of_int (abs seed);
      })
    int

let print_scenario s =
  Printf.sprintf "{procs=%d pages=%d rounds=%d slots=%d protocol=%s%s seed=%Ld}" s.sc_nprocs
    s.sc_pages s.sc_rounds (Array.length s.sc_slots)
    (Config.protocol_name s.sc_protocol)
    (if s.sc_updates then "+updates" else "")
    s.sc_seed

(* Expected final state. *)
let expectation s =
  let final = Array.make (Array.length s.sc_slots) 0 in
  Array.iter (List.iter (fun (slot, _, v) -> final.(slot) <- v)) s.sc_writes;
  let counter_total = Array.fold_left (fun acc per -> acc + Array.fold_left ( + ) 0 per) 0 s.sc_incs in
  (final, counter_total)

let run_scenario s =
  let expected_slots, expected_counter = expectation s in
  (* Scenarios are data-race-free by construction (single writer per slot
     per round, counter under lock 1) and lock-disciplined, so on every
     fuzzed schedule the detector must stay silent, the protocol
     invariants must hold, and the sanitizer suite must raise no
     error-severity finding. *)
  let race = Tmk_check.Race.create ~nprocs:s.sc_nprocs ~pages:s.sc_pages () in
  let oracle = Tmk_check.Oracle.create ~nprocs:s.sc_nprocs () in
  let lint = Tmk_lint.Lint.create ~nprocs:s.sc_nprocs () in
  let cfg =
    {
      Config.default with
      Config.nprocs = s.sc_nprocs;
      pages = s.sc_pages;
      protocol = s.sc_protocol;
      lrc_updates = s.sc_updates;
      seed = s.sc_seed;
      check =
        Some
          (Tmk_check.Checker.create ~race ~oracle
             ~hooks:[ Tmk_lint.Lint.hooks lint ]
             ~attach:[ Tmk_lint.Lint.attach lint ] ());
    }
  in
  let ok = ref true in
  let note fmt = Printf.ksprintf (fun msg -> ok := false; print_endline msg) fmt in
  let _ =
    Api.run cfg (fun ctx ->
        let pid = Api.pid ctx in
        (* slots live in the low pages; the counter gets the last page *)
        let counter_addr = (s.sc_pages - 1) * Tmk_mem.Vm.page_size in
        if pid = 0 then begin
          Array.iter (fun addr -> Api.write_int ctx addr 0) s.sc_slots;
          Api.write_int ctx counter_addr 0
        end;
        Api.barrier ctx 0;
        for round = 0 to s.sc_rounds - 1 do
          List.iter
            (fun (slot, writer, value) ->
              if writer = pid then Api.write_int ctx s.sc_slots.(slot) value)
            s.sc_writes.(round);
          let inc = s.sc_incs.(round).(pid) in
          if inc > 0 then
            Api.with_lock ctx 1 (fun () ->
                Api.write_int ctx counter_addr (Api.read_int ctx counter_addr + inc));
          Api.barrier ctx (round + 1)
        done;
        (* every processor verifies the whole final state *)
        Array.iteri
          (fun slot addr ->
            let got = Api.read_int ctx addr in
            if got <> expected_slots.(slot) then
              note "pid %d slot %d (addr %d): got %d want %d [%s]" pid slot addr got
                expected_slots.(slot) (print_scenario s))
          s.sc_slots;
        let got = Api.with_lock ctx 1 (fun () -> Api.read_int ctx counter_addr) in
        if got <> expected_counter then
          note "pid %d counter: got %d want %d [%s]" pid got expected_counter
            (print_scenario s))
  in
  if Tmk_check.Race.has_findings race then
    note "race detector fired on a race-free program [%s]\n%s" (print_scenario s)
      (Tmk_check.Race.report race);
  (match Tmk_check.Oracle.finish oracle with
  | [] -> ()
  | v :: _ -> note "invariant violated [%s]: %s" (print_scenario s) v);
  let lint_findings = Tmk_lint.Lint.findings ~race lint in
  if Tmk_lint.Findings.has_errors lint_findings then
    note "sanitizer suite fired on a race-free program [%s]\n%s" (print_scenario s)
      (Tmk_lint.Findings.table lint_findings);
  !ok

let random_programs ~name =
  QCheck.Test.make ~count:60 ~name
    (QCheck.make ~print:print_scenario scenario_gen)
    run_scenario

let fuzz_protocols =
  QCheck_alcotest.to_alcotest (random_programs ~name:"random programs match their expectation")

(* The draw of QCHECK_SEED=80, pinned.  It holds a lazy+updates scenario
   whose granter released a lock and then, while the grant's charges
   were being replayed, ran a handler that raised its knowledge; the
   Lock_grant event came after that, so the invariant oracle saw the
   granter know one interval more than the grant carried (I3). *)
let fuzz_seed_80 =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 80 |])
    (random_programs ~name:"seed 80: grant events precede the granter's handlers")

(* The same scenarios again under a lossy medium: the reliability layer
   must keep them exact. *)
let fuzz_lossy =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:15 ~name:"random programs survive 10% frame loss"
       (QCheck.make ~print:print_scenario scenario_gen)
       (fun s ->
         (* every protocol, including SC: all messages go through the
            transport's reliable one-way primitives *)
         let s = { s with sc_seed = Int64.add s.sc_seed 1L } in
         let expected_slots, expected_counter = expectation s in
         let race = Tmk_check.Race.create ~nprocs:s.sc_nprocs ~pages:s.sc_pages () in
         let oracle = Tmk_check.Oracle.create ~nprocs:s.sc_nprocs () in
         let cfg =
           {
             Config.default with
             Config.nprocs = s.sc_nprocs;
             pages = s.sc_pages;
             protocol = s.sc_protocol;
             lrc_updates = s.sc_updates;
             seed = s.sc_seed;
             faults = Tmk_net.Fault_plan.(with_loss none 0.10);
             check = Some (Tmk_check.Checker.create ~race ~oracle ());
           }
         in
         let ok = ref true in
         let _ =
           Api.run cfg (fun ctx ->
               let pid = Api.pid ctx in
               let counter_addr = (s.sc_pages - 1) * Tmk_mem.Vm.page_size in
               if pid = 0 then begin
                 Array.iter (fun addr -> Api.write_int ctx addr 0) s.sc_slots;
                 Api.write_int ctx counter_addr 0
               end;
               Api.barrier ctx 0;
               for round = 0 to s.sc_rounds - 1 do
                 List.iter
                   (fun (slot, writer, value) ->
                     if writer = pid then Api.write_int ctx s.sc_slots.(slot) value)
                   s.sc_writes.(round);
                 let inc = s.sc_incs.(round).(pid) in
                 if inc > 0 then
                   Api.with_lock ctx 1 (fun () ->
                       Api.write_int ctx counter_addr (Api.read_int ctx counter_addr + inc));
                 Api.barrier ctx (round + 1)
               done;
               Array.iteri
                 (fun slot addr ->
                   if Api.read_int ctx addr <> expected_slots.(slot) then ok := false)
                 s.sc_slots;
               if Api.with_lock ctx 1 (fun () -> Api.read_int ctx counter_addr)
                  <> expected_counter
               then ok := false)
         in
         (* Retransmission must not confuse the checkers either. *)
         if Tmk_check.Race.has_findings race then ok := false;
         if Tmk_check.Oracle.finish oracle <> [] then ok := false;
         !ok))

let suite = [ fuzz_protocols; fuzz_lossy; fuzz_seed_80 ]
