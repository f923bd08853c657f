(* Transport tests: timing against the cost model, medium arbitration,
   statistics, and the user-level reliability protocol under loss. *)

open Tmk_sim
open Tmk_net

let check = Alcotest.check

let make_cluster ?plan ?(nprocs = 2) ?(params = Params.atm_aal34) ?(seed = 1L) () =
  let engine = Engine.create ~nprocs in
  let prng = Tmk_util.Prng.create seed in
  let transport = Transport.create ?plan ~engine ~params ~prng () in
  (engine, transport)

(* Request/response, as the DSM protocol builds it from the one-way
   primitives: [serve] runs in a handler on [dst] and returns
   [(reply_bytes, reply)], which travels back into a mailbox on [src].
   [call] returns at once, so several requests can be outstanding (the
   access-miss protocol fetches diffs "in parallel", §3.5); [rpc] blocks
   for the reply. *)
let call ?label tr ~src ~dst ~bytes ~serve =
  let mb = Transport.mailbox () in
  let reply_label = Option.map (fun l -> l ^ "-reply") label in
  Transport.send ?label tr ~src ~dst ~bytes ~deliver:(fun h ->
      let reply_bytes, reply = serve h in
      Transport.hsend_value ?label:reply_label tr h ~dst:src ~bytes:reply_bytes mb reply);
  mb

let rpc ?label tr ~src ~dst ~bytes ~serve =
  Transport.await_value tr (call ?label tr ~src ~dst ~bytes ~serve)

(* Analytic expectation for a zero-payload RPC where the server charges no
   time of its own: request takes the SIGIO-handler path, the reply wakes
   the blocked caller.  On an idle medium a frame occupies the wire for
   its padded size at the medium's rate, then propagates. *)
let expected_rpc_roundtrip p =
  let wire payload =
    Vtime.add p.Params.wire_latency
      (Vtime.ns (Params.frame_bytes p payload * p.Params.wire_ns_per_byte))
  in
  Params.send_cost p 0 + wire 0
  + Params.deliver_handler_cpu p ~fresh:true
  + Params.recv_cost p 0
  + Params.send_cost p 0 + wire 0
  + Params.deliver_blocked_cpu p
  + Params.recv_cost p 0

let rpc_roundtrip_timing () =
  let engine, tr = make_cluster () in
  let p = Params.atm_aal34 in
  Engine.spawn engine 1 (fun () -> ());
  Engine.spawn engine 0 (fun () ->
      let v = rpc tr ~src:0 ~dst:1 ~bytes:0 ~serve:(fun _h -> (0, 42)) in
      check Alcotest.int "reply" 42 v);
  Engine.run engine;
  check Alcotest.int "roundtrip" (expected_rpc_roundtrip p) (Engine.finish_time engine 0);
  (* The paper's two bounds: 500us blocking both ends, 670us handlers both
     ends; our request-handler/blocked-reply path must sit between. *)
  let rt = Engine.finish_time engine 0 in
  check Alcotest.bool "within paper bounds" true (rt > Vtime.us 500 && rt < Vtime.us 700)

let rpc_counts_messages () =
  let engine, tr = make_cluster () in
  Engine.spawn engine 1 (fun () -> ());
  Engine.spawn engine 0 (fun () ->
      ignore (rpc tr ~src:0 ~dst:1 ~bytes:100 ~serve:(fun _ -> (200, ()))));
  Engine.run engine;
  check Alcotest.int "two messages" 2 (Transport.messages_sent tr);
  check Alcotest.int "one to each" 1 (Transport.messages_handled_of tr 0);
  check Alcotest.int "one to each" 1 (Transport.messages_handled_of tr 1);
  let p = Params.atm_aal34 in
  let expect = Params.frame_bytes p 100 + Params.frame_bytes p 200 in
  check Alcotest.int "frame bytes" expect (Transport.bytes_sent tr)

let min_frame_padding () =
  let p = Params.atm_aal34 in
  check Alcotest.int "padded" p.Params.min_frame_bytes (Params.frame_bytes p 1);
  check Alcotest.int "not padded" (5000 + p.Params.header_bytes) (Params.frame_bytes p 5000)

(* On the shared Ethernet two simultaneous frames serialise; on the ATM
   switch distinct sources transmit in parallel. *)
let medium_arbitration () =
  let arrivals params =
    let engine, tr = make_cluster ~nprocs:3 ~params () in
    let got = ref [] in
    for src = 0 to 1 do
      Engine.spawn engine src (fun () ->
          Transport.send tr ~src ~dst:2 ~bytes:1000 ~deliver:(fun h ->
              got := (src, Engine.hnow h) :: !got))
    done;
    Engine.spawn engine 2 (fun () -> ());
    Engine.run engine;
    List.sort compare !got
  in
  (match arrivals Params.ethernet_udp with
  | [ (0, t0); (1, t1) ] ->
    let occupancy =
      Params.frame_bytes Params.ethernet_udp 1000 * Params.ethernet_udp.Params.wire_ns_per_byte
    in
    (* The second frame waits for the full occupancy of the first, then the
       receiver's handler additionally serialises processing. *)
    check Alcotest.bool "ethernet serialises" true (t1 - t0 >= occupancy)
  | other -> Alcotest.failf "unexpected arrivals: %d" (List.length other));
  match arrivals Params.atm_aal34 with
  | [ (0, t0); (1, t1) ] ->
    (* Both frames arrive together; only handler processing separates the
       two deliveries. *)
    let handler_gap =
      Params.deliver_handler_cpu Params.atm_aal34 ~fresh:true
      + Params.recv_cost Params.atm_aal34 1000
    in
    check Alcotest.bool "atm parallel" true (t1 - t0 <= handler_gap + Vtime.us 1)
  | other -> Alcotest.failf "unexpected arrivals: %d" (List.length other)

let page_transfer_slower_on_ethernet () =
  let time params =
    let engine, tr = make_cluster ~params () in
    Engine.spawn engine 1 (fun () -> ());
    Engine.spawn engine 0 (fun () ->
        ignore (rpc tr ~src:0 ~dst:1 ~bytes:16 ~serve:(fun _ -> (4096, ()))));
    Engine.run engine;
    Engine.finish_time engine 0
  in
  let atm = time Params.atm_aal34 and eth = time Params.ethernet_udp in
  check Alcotest.bool "ethernet slower" true (eth > atm);
  (* 4 KB at 10 Mbps is ~3.3 ms of wire alone. *)
  check Alcotest.bool "ethernet page >3ms" true (eth > Vtime.ms 3)

let send_value_and_await () =
  let engine, tr = make_cluster () in
  let mb = Transport.mailbox () in
  Engine.spawn engine 0 (fun () ->
      Transport.send_value tr ~src:0 ~dst:1 ~bytes:64 mb "hello");
  Engine.spawn engine 1 (fun () ->
      let v = Transport.await_value tr mb in
      check Alcotest.string "value" "hello" v);
  Engine.run engine;
  check Alcotest.int "one message" 1 (Transport.messages_sent tr)

let parallel_calls () =
  (* Requests in flight concurrently (the §3.5 parallel diff fetch): total
     time must be far less than two sequential RPCs. *)
  let engine, tr = make_cluster ~nprocs:3 () in
  Engine.spawn engine 1 (fun () -> ());
  Engine.spawn engine 2 (fun () -> ());
  Engine.spawn engine 0 (fun () ->
      let p1 = call tr ~src:0 ~dst:1 ~bytes:16 ~serve:(fun _ -> (500, 1)) in
      let p2 = call tr ~src:0 ~dst:2 ~bytes:16 ~serve:(fun _ -> (500, 2)) in
      let v1 = Transport.await_value tr p1 in
      let v2 = Transport.await_value tr p2 in
      check Alcotest.int "v1" 1 v1;
      check Alcotest.int "v2" 2 v2);
  Engine.run engine;
  let sequential = 2 * expected_rpc_roundtrip Params.atm_aal34 in
  check Alcotest.bool "overlapped" true (Engine.finish_time engine 0 < sequential)

let handler_chained_send () =
  (* A handler can forward to a third party (the lock-forwarding path). *)
  let engine, tr = make_cluster ~nprocs:3 () in
  let mb = Transport.mailbox () in
  Engine.spawn engine 1 (fun () -> ());
  Engine.spawn engine 2 (fun () -> ());
  Engine.spawn engine 0 (fun () ->
      Transport.send tr ~src:0 ~dst:1 ~bytes:32 ~deliver:(fun h ->
          Transport.hsend tr h ~dst:2 ~bytes:32 ~deliver:(fun h2 ->
              Transport.hsend_value tr h2 ~dst:0 ~bytes:32 mb "granted"));
      let v = Transport.await_value tr mb in
      check Alcotest.string "granted" "granted" v);
  Engine.run engine;
  check Alcotest.int "three messages" 3 (Transport.messages_sent tr)

let lossy = Fault_plan.with_loss Fault_plan.none 0.4

let lossy_rpc_retransmits () =
  let engine, tr = make_cluster ~plan:lossy ~seed:7L () in
  let served = ref 0 in
  Engine.spawn engine 1 (fun () -> ());
  Engine.spawn engine 0 (fun () ->
      for i = 1 to 20 do
        let v =
          rpc tr ~src:0 ~dst:1 ~bytes:64 ~serve:(fun _ ->
              incr served;
              (64, i))
        in
        check Alcotest.int "reply" i v
      done);
  Engine.run engine;
  (* All 20 calls completed; the delivery callback ran exactly once per
     call despite duplicates; some frames were lost so retransmissions
     happened. *)
  check Alcotest.int "served exactly once each" 20 !served;
  check Alcotest.bool "retransmissions occurred" true (Transport.retransmissions tr > 0)

let lossy_oneway_delivers_once () =
  let engine, tr = make_cluster ~plan:lossy ~seed:11L () in
  let delivered = ref 0 in
  let mb = Transport.mailbox () in
  Engine.spawn engine 1 (fun () -> ());
  Engine.spawn engine 0 (fun () ->
      Transport.send tr ~src:0 ~dst:1 ~bytes:32 ~deliver:(fun h ->
          incr delivered;
          Transport.hsend_value tr h ~dst:0 ~bytes:8 mb ());
      Transport.await_value tr mb);
  Engine.run engine;
  check Alcotest.int "delivered once" 1 !delivered

let lossless_runs_have_no_acks () =
  let engine, tr = make_cluster () in
  Engine.spawn engine 1 (fun () -> ());
  Engine.spawn engine 0 (fun () ->
      Transport.send tr ~src:0 ~dst:1 ~bytes:32 ~deliver:(fun _ -> ()));
  Engine.run engine;
  check Alcotest.int "single frame" 1 (Transport.messages_sent tr);
  check Alcotest.int "no retransmissions" 0 (Transport.retransmissions tr)

let message_mix_labels () =
  let engine, tr = make_cluster ~nprocs:2 () in
  Engine.spawn engine 1 (fun () -> ());
  Engine.spawn engine 0 (fun () ->
      ignore (rpc ~label:"probe" tr ~src:0 ~dst:1 ~bytes:10 ~serve:(fun _ -> (20, ())));
      Transport.send tr ~src:0 ~dst:1 ~bytes:5 ~deliver:(fun _ -> ()));
  Engine.run engine;
  let mix = Transport.message_mix tr in
  let find l = List.find_opt (fun e -> e.Transport.mix_label = l) mix in
  (match find "probe" with
  | Some { Transport.mix_msgs = 1; _ } -> ()
  | _ -> Alcotest.fail "probe counted once");
  (match find "probe-reply" with
  | Some { Transport.mix_msgs = 1; _ } -> ()
  | _ -> Alcotest.fail "reply counted");
  (match find "other" with
  | Some { Transport.mix_msgs = 1; _ } -> ()
  | _ -> Alcotest.fail "unlabelled counted as other");
  check Alcotest.int "total matches" (Transport.messages_sent tr)
    (List.fold_left (fun acc e -> acc + e.Transport.mix_msgs) 0 mix)

let params_validation () =
  check Alcotest.string "name" "ATM-AAL3/4" (Params.name Params.atm_aal34);
  check Alcotest.string "name" "Ethernet-UDP" (Params.name Params.ethernet_udp)

let udp_costlier_than_aal34 () =
  let a = Params.atm_aal34 and u = Params.atm_udp in
  check Alcotest.bool "send" true (Params.send_cost u 0 > Params.send_cost a 0);
  check Alcotest.bool "recv" true (Params.recv_cost u 0 > Params.recv_cost a 0);
  check Alcotest.bool "same wire" true (u.Params.wire_ns_per_byte = a.Params.wire_ns_per_byte)

let suite =
  [
    Alcotest.test_case "rpc roundtrip timing" `Quick rpc_roundtrip_timing;
    Alcotest.test_case "rpc counts messages" `Quick rpc_counts_messages;
    Alcotest.test_case "min frame padding" `Quick min_frame_padding;
    Alcotest.test_case "medium arbitration" `Quick medium_arbitration;
    Alcotest.test_case "page transfer ethernet" `Quick page_transfer_slower_on_ethernet;
    Alcotest.test_case "send_value/await_value" `Quick send_value_and_await;
    Alcotest.test_case "parallel calls overlap" `Quick parallel_calls;
    Alcotest.test_case "handler chained send" `Quick handler_chained_send;
    Alcotest.test_case "lossy rpc retransmits" `Quick lossy_rpc_retransmits;
    Alcotest.test_case "lossy oneway delivers once" `Quick lossy_oneway_delivers_once;
    Alcotest.test_case "lossless has no acks" `Quick lossless_runs_have_no_acks;
    Alcotest.test_case "message mix labels" `Quick message_mix_labels;
    Alcotest.test_case "params validation" `Quick params_validation;
    Alcotest.test_case "udp costlier than aal34" `Quick udp_costlier_than_aal34;
  ]
