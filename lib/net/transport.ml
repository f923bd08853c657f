open Tmk_sim

(* Sender-side frame counts of one message label: the only home of the
   transport's traffic totals, which are folds over the label table. *)
type counters = {
  mutable msgs : int;
  mutable bytes : int;
  mutable retrans : int;  (* frames that were retransmissions *)
  mutable dups : int;  (* extra copies injected by the medium *)
}

type mix_entry = {
  mix_label : string;
  mix_msgs : int;
  mix_bytes : int;
  mix_retrans : int;
  mix_dups : int;
}

type t = {
  engine : Engine.t;
  params : Params.t;
  plan : Fault_plan.t;
  prng : Tmk_util.Prng.t;
  batching : bool;  (* coalesce multi-part messages into single frames *)
  link_free : Vtime.t array;  (* per-source ATM link, or slot 0 = shared bus *)
  recv : int array;  (* frames delivered at each destination *)
  by_label : (string, counters) Hashtbl.t;  (* message mix by protocol operation *)
  mutable coalesced : int;  (* frames saved by batching: Σ (parts − 1) *)
  mutable on_suspect :
    (src:int -> dst:int -> label:string -> attempts:int -> unit) option;
  mutable next_msg_id : int;
  delivered : (int, unit) Hashtbl.t;
      (* duplicate suppression, reliable mode only; entries are pruned once
         the ack lands and every outstanding copy has been filtered, so the
         table holds only in-flight messages, never the whole run's
         history *)
}

let create ?(plan = Fault_plan.none) ?(batching = true) ~engine ~params ~prng () =
  Fault_plan.validate plan;
  let n = Engine.nprocs engine in
  {
    engine;
    params;
    plan;
    prng;
    batching;
    link_free = Array.make (max n 1) Vtime.zero;
    recv = Array.make (max n 1) 0;
    by_label = Hashtbl.create 16;
    coalesced = 0;
    on_suspect = None;
    next_msg_id = 0;
    delivered = Hashtbl.create 64;
  }

(* Delivery faults engage the ack/retransmit protocol; stall-only plans
   delay service but never lose frames. *)
let reliable t = Fault_plan.is_faulty t.plan

let on_suspect t f = t.on_suspect <- Some f

(* A retry budget ran out: the peer is *suspected*.  This fires from a
   scheduled timer callback, so it must never raise — the simulation
   would be left torn mid-event.  The consumer (the DSM protocol's
   failure detector) is told through the registered callback; without
   one, the run is terminated cleanly at the next event boundary, with
   stats and traces intact. *)
let suspected t ~src ~dst ~label ~attempts =
  if Engine.tracing t.engine then
    Engine.emit t.engine ~pid:src (Tmk_trace.Event.Peer_suspect { dst; label; attempts });
  match t.on_suspect with
  | Some f -> f ~src ~dst ~label ~attempts
  | None ->
    Engine.request_stop t.engine
      (Printf.sprintf "peer %d unreachable (%s from %d, %d attempts)" dst label src
         attempts)

let fresh_id t =
  let id = t.next_msg_id in
  t.next_msg_id <- id + 1;
  id

let label_counters t label =
  match Hashtbl.find_opt t.by_label label with
  | Some lc -> lc
  | None ->
    let lc = { msgs = 0; bytes = 0; retrans = 0; dups = 0 } in
    Hashtbl.add t.by_label label lc;
    lc

(* ------------------------------------------------------------------ *)
(* Medium: arbitration, faults, statistics.                            *)

(* Fragment sizes of an unbatched multi-part message: the payload splits
   evenly across [parts] fragments (remainder to the first ones) and each
   fragment pays the full per-frame header/minimum-size overhead. *)
let split_frames p ~bytes ~parts =
  let base = bytes / parts and rem = bytes mod parts in
  List.init parts (fun i -> Params.frame_bytes p (base + if i < rem then 1 else 0))

(* Hand one message to the medium at [at]; [on_arrival] fires at the
   receiver's network interface (no CPU charged yet) once per copy the
   medium actually delivers — zero times when dropped, twice when
   duplicated.  [on_fate] reports that copy count as soon as the medium
   decides it (retransmission bookkeeping).

   [parts] is the number of logical protocol units riding in the message
   (write notices batches, gathered diff entries...).  A batching
   transport coalesces them into one frame and counts the [parts − 1]
   saved frames; an unbatched transport puts each part on the wire as its
   own frame, back to back.  The fragment burst shares one fate — one
   loss/dup/reorder draw, one delivery at the arrival of the last
   fragment — so both modes consume identical PRNG streams and stay
   individually bit-deterministic. *)
let transmit ?(label = "other") ?(retrans = false) ?(parts = 1)
    ?(on_fate = fun _ -> ()) t ~src ~dst ~bytes ~at ~on_arrival =
  let p = t.params in
  let split = (not t.batching) && parts > 1 in
  let frames =
    if split then split_frames p ~bytes ~parts else [ Params.frame_bytes p bytes ]
  in
  let nframes = List.length frames in
  let total = List.fold_left ( + ) 0 frames in
  let lc = label_counters t label in
  lc.msgs <- lc.msgs + nframes;
  lc.bytes <- lc.bytes + total;
  if t.batching && parts > 1 then t.coalesced <- t.coalesced + (parts - 1);
  Engine.schedule t.engine ~at (fun () ->
      if Engine.tracing t.engine then begin
        List.iter
          (fun frame ->
            Engine.emit t.engine ~pid:src
              (Tmk_trace.Event.Frame_send { src; dst; label; bytes = frame; retrans }))
          frames;
        if t.batching && parts > 1 then
          Engine.emit t.engine ~pid:src
            (Tmk_trace.Event.Frame_batch { src; dst; label; parts })
      end;
      let slot = if p.Params.shared_medium then 0 else src in
      let free_at = t.link_free.(slot) in
      (* A frame finding the medium busy pays the contention penalty
         (deference + collisions + backoff) on top of waiting its turn. *)
      let start =
        if free_at > at then Vtime.add free_at p.Params.busy_access_delay
        else at
      in
      let occupancy = Vtime.ns (total * p.Params.wire_ns_per_byte) in
      t.link_free.(slot) <- Vtime.add start occupancy;
      let loss = t.plan.Fault_plan.loss in
      (* A crashed endpoint is silent from its crash instant on: frames
         already in flight still arrive (their [arrive] events are
         scheduled), but nothing sent at or after the crash touches the
         wire in either direction. *)
      let dropped =
        Engine.crashed t.engine src || Engine.crashed t.engine dst
        || Fault_plan.unreachable_link t.plan ~src ~dst
        || (loss > 0.0 && Tmk_util.Prng.float t.prng 1.0 < loss)
      in
      if dropped then begin
        if Engine.tracing t.engine then
          List.iter
            (fun frame ->
              Engine.emit t.engine ~pid:src
                (Tmk_trace.Event.Frame_drop { src; dst; label; bytes = frame }))
            frames;
        on_fate 0
      end
      else begin
        let copies =
          if
            t.plan.Fault_plan.dup > 0.0
            && Tmk_util.Prng.float t.prng 1.0 < t.plan.Fault_plan.dup
          then 2
          else 1
        in
        (* Reordering: hold the frame back by a bounded random delay so
           later frames on the same link can overtake it. *)
        let held =
          if
            t.plan.Fault_plan.reorder > 0.0
            && Tmk_util.Prng.float t.prng 1.0 < t.plan.Fault_plan.reorder
          then
            Vtime.ns
              (Tmk_util.Prng.int t.prng
                 (Vtime.add t.plan.Fault_plan.reorder_window (Vtime.ns 1)))
          else Vtime.zero
        in
        on_fate copies;
        let arrival =
          Vtime.add (Vtime.add (Vtime.add start occupancy) p.Params.wire_latency) held
        in
        let arrive at =
          Engine.schedule t.engine ~at (fun () ->
              t.recv.(dst) <- t.recv.(dst) + nframes;
              if Engine.tracing t.engine then
                List.iter
                  (fun frame ->
                    Engine.emit t.engine ~pid:dst
                      (Tmk_trace.Event.Frame_recv { src; dst; label; bytes = frame }))
                  frames;
              on_arrival at)
        in
        arrive arrival;
        if copies = 2 then begin
          lc.dups <- lc.dups + nframes;
          if Engine.tracing t.engine then
            Engine.emit t.engine ~pid:src
              (Tmk_trace.Event.Frame_dup { src; dst; label });
          (* The duplicate trails its original back-to-back. *)
          arrive (Vtime.add arrival occupancy)
        end
      end)

(* Post work into [pid]'s handler loop, deferred past any stall window
   covering [at] (the loop is paused: frames arrive, service waits). *)
let post_to t ~pid ~at f =
  Engine.post_handler t.engine ~pid ~at:(Fault_plan.stall_until t.plan ~pid ~at) f

(* Deliver a request frame into [dst]'s SIGIO handler: charge the
   interrupt/dispatch/receive path, then run the payload. *)
let deliver_to_handler t ~dst ~bytes ~arrival ~deliver =
  post_to t ~pid:dst ~at:arrival (fun h ->
      Engine.hcharge h Category.Unix_comm
        (Params.deliver_handler_cpu t.params ~fresh:(Engine.hfresh h));
      Engine.hcharge h Category.Unix_comm (Params.recv_cost t.params bytes);
      deliver h)

(* ------------------------------------------------------------------ *)
(* Reliable delivery.                                                  *)

(* Acks are fire-and-forget minimum-size frames; a lost ack just causes a
   (suppressed) duplicate and a re-ack. *)
let send_ack t h ~dst ~on_ack =
  Engine.hcharge h Category.Unix_comm (Params.send_cost t.params 0);
  transmit ~label:"ack" t ~src:(Engine.hpid h) ~dst ~bytes:0 ~at:(Engine.hnow h)
    ~on_arrival:(fun arrival ->
      post_to t ~pid:dst ~at:arrival (fun ha ->
          Engine.hcharge ha Category.Unix_comm
            (Params.deliver_handler_cpu t.params ~fresh:(Engine.hfresh ha));
          Engine.hcharge ha Category.Unix_comm (Params.recv_cost t.params 0);
          on_ack ()))

(* Per-message retransmission state.  [id] keys the message's entry in
   the duplicate table (a mailbox value has none: the single-use mailbox
   is its filter).  [unfiltered] counts medium copies not yet past the
   receiver's filter: each transmission adds one, the medium's decision
   corrects it (none when dropped, two when duplicated), each
   acknowledged copy takes one off.  The entry can be dropped only when
   the ack has landed AND no copy is unfiltered — pruning earlier would
   let a trailing duplicate deliver a second time. *)
type rel = {
  id : int;
  mutable acked : bool;
  mutable attempts : int;
  mutable unfiltered : int;
  mutable cancel : unit -> unit;
}

(* The user-level reliability protocol (§3.7), under both delivery ends.
   Every transmission arms a timer, doubling from the base timeout to
   the cap; the ack cancels it.  A timer that fires first makes [src]
   charge the resend and transmit again, until the retry budget runs out
   and the peer is suspected.  Acks and resends consume CPU through
   self-posted handlers so the charges land on the right processor even
   though the original caller has moved on.  [on_copy id arrival ~ack]
   is the receiving end's action for each copy the medium delivers: it
   filters the copy and runs [ack] in a handler on [dst]. *)
let reliably ?(retry_budget = max_int) t ~label ~parts ~src ~dst ~bytes ~at ~on_copy =
  let budget = min retry_budget t.params.Params.max_retransmits in
  let st = { id = fresh_id t; acked = false; attempts = 0; unfiltered = 0; cancel = ignore } in
  let prune () =
    if st.acked && st.unfiltered = 0 then Hashtbl.remove t.delivered st.id
  in
  let on_ack () =
    if not st.acked then begin
      st.acked <- true;
      st.cancel ();
      prune ()
    end
  in
  let ack h =
    st.unfiltered <- st.unfiltered - 1;
    prune ();
    send_ack t h ~dst:src ~on_ack
  in
  let lc = label_counters t label in
  let rec attempt ~at =
    st.attempts <- st.attempts + 1;
    st.unfiltered <- st.unfiltered + 1;
    if st.attempts > 1 then lc.retrans <- lc.retrans + 1;
    transmit ~label ~retrans:(st.attempts > 1) ~parts t ~src ~dst ~bytes ~at
      ~on_fate:(fun copies ->
        st.unfiltered <- st.unfiltered + (copies - 1);
        prune ())
      ~on_arrival:(fun arrival -> on_copy st.id arrival ~ack);
    let timeout = Vtime.add at (Params.retransmit_delay t.params ~attempt:st.attempts) in
    st.cancel <-
      Engine.schedule_cancellable t.engine ~at:timeout (fun () ->
          (* A dead sender retransmits nothing (and suspects no one). *)
          if (not st.acked) && not (Engine.crashed t.engine src) then begin
            if st.attempts >= budget then
              suspected t ~src ~dst ~label ~attempts:st.attempts
            else
              (* The user-level timer fires on [src]: charge the resend. *)
              post_to t ~pid:src ~at:timeout (fun h ->
                  if not st.acked then begin
                    Engine.hcharge h Category.Unix_comm (Params.send_cost t.params bytes);
                    attempt ~at:(Engine.hnow h)
                  end)
          end)
  in
  attempt ~at

(* ------------------------------------------------------------------ *)
(* One-way messages into a handler.                                    *)

(* In reliable mode a copy runs [deliver] only if the duplicate table
   has not seen its message, and is acknowledged either way. *)
let oneway ?(label = "other") ?(parts = 1) ?retry_budget t ~src ~dst ~bytes ~at ~deliver =
  if not (reliable t) then
    transmit ~label ~parts t ~src ~dst ~bytes ~at ~on_arrival:(fun arrival ->
        deliver_to_handler t ~dst ~bytes ~arrival ~deliver)
  else
    reliably ?retry_budget t ~label ~parts ~src ~dst ~bytes ~at
      ~on_copy:(fun id arrival ~ack ->
        deliver_to_handler t ~dst ~bytes ~arrival ~deliver:(fun h ->
            if not (Hashtbl.mem t.delivered id) then begin
              Hashtbl.add t.delivered id ();
              deliver h
            end;
            ack h))

(* Sender CPU for a possibly-split burst: the payload cost once, plus the
   fixed kernel send entry for each extra fragment an unbatched transport
   puts on the wire (a batching transport pays it only once). *)
let burst_send_cost t ~bytes ~parts =
  let base = Params.send_cost t.params bytes in
  if (not t.batching) && parts > 1 then
    Vtime.add base (Vtime.scale (Params.send_cost t.params 0) (parts - 1))
  else base

let send ?label ?(parts = 1) t ~src ~dst ~bytes ~deliver =
  Engine.advance Category.Unix_comm (burst_send_cost t ~bytes ~parts);
  oneway ?label ~parts t ~src ~dst ~bytes ~at:(Engine.now t.engine) ~deliver

let hsend ?label ?(parts = 1) t h ~dst ~bytes ~deliver =
  Engine.hcharge h Category.Unix_comm (burst_send_cost t ~bytes ~parts);
  oneway ?label ~parts t ~src:(Engine.hpid h) ~dst ~bytes ~at:(Engine.hnow h) ~deliver

(* Context-free reliable one-way send at the current instant: usable from
   scheduled thunks and recovery code where neither process-context
   [Engine.advance] nor a handler context is available.  The sender CPU
   is deliberately not charged (a heartbeat or mirror runs below the
   measurement's resolution); delivery still charges the receiver. *)
let notify ?label ?(parts = 1) ?retry_budget t ~src ~dst ~bytes ~deliver =
  oneway ?label ~parts ?retry_budget t ~src ~dst ~bytes ~at:(Engine.now t.engine)
    ~deliver

(* ------------------------------------------------------------------ *)
(* Messages that wake a blocked process.                               *)

type 'a mailbox = (int * 'a) Engine.Ivar.t

let mailbox () = Engine.Ivar.create ()
let mailbox_filled mb = Engine.Ivar.is_filled mb

(* The data lands in the mailbox at wire arrival (deferred past any stall
   window on the receiver); the interrupt/resume and receive CPU are
   charged by [await_value] when the process resumes, which is when that
   kernel work happens on the real system.  In reliable mode the frame
   additionally runs a (cheap) handler on [dst] to source the
   acknowledgement; the single-use mailbox doubles as the duplicate
   filter, so no dedup-table entry is needed. *)
let value_message ?(label = "other") ?(parts = 1) t ~src ~dst ~bytes ~at mb v =
  let fill_at arrival =
    let at = Fault_plan.stall_until t.plan ~pid:dst ~at:arrival in
    if not (Engine.Ivar.is_filled mb) then Engine.fill t.engine mb ~at (bytes, v)
  in
  if not (reliable t) then
    transmit ~label ~parts t ~src ~dst ~bytes ~at ~on_arrival:fill_at
  else
    reliably t ~label ~parts ~src ~dst ~bytes ~at ~on_copy:(fun _ arrival ~ack ->
        fill_at arrival;
        post_to t ~pid:dst ~at:arrival ack)

let send_value ?label ?(parts = 1) t ~src ~dst ~bytes mb v =
  Engine.advance Category.Unix_comm (burst_send_cost t ~bytes ~parts);
  value_message ?label ~parts t ~src ~dst ~bytes ~at:(Engine.now t.engine) mb v

let hsend_value ?label ?(parts = 1) t h ~dst ~bytes mb v =
  Engine.hcharge h Category.Unix_comm (burst_send_cost t ~bytes ~parts);
  value_message ?label ~parts t ~src:(Engine.hpid h) ~dst ~bytes ~at:(Engine.hnow h) mb v

let await_value t mb =
  let bytes, v = Engine.await mb in
  Engine.advance Category.Unix_comm (Params.deliver_blocked_cpu t.params);
  Engine.advance Category.Unix_comm (Params.recv_cost t.params bytes);
  v

(* ------------------------------------------------------------------ *)
(* Statistics.                                                         *)

let total t count = Hashtbl.fold (fun _ c acc -> acc + count c) t.by_label 0
let messages_sent t = total t (fun c -> c.msgs)
let bytes_sent t = total t (fun c -> c.bytes)
let messages_handled_of t pid = t.recv.(pid)
let retransmissions t = total t (fun c -> c.retrans)
let frames_coalesced t = t.coalesced
let dedup_entries t = Hashtbl.length t.delivered

let message_mix t =
  Hashtbl.fold
    (fun label c acc ->
      {
        mix_label = label;
        mix_msgs = c.msgs;
        mix_bytes = c.bytes;
        mix_retrans = c.retrans;
        mix_dups = c.dups;
      }
      :: acc)
    t.by_label []
  |> List.sort (fun a b -> compare b.mix_msgs a.mix_msgs)
