(* Tests of the discrete-event engine: time accounting, handler CPU
   stealing, ivar blocking, determinism, deadlock detection. *)

open Tmk_sim

let check = Alcotest.check
let us = Vtime.us

(* A single process that computes 100us finishes at 100us. *)
let single_advance () =
  let e = Engine.create ~nprocs:1 in
  Engine.spawn e 0 (fun () -> Engine.advance Category.Computation (us 100));
  Engine.run e;
  check Alcotest.int "finish" (us 100) (Engine.finish_time e 0);
  check Alcotest.int "busy computation" (us 100) (Engine.busy e 0 Category.Computation);
  check Alcotest.int "busy total" (us 100) (Engine.busy_total e 0)

let sequential_advances () =
  let e = Engine.create ~nprocs:1 in
  Engine.spawn e 0 (fun () ->
      Engine.advance Category.Computation (us 10);
      Engine.advance Category.Unix_comm (us 20);
      Engine.advance Category.Tmk_mem (us 30));
  Engine.run e;
  check Alcotest.int "finish" (us 60) (Engine.finish_time e 0);
  check Alcotest.int "comp" (us 10) (Engine.busy e 0 Category.Computation);
  check Alcotest.int "unix" (us 20) (Engine.busy e 0 Category.Unix_comm);
  check Alcotest.int "tmk" (us 30) (Engine.busy e 0 Category.Tmk_mem)

(* Two processes advance independently in parallel virtual time. *)
let parallel_processes () =
  let e = Engine.create ~nprocs:2 in
  Engine.spawn e 0 (fun () -> Engine.advance Category.Computation (us 100));
  Engine.spawn e 1 (fun () -> Engine.advance Category.Computation (us 250));
  Engine.run e;
  check Alcotest.int "p0" (us 100) (Engine.finish_time e 0);
  check Alcotest.int "p1" (us 250) (Engine.finish_time e 1);
  check Alcotest.int "makespan" (us 250) (Engine.end_time e)

(* An ivar filled by a scheduled event wakes the waiting process at the
   fill time. *)
let ivar_blocking () =
  let e = Engine.create ~nprocs:1 in
  let iv = Engine.Ivar.create () in
  let seen = ref 0 in
  Engine.spawn e 0 (fun () ->
      Engine.advance Category.Computation (us 10);
      seen := Engine.await iv;
      Engine.advance Category.Computation (us 5));
  Engine.schedule e ~at:(us 300) (fun () -> Engine.fill e iv ~at:(us 300) 42);
  Engine.run e;
  check Alcotest.int "value" 42 !seen;
  check Alcotest.int "finish" (us 305) (Engine.finish_time e 0);
  (* Blocked time (10..300) is idle: busy is only 15us. *)
  check Alcotest.int "busy" (us 15) (Engine.busy_total e 0)

let ivar_already_filled () =
  let e = Engine.create ~nprocs:1 in
  let iv = Engine.Ivar.create () in
  Engine.fill e iv ~at:Vtime.zero 7;
  check Alcotest.bool "filled" true (Engine.Ivar.is_filled iv);
  let got = ref 0 in
  Engine.spawn e 0 (fun () ->
      got := Engine.await iv;
      Engine.advance Category.Computation (us 1));
  Engine.run e;
  check Alcotest.int "value" 7 !got;
  check Alcotest.int "no wait" (us 1) (Engine.finish_time e 0)

let ivar_double_fill () =
  let e = Engine.create ~nprocs:1 in
  let iv = Engine.Ivar.create () in
  Engine.fill e iv ~at:Vtime.zero 1;
  Alcotest.check_raises "double fill"
    (Invalid_argument "Engine.fill: ivar already filled") (fun () ->
      Engine.fill e iv ~at:Vtime.zero 2)

(* A handler posted mid-chunk steals CPU: the app's chunk completion is
   pushed back by the handler service time. *)
let handler_steals_from_chunk () =
  let e = Engine.create ~nprocs:1 in
  Engine.spawn e 0 (fun () -> Engine.advance Category.Computation (us 100));
  Engine.post_handler e ~pid:0 ~at:(us 40) (fun h ->
      Engine.hcharge h Category.Unix_comm (us 25));
  Engine.run e;
  (* 100us of app work + 25us stolen = 125us finish. *)
  check Alcotest.int "finish postponed" (us 125) (Engine.finish_time e 0);
  check Alcotest.int "handler charge" (us 25) (Engine.busy e 0 Category.Unix_comm);
  check Alcotest.int "app charge" (us 100) (Engine.busy e 0 Category.Computation)

(* A handler while the app is blocked does NOT delay it beyond its own
   service (idle overlap). *)
let handler_during_idle () =
  let e = Engine.create ~nprocs:1 in
  let iv = Engine.Ivar.create () in
  Engine.spawn e 0 (fun () -> ignore (Engine.await iv));
  Engine.post_handler e ~pid:0 ~at:(us 10) (fun h ->
      Engine.hcharge h Category.Unix_comm (us 30));
  Engine.schedule e ~at:(us 100) (fun () -> Engine.fill e iv ~at:(us 100) ());
  Engine.run e;
  check Alcotest.int "finish at fill" (us 100) (Engine.finish_time e 0)

(* If the awaited reply arrives while a handler occupies the CPU, the app
   resumes when the handler completes. *)
let resume_waits_for_handler () =
  let e = Engine.create ~nprocs:1 in
  let iv = Engine.Ivar.create () in
  Engine.spawn e 0 (fun () -> ignore (Engine.await iv));
  Engine.post_handler e ~pid:0 ~at:(us 90) (fun h ->
      Engine.hcharge h Category.Unix_comm (us 50));
  Engine.schedule e ~at:(us 100) (fun () -> Engine.fill e iv ~at:(us 100) ());
  Engine.run e;
  (* Handler runs 90..140; fill at 100; resume at 140. *)
  check Alcotest.int "resume after handler" (us 140) (Engine.finish_time e 0)

(* Handlers on one processor serialise FIFO. *)
let handlers_serialise () =
  let e = Engine.create ~nprocs:1 in
  let order = ref [] in
  let log h tag =
    order := (tag, Engine.hnow h) :: !order;
    Engine.hcharge h Category.Unix_comm (us 10)
  in
  Engine.post_handler e ~pid:0 ~at:(us 5) (fun h -> log h "a");
  Engine.post_handler e ~pid:0 ~at:(us 5) (fun h -> log h "b");
  Engine.post_handler e ~pid:0 ~at:(us 7) (fun h -> log h "c");
  Engine.spawn e 0 (fun () -> ());
  Engine.run e;
  let got = List.rev !order in
  check
    Alcotest.(list (pair string int))
    "fifo with serialised starts"
    [ ("a", us 5); ("b", us 15); ("c", us 25) ]
    got

(* hnow advances as the handler charges. *)
let hnow_tracks_charges () =
  let e = Engine.create ~nprocs:1 in
  let samples = ref [] in
  Engine.post_handler e ~pid:0 ~at:(us 100) (fun h ->
      samples := Engine.hnow h :: !samples;
      Engine.hcharge h Category.Tmk_mem (us 7);
      samples := Engine.hnow h :: !samples;
      Engine.hcharge h Category.Tmk_other (us 3);
      samples := Engine.hnow h :: !samples);
  Engine.spawn e 0 (fun () -> ());
  Engine.run e;
  check Alcotest.(list int) "hnow" [ us 100; us 107; us 110 ] (List.rev !samples)

(* Deadlock: a process waiting on an ivar nobody fills. *)
let deadlock_detection () =
  let e = Engine.create ~nprocs:2 in
  let iv = Engine.Ivar.create () in
  Engine.spawn e 0 (fun () -> ignore (Engine.await iv));
  Engine.spawn e 1 (fun () -> Engine.advance Category.Computation (us 5));
  (match Engine.run e with
  | () -> Alcotest.fail "expected deadlock"
  | exception Engine.Deadlock [ 0 ] -> ()
  | exception Engine.Deadlock other ->
    Alcotest.failf "wrong pids: %s" (String.concat "," (List.map string_of_int other)))

(* Cancelled events do not run. *)
let cancellable_events () =
  let e = Engine.create ~nprocs:1 in
  let fired = ref false in
  let cancel = Engine.schedule_cancellable e ~at:(us 50) (fun () -> fired := true) in
  Engine.schedule e ~at:(us 10) (fun () -> cancel ());
  Engine.spawn e 0 (fun () -> ());
  Engine.run e;
  check Alcotest.bool "not fired" false !fired

(* Scheduling in the past is rejected. *)
let no_past_events () =
  let e = Engine.create ~nprocs:1 in
  Engine.spawn e 0 (fun () ->
      Engine.advance Category.Computation (us 10);
      (* now = 10us; scheduling at 5us must fail *)
      match Engine.schedule e ~at:(us 5) (fun () -> ()) with
      | () -> Alcotest.fail "expected invalid_arg"
      | exception Invalid_argument _ -> ());
  Engine.run e

(* Determinism: identical runs produce byte-identical typed event
   streams (compared through the JSONL encoding, which is injective on
   records). *)
let deterministic_trace () =
  let run_once () =
    let e = Engine.create ~nprocs:4 in
    let sink = Tmk_trace.Sink.create () in
    Engine.set_sink e sink;
    let ivs = Array.init 4 (fun _ -> Engine.Ivar.create ()) in
    for p = 0 to 3 do
      Engine.spawn e p (fun () ->
          Engine.advance Category.Computation (us (10 * (p + 1)));
          Engine.emit e ~pid:p
            (Tmk_trace.Event.Frame_dup
               { src = p; dst = (p + 1) mod 4; label = Printf.sprintf "p%d-computed" p });
          (* everyone signals the next processor, ring-style *)
          Engine.fill e ivs.((p + 1) mod 4) ~at:(Engine.now e) p;
          let from = Engine.await ivs.(p) in
          Engine.emit e ~pid:p
            (Tmk_trace.Event.Frame_dup
               { src = from; dst = p; label = Printf.sprintf "p%d-got-%d" p from }))
    done;
    Engine.run e;
    Test_trace.written Tmk_trace.Jsonl.write sink
  in
  let first = run_once () in
  check Alcotest.bool "stream non-empty" true (String.length first > 0);
  check Alcotest.string "same trace" first (run_once ())

(* Two processes exchanging through ivars: time of a "round trip". *)
let ping_pong_timing () =
  let e = Engine.create ~nprocs:2 in
  let ping = Engine.Ivar.create () and pong = Engine.Ivar.create () in
  Engine.spawn e 0 (fun () ->
      Engine.advance Category.Computation (us 10);
      Engine.fill e ping ~at:(Engine.now e) ();
      ignore (Engine.await pong);
      Engine.advance Category.Computation (us 1));
  Engine.spawn e 1 (fun () ->
      ignore (Engine.await ping);
      Engine.advance Category.Computation (us 20);
      Engine.fill e pong ~at:(Engine.now e) ());
  Engine.run e;
  check Alcotest.int "p0 finish" (us 31) (Engine.finish_time e 0);
  check Alcotest.int "p1 finish" (us 30) (Engine.finish_time e 1)

(* Multiple handler thefts extend the same chunk cumulatively. *)
let multiple_thefts () =
  let e = Engine.create ~nprocs:1 in
  Engine.spawn e 0 (fun () -> Engine.advance Category.Computation (us 100));
  Engine.post_handler e ~pid:0 ~at:(us 10) (fun h -> Engine.hcharge h Category.Unix_comm (us 20));
  Engine.post_handler e ~pid:0 ~at:(us 50) (fun h -> Engine.hcharge h Category.Unix_comm (us 30));
  Engine.run e;
  check Alcotest.int "finish" (us 150) (Engine.finish_time e 0)

(* A handler arriving during the theft-extension window still extends. *)
let theft_during_extension () =
  let e = Engine.create ~nprocs:1 in
  Engine.spawn e 0 (fun () -> Engine.advance Category.Computation (us 100));
  (* First handler at 95 extends chunk to 125; second at 110 (within the
     extension) extends to 145. *)
  Engine.post_handler e ~pid:0 ~at:(us 95) (fun h -> Engine.hcharge h Category.Unix_comm (us 25));
  Engine.post_handler e ~pid:0 ~at:(us 110) (fun h -> Engine.hcharge h Category.Unix_comm (us 20));
  Engine.run e;
  check Alcotest.int "finish" (us 145) (Engine.finish_time e 0)

let vtime_pp () =
  let s v = Format.asprintf "%a" Vtime.pp v in
  check Alcotest.string "ns" "12ns" (s (Vtime.ns 12));
  check Alcotest.string "us" "1.50us" (s (Vtime.ns 1500));
  check Alcotest.string "ms" "2.000ms" (s (Vtime.ms 2));
  check Alcotest.string "s" "3.0000s" (s (Vtime.s 3))

let vtime_conversions () =
  check (Alcotest.float 1e-12) "to_us" 1.5 (Vtime.to_us (Vtime.ns 1500));
  check (Alcotest.float 1e-12) "to_ms" 0.25 (Vtime.to_ms (Vtime.us 250));
  check (Alcotest.float 1e-12) "to_s" 2.0 (Vtime.to_s (Vtime.s 2))

(* Property: for any schedule of app advances and handler charges, the
   per-category busy sums equal exactly what was charged, processes finish
   no earlier than their total app time, and the engine is deterministic. *)
let random_schedule_accounting =
  let gen =
    QCheck.Gen.(
      int_range 1 4 >>= fun nprocs ->
      list_size (int_range 0 20)
        (triple (int_range 0 (nprocs - 1)) (int_range 1 500) (int_range 0 1))
      >>= fun ops -> return (nprocs, ops))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"random schedules account exactly"
       (QCheck.make
          ~print:(fun (n, ops) -> Printf.sprintf "nprocs=%d ops=%d" n (List.length ops))
          gen)
       (fun (nprocs, ops) ->
         let e = Engine.create ~nprocs in
         (* split ops: per-proc app advances, plus handlers posted at fixed
            times *)
         let app_time = Array.make nprocs 0 in
         let handler_time = Array.make nprocs 0 in
         List.iteri
           (fun i (p, dt, kind) ->
             if kind = 0 then app_time.(p) <- app_time.(p) + us dt
             else begin
               handler_time.(p) <- handler_time.(p) + us dt;
               Engine.post_handler e ~pid:p ~at:(us (i * 37)) (fun h ->
                   Engine.hcharge h Category.Unix_comm (us dt))
             end)
           ops;
         for p = 0 to nprocs - 1 do
           let total = app_time.(p) in
           Engine.spawn e p (fun () ->
               if total > 0 then Engine.advance Category.Computation total)
         done;
         Engine.run e;
         let ok = ref true in
         for p = 0 to nprocs - 1 do
           if Engine.busy e p Category.Computation <> app_time.(p) then ok := false;
           if Engine.busy e p Category.Unix_comm <> handler_time.(p) then ok := false;
           if Engine.finish_time e p < app_time.(p) then ok := false;
           (* handlers can only delay the app by at most their total *)
           if Engine.finish_time e p > app_time.(p) + handler_time.(p) then ok := false
         done;
         !ok))

(* Property: events fire in time order, FIFO among equal times, and a
   cancelled event never fires.  Times collide often; some events schedule
   or cancel further events while they fire.  Every firing also calls the
   cancel handles of events that already fired or were cancelled, after
   the firing's own nested events may have taken over their queue slots:
   such a late cancel must cancel nothing.  The reference is the schedule
   log (in call order), stably sorted by time. *)
let event_queue_order =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 40)
        (triple (int_range 0 5) (int_range 0 3)
           (list_size (int_range 0 3) (pair (int_range 0 3) (int_range 0 3)))))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"event queue fires in time order, FIFO on ties"
       (QCheck.make
          ~print:(fun evs -> Printf.sprintf "%d top-level events" (List.length evs))
          gen)
       (fun events ->
         let e = Engine.create ~nprocs:1 in
         let log = ref [] and fired = ref [] and next_id = ref 0 in
         let late = ref [] in
         (* kind 0: [schedule]; 1: [schedule_cancellable]; 2: the same,
            cancelled at once; 3: the same, its handle called late.  The
            handles of kinds 2 and 3 join [late] once their event is
            cancelled or fired. *)
         let rec add at kind nested =
           let id = !next_id in
           incr next_id;
           log := (at, id, kind = 2) :: !log;
           let cancel = ref ignore in
           let fire () =
             fired := (id, Engine.now e) :: !fired;
             List.iter (fun (dt, kind) -> add (Engine.now e + us dt) kind []) nested;
             if kind = 3 then late := !cancel :: !late;
             List.iter (fun cancel -> cancel ()) !late
           in
           match kind with
           | 0 -> Engine.schedule e ~at fire
           | 1 -> ignore (Engine.schedule_cancellable e ~at fire : unit -> unit)
           | 2 ->
             let c = Engine.schedule_cancellable e ~at fire in
             c ();
             late := c :: !late
           | _ -> cancel := Engine.schedule_cancellable e ~at fire
         in
         List.iter (fun (at, kind, nested) -> add (us at) kind nested) events;
         Engine.run e;
         let expected =
           List.rev !log
           |> List.filter (fun (_, _, cancelled) -> not cancelled)
           |> List.stable_sort (fun (a, _, _) (b, _, _) -> compare a b)
           |> List.map (fun (at, id, _) -> (id, at))
         in
         List.rev !fired = expected && Engine.pending_events e = 0))

(* Property: a section equals its charges advanced one at a time.  Each
   script runs twice, once making every [Sec] with [Engine.section] and
   once with a loop of [Engine.advance], and both runs must log the same
   firings and end with the same busy times, finish times, end time and
   queue.  Durations are drawn from a small set that includes 0, and
   thunks and handler posts from a small window, so chunk ends often tie
   with queued events.  Each firing records every processor's busy time,
   so a chunk end that fired out of order would show.  Handlers steal CPU
   from chunks, and a process may request a stop just before an op.   *)
type sec_op = Adv of (int * int) | Sec of (int * int) list

let sections_equal_advances =
  let open QCheck.Gen in
  let dur = oneofl [ 0; 1; 2; 3; 5 ] in
  let charge = pair (int_range 0 (Category.count - 1)) dur in
  let op =
    frequency
      [
        (1, map (fun c -> Adv c) charge);
        (2, map (fun cs -> Sec cs) (list_size (int_range 0 8) charge));
      ]
  in
  let gen =
    int_range 1 6 >>= fun nprocs ->
    array_repeat nprocs (list_size (int_range 0 5) op) >>= fun scripts ->
    list_size (int_range 0 6) (triple (int_range 0 (nprocs - 1)) (int_range 0 30) dur)
    >>= fun posts ->
    list_size (int_range 0 6) (int_range 0 30) >>= fun thunks ->
    opt ~ratio:0.3 (pair (int_range 0 (nprocs - 1)) (int_range 0 4)) >>= fun stop ->
    return (scripts, posts, thunks, stop)
  in
  let print (scripts, posts, thunks, stop) =
    let list sep f l = String.concat sep (List.map f l) in
    let charges = list ";" (fun (c, d) -> Printf.sprintf "%d:%d" c d) in
    let op = function Adv c -> "adv " ^ charges [ c ] | Sec cs -> "sec [" ^ charges cs ^ "]" in
    Printf.sprintf "scripts=[%s] posts=[%s] thunks=[%s] stop=%s"
      (list " | " (list ", " op) (Array.to_list scripts))
      (list ";" (fun (p, at, d) -> Printf.sprintf "p%d@%d+%d" p at d) posts)
      (list ";" string_of_int thunks)
      (match stop with None -> "none" | Some (p, j) -> Printf.sprintf "p%d before op %d" p j)
  in
  let run ~sections (scripts, posts, thunks, stop) =
    let nprocs = Array.length scripts in
    let e = Engine.create ~nprocs in
    let cat c = List.nth Category.all c in
    let log = ref [] in
    let note what time = log := (what, time, List.init nprocs (Engine.busy_total e)) :: !log in
    List.iteri
      (fun i at -> Engine.schedule e ~at:(us at) (fun () -> note (`Thunk i) (Engine.now e)))
      thunks;
    List.iteri
      (fun i (pid, at, dt) ->
        Engine.post_handler e ~pid ~at:(us at) (fun h ->
            note (`Handler i) (Engine.hnow h);
            Engine.hcharge h Category.Unix_comm (us dt)))
      posts;
    Array.iteri
      (fun pid script ->
        Engine.spawn e pid (fun () ->
            List.iteri
              (fun j op ->
                if stop = Some (pid, j) then Engine.request_stop e "stop";
                (match op with
                | Adv (c, dt) -> Engine.advance (cat c) (us dt)
                | Sec cs ->
                  let make charge = List.iter (fun (c, dt) -> charge (cat c) (us dt)) cs in
                  if sections then Engine.section e make else make Engine.advance);
                note (`Proc (pid, j)) (Engine.now e))
              script))
      scripts;
    Engine.run e;
    let finish p = if Engine.finished e p then Some (Engine.finish_time e p) else None in
    ( List.rev !log,
      List.init nprocs (fun p -> List.map (Engine.busy e p) Category.all),
      List.init nprocs finish,
      Engine.end_time e,
      Engine.pending_events e )
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"a section equals its charges advanced one at a time"
       (QCheck.make ~print gen)
       (fun script -> run ~sections:true script = run ~sections:false script))

(* Sections do not nest, and their body is instantaneous: it may not
   advance or await.  A section outside process context is an error too. *)
let section_misuse_raises () =
  let e = Engine.create ~nprocs:1 in
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  check Alcotest.bool "outside process context" true
    (raises (fun () -> Engine.section e (fun _ -> ())));
  let nested = ref false and advanced = ref false in
  Engine.spawn e 0 (fun () ->
      nested := raises (fun () -> Engine.section e (fun _ -> Engine.section e (fun _ -> ())));
      advanced :=
        raises (fun () ->
            Engine.section e (fun _ -> Engine.advance Category.Computation (us 1)));
      Engine.section e (fun charge ->
          charge Category.Tmk_other (us 3);
          charge Category.Tmk_mem (us 4)));
  Engine.run e;
  check Alcotest.bool "nested section" true !nested;
  check Alcotest.bool "advance inside a section" true !advanced;
  check Alcotest.int "a later section still charges" (us 7) (Engine.finish_time e 0);
  check Alcotest.int "tmk-other" (us 3) (Engine.busy e 0 Category.Tmk_other)

let suite =
  [
    random_schedule_accounting;
    event_queue_order;
    sections_equal_advances;
    Alcotest.test_case "section misuse raises" `Quick section_misuse_raises;
    Alcotest.test_case "single advance" `Quick single_advance;
    Alcotest.test_case "sequential advances" `Quick sequential_advances;
    Alcotest.test_case "parallel processes" `Quick parallel_processes;
    Alcotest.test_case "ivar blocking" `Quick ivar_blocking;
    Alcotest.test_case "ivar already filled" `Quick ivar_already_filled;
    Alcotest.test_case "ivar double fill" `Quick ivar_double_fill;
    Alcotest.test_case "handler steals from chunk" `Quick handler_steals_from_chunk;
    Alcotest.test_case "handler during idle" `Quick handler_during_idle;
    Alcotest.test_case "resume waits for handler" `Quick resume_waits_for_handler;
    Alcotest.test_case "handlers serialise" `Quick handlers_serialise;
    Alcotest.test_case "hnow tracks charges" `Quick hnow_tracks_charges;
    Alcotest.test_case "deadlock detection" `Quick deadlock_detection;
    Alcotest.test_case "cancellable events" `Quick cancellable_events;
    Alcotest.test_case "no past events" `Quick no_past_events;
    Alcotest.test_case "deterministic trace" `Quick deterministic_trace;
    Alcotest.test_case "ping pong timing" `Quick ping_pong_timing;
    Alcotest.test_case "multiple thefts" `Quick multiple_thefts;
    Alcotest.test_case "theft during extension" `Quick theft_during_extension;
    Alcotest.test_case "vtime pp" `Quick vtime_pp;
    Alcotest.test_case "vtime conversions" `Quick vtime_conversions;
  ]
