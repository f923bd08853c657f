type pid = int

exception Deadlock of pid list

(* ------------------------------------------------------------------ *)
(* Ivars                                                              *)

module Ivar = struct
  type 'a state =
    | Empty of ('a -> Vtime.t -> unit) list  (* waiters: value, fill time *)
    | Filled of 'a

  type 'a t = { mutable state : 'a state }

  let create () = { state = Empty [] }

  let is_filled iv = match iv.state with Filled _ -> true | Empty _ -> false
end

(* ------------------------------------------------------------------ *)
(* Processors and events                                              *)

type proc = {
  id : pid;
  running : pid option;  (* [Some id], preallocated for [running_pid] *)
  busy : Vtime.t array;  (* indexed by Category.index *)
  mutable handler_busy_until : Vtime.t;
  mutable handler_running : bool;
  handler_queue : (hctx -> unit) Queue.t;
  mutable in_chunk : bool;
  mutable stolen : Vtime.t;  (* handler CPU stolen from the current chunk *)
  mutable chunk_end : event;
      (* the end of the current computation chunk, set once by [create].
         A processor never has two chunks pending, so this one event is
         pushed again for every chunk and every stolen-time extension. *)
  mutable chunk_k : (unit, unit) Effect.Deep.continuation;
      (* the process suspended in that chunk, or [no_k] *)
  mutable in_section : bool;  (* the process is running a [section] body *)
  mutable sec_cats : Category.t array;
  mutable sec_dts : Vtime.t array;
      (* the section's charges, [sec_len] of them in call order; made one
         chunk each, from [sec_next] on *)
  mutable sec_len : int;
  mutable sec_next : int;
  mutable sec_charge : Category.t -> Vtime.t -> unit;
      (* appends to the buffer; built once by [create] *)
  mutable spawned : bool;
  mutable finished_at : Vtime.t option;
  mutable had_handler : bool;
  mutable crashed_at : Vtime.t option;
}

and hctx = {
  hproc : proc;
  hstart : Vtime.t;
  mutable hcharged : Vtime.t;
  hengine : t;
  hfresh : bool;
}

(* Events fire in [(time, seq)] order, and [seq] is the push order, so
   events at equal times fire FIFO. *)
and event = {
  mutable time : Vtime.t;
  mutable seq : int;
  mutable live : bool;
  kind : kind;
}

and kind = Thunk of (unit -> unit) | Chunk_end of proc

and t = {
  procs : proc array;
  mutable queue : event array;  (* binary min-heap in [0, size) *)
  mutable size : int;
  mutable next_seq : int;
  mutable clock : Vtime.t;
  mutable last_event_time : Vtime.t;
  mutable running_pid : pid option;  (* process currently executing, if any *)
  blocked : bool array;  (* per-pid: process suspended on an ivar *)
  mutable blocked_count : int;
  mutable sink : Tmk_trace.Sink.t option;
  mutable stop_reason : string option;
}

(* Fills the queue's unused slots, so a fired thunk can be collected, and
   each [chunk_end] until [create] sets it. *)
let vacant = { time = Vtime.zero; seq = 0; live = false; kind = Thunk ignore }

(* The [chunk_k] of a processor with no process suspended in a chunk: a
   continuation captured once, here, and never resumed.  A sentinel
   instead of an option saves the [Some] each advance would allocate. *)
type _ Effect.t += No_k : unit Effect.t

let no_k : (unit, unit) Effect.Deep.continuation =
  let captured : (unit, unit) Effect.Deep.continuation option ref = ref None in
  Effect.Deep.match_with Effect.perform No_k
    {
      retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) : ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with
          | No_k -> Some (fun k -> captured := Some k)
          | _ -> None);
    };
  Option.get !captured

let add_section_charge proc cat dt =
  if not proc.in_section then invalid_arg "Engine.section: charge outside its section";
  if dt < 0 then invalid_arg "Engine: negative time charge";
  let n = proc.sec_len in
  if n = Array.length proc.sec_dts then begin
    let cap = if n = 0 then 8 else 2 * n in
    let cats = Array.make cap Category.Computation in
    let dts = Array.make cap Vtime.zero in
    Array.blit proc.sec_cats 0 cats 0 n;
    Array.blit proc.sec_dts 0 dts 0 n;
    proc.sec_cats <- cats;
    proc.sec_dts <- dts
  end;
  proc.sec_cats.(n) <- cat;
  proc.sec_dts.(n) <- dt;
  proc.sec_len <- n + 1

let create ~nprocs =
  if nprocs <= 0 then invalid_arg "Engine.create: nprocs must be positive";
  let make_proc id =
    let proc =
      {
        id;
        running = Some id;
        busy = Array.make Category.count Vtime.zero;
        handler_busy_until = Vtime.zero;
        handler_running = false;
        handler_queue = Queue.create ();
        in_chunk = false;
        stolen = Vtime.zero;
        chunk_end = vacant;
        chunk_k = no_k;
        in_section = false;
        sec_cats = [||];
        sec_dts = [||];
        sec_len = 0;
        sec_next = 0;
        sec_charge = (fun _ _ -> ());
        spawned = false;
        finished_at = None;
        had_handler = false;
        crashed_at = None;
      }
    in
    proc.chunk_end <- { time = Vtime.zero; seq = 0; live = true; kind = Chunk_end proc };
    proc.sec_charge <- (fun cat dt -> add_section_charge proc cat dt);
    proc
  in
  {
    procs = Array.init nprocs make_proc;
    queue = [||];
    size = 0;
    next_seq = 0;
    clock = Vtime.zero;
    last_event_time = Vtime.zero;
    running_pid = None;
    blocked = Array.make nprocs false;
    blocked_count = 0;
    sink = None;
    stop_reason = None;
  }

let nprocs t = Array.length t.procs
let now t = t.clock

(* ------------------------------------------------------------------ *)
(* Crash-stop failures and clean termination                           *)

let crashed t pid = t.procs.(pid).crashed_at <> None
let crash_time t pid = t.procs.(pid).crashed_at

(* A crashed processor executes nothing from this instant on: its pending
   handler queue is discarded and every later resume point (chunk end,
   ivar fill, handler delivery) checks [crashed] before running.  The
   suspended continuation, if any, is simply never resumed — leaked, which
   is fine in a simulator. *)
let mark_crashed t pid =
  let proc = t.procs.(pid) in
  if proc.crashed_at = None then begin
    proc.crashed_at <- Some t.clock;
    Queue.clear proc.handler_queue;
    proc.handler_running <- false;
    if t.blocked.(pid) then begin
      t.blocked.(pid) <- false;
      t.blocked_count <- t.blocked_count - 1
    end
  end

(* Ask the main loop to return at the next event boundary: the clean
   alternative to raising out of a timer callback.  Stats, busy times and
   traces accumulated so far all stay intact.  The first reason wins. *)
let request_stop t reason = if t.stop_reason = None then t.stop_reason <- Some reason
let stop_reason t = t.stop_reason

(* ------------------------------------------------------------------ *)
(* Typed event tracing                                                 *)

let set_sink t s = t.sink <- Some s
let tracing t = t.sink <> None

let emit_at t ~time ~pid ev =
  match t.sink with
  | None -> ()
  | Some s -> Tmk_trace.Sink.emit s ~time ~pid ev

let emit t ~pid ev = emit_at t ~time:t.clock ~pid ev

(* ------------------------------------------------------------------ *)
(* Event queue: a binary min-heap ordered by [(time, seq)]             *)

let[@inline] before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

(* Sift [ev] up from the hole at [i]. *)
let rec sift_up queue ev i =
  let parent = (i - 1) / 2 in
  if i > 0 && before ev queue.(parent) then begin
    queue.(i) <- queue.(parent);
    sift_up queue ev parent
  end
  else queue.(i) <- ev

(* Sift [ev] down from the hole at [i] in a heap of [size] events. *)
let rec sift_down queue size ev i =
  let l = (2 * i) + 1 in
  if l >= size then queue.(i) <- ev
  else
    let c = if l + 1 < size && before queue.(l + 1) queue.(l) then l + 1 else l in
    if before queue.(c) ev then begin
      queue.(i) <- queue.(c);
      sift_down queue size ev c
    end
    else queue.(i) <- ev

let push t ev =
  ev.seq <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  if t.size = Array.length t.queue then begin
    let queue = Array.make (if t.size = 0 then 16 else 2 * t.size) vacant in
    Array.blit t.queue 0 queue 0 t.size;
    t.queue <- queue
  end;
  t.size <- t.size + 1;
  sift_up t.queue ev (t.size - 1)

(* Only called on a non-empty queue. *)
let pop t =
  let queue = t.queue in
  let top = queue.(0) in
  let size = t.size - 1 in
  t.size <- size;
  let last = queue.(size) in
  queue.(size) <- vacant;
  if size > 0 then sift_down queue size last 0;
  top

let enqueue t ~at f =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule: time %d is before now %d" at t.clock);
  let ev = { time = at; seq = 0; live = true; kind = Thunk f } in
  push t ev;
  ev

let schedule t ~at f = ignore (enqueue t ~at f)

(* A cancelled event is skipped by the main loop without advancing the
   clock or the makespan: a retransmission timer whose ack already landed
   must not stretch the run's end time past the last real event. *)
let schedule_cancellable t ~at f =
  let ev = enqueue t ~at f in
  fun () -> ev.live <- false

let pending_events t = t.size

(* ------------------------------------------------------------------ *)
(* Effects: the process-context operations                            *)

type _ Effect.t +=
  | Advance : Category.t * Vtime.t -> unit Effect.t
  | Section : unit Effect.t
  | Await : 'a Ivar.t -> 'a Effect.t

let advance cat dt = Effect.perform (Advance (cat, dt))
let await iv = Effect.perform (Await iv)

let section t f =
  match t.running_pid with
  | None -> invalid_arg "Engine.section: not in process context"
  | Some pid -> (
    let proc = t.procs.(pid) in
    if proc.in_section then invalid_arg "Engine.section: nested section";
    proc.in_section <- true;
    proc.sec_len <- 0;
    proc.sec_next <- 0;
    match f proc.sec_charge with
    | exception e ->
      proc.in_section <- false;
      raise e
    | result ->
      proc.in_section <- false;
      if proc.sec_len > 0 then Effect.perform Section;
      result)

let charge proc cat dt =
  if dt < 0 then invalid_arg "Engine: negative time charge";
  proc.busy.(Category.index cat) <- Vtime.add proc.busy.(Category.index cat) dt

(* Start the chunk of the section's next charge at [t.clock], as the
   process would if resumed to [advance] it; the caller pushes the chunk
   end.  A chunk end strictly earlier than every queued event is the main
   loop's next pop, unless a stop was requested, and no handler can run
   inside its chunk, so its push and pop are skipped: its time becomes the
   clock, and it takes the seq its push would have taken.  The last
   charge's chunk end is always pushed, so the process resumes from the
   main loop. *)
let rec section_charge t proc =
  let i = proc.sec_next in
  let dt = proc.sec_dts.(i) in
  charge proc proc.sec_cats.(i) dt;
  proc.sec_next <- i + 1;
  let ev = proc.chunk_end in
  ev.time <- Vtime.add t.clock dt;
  if
    proc.sec_next < proc.sec_len
    && t.stop_reason = None
    && (t.size = 0 || ev.time < t.queue.(0).time)
  then begin
    t.next_seq <- t.next_seq + 1;
    t.clock <- ev.time;
    t.last_event_time <- ev.time;
    section_charge t proc
  end

(* A computation chunk ends at its nominal time plus whatever handler CPU
   was stolen meanwhile; stolen time can itself be extended, so the chunk
   end is pushed again until no new theft occurred.  Then a section with
   charges left starts the next one instead of resuming the process. *)
let end_chunk t proc =
  if proc.crashed_at <> None then proc.chunk_k <- no_k
  else if proc.stolen > Vtime.zero then begin
    let ev = proc.chunk_end in
    ev.time <- Vtime.add ev.time proc.stolen;
    proc.stolen <- Vtime.zero;
    push t ev
  end
  else if proc.sec_next < proc.sec_len then begin
    section_charge t proc;
    push t proc.chunk_end
  end
  else begin
    let k = proc.chunk_k in
    assert (k != no_k);
    proc.chunk_k <- no_k;
    proc.in_chunk <- false;
    t.running_pid <- proc.running;
    Effect.Deep.continue k ();
    t.running_pid <- None
  end

let fill (_ : t) iv ~at v =
  match iv.Ivar.state with
  | Ivar.Filled _ -> invalid_arg "Engine.fill: ivar already filled"
  | Ivar.Empty waiters ->
    iv.Ivar.state <- Ivar.Filled v;
    List.iter (fun w -> w v at) (List.rev waiters)

let spawn t pid main =
  let proc = t.procs.(pid) in
  if proc.spawned then invalid_arg "Engine.spawn: processor already has a process";
  proc.spawned <- true;
  let open Effect.Deep in
  (* Every Advance and Section of this process is handled by this one
     closure; [effc] has already made the (first) charge and set the chunk
     end's time. *)
  let on_advance =
    Some
      (fun k ->
        proc.chunk_k <- k;
        proc.in_chunk <- true;
        proc.stolen <- Vtime.zero;
        push t proc.chunk_end)
  in
  let in_section_error () =
    Some
      (fun k ->
        discontinue k (Invalid_argument "Engine.section: advance or await inside a section"))
  in
  let body () =
    match_with main ()
      {
        retc =
          (fun () ->
            proc.finished_at <- Some t.clock;
            emit t ~pid Tmk_trace.Event.Proc_finish);
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
            match eff with
            | Advance _ when proc.in_section -> in_section_error ()
            | Advance (cat, dt) ->
              charge proc cat dt;
              proc.chunk_end.time <- Vtime.add t.clock dt;
              on_advance
            | Section ->
              section_charge t proc;
              on_advance
            | Await _ when proc.in_section -> in_section_error ()
            | Await iv ->
              Some
                (fun (k : (a, _) continuation) ->
                  match iv.Ivar.state with
                  | Ivar.Filled v ->
                    (* Already available: no time passes. *)
                    continue k v
                  | Ivar.Empty waiters ->
                    t.blocked.(pid) <- true;
                    t.blocked_count <- t.blocked_count + 1;
                    let waiter v at =
                      (* Resume no earlier than the fill and no earlier
                         than the end of any handler occupying our CPU.
                         A crashed processor never resumes; its blocked
                         bookkeeping was cleared by [mark_crashed]. *)
                      if proc.crashed_at = None then
                        let resume_at = Vtime.max at proc.handler_busy_until in
                        schedule t ~at:resume_at (fun () ->
                            if proc.crashed_at = None then begin
                              t.blocked.(pid) <- false;
                              t.blocked_count <- t.blocked_count - 1;
                              t.running_pid <- proc.running;
                              continue k v;
                              t.running_pid <- None
                            end)
                    in
                    iv.Ivar.state <- Ivar.Empty (waiter :: waiters))
            | _ -> None);
      }
  in
  schedule t ~at:Vtime.zero (fun () ->
      if proc.crashed_at = None then begin
        t.running_pid <- proc.running;
        body ();
        t.running_pid <- None
      end)

(* ------------------------------------------------------------------ *)
(* Handlers                                                           *)

let hcharge h cat dt =
  charge h.hproc cat dt;
  h.hcharged <- Vtime.add h.hcharged dt

let hnow h = Vtime.add h.hstart h.hcharged
let hpid h = h.hproc.id
let hfresh h = h.hfresh

(* Run queued handlers one at a time per processor.  Service time is known
   only after the handler body runs (it charges as it goes), so the pump
   runs the body at its start time and schedules the next pump at the
   resulting end time. *)
let rec handler_pump t proc =
  if proc.crashed_at <> None then begin
    Queue.clear proc.handler_queue;
    proc.handler_running <- false
  end
  else
    match Queue.take_opt proc.handler_queue with
    | None -> proc.handler_running <- false
    | Some f ->
      proc.handler_running <- true;
      let start = Vtime.max t.clock proc.handler_busy_until in
      (* Fresh = the handler slot was idle when this request begins service,
         so a real system would pay a full signal dispatch; back-to-back
         requests are drained by the already-running handler loop. *)
      let fresh = (not proc.had_handler) || start > proc.handler_busy_until in
      proc.had_handler <- true;
      schedule t ~at:start (fun () ->
          if proc.crashed_at <> None then ()
          else begin
            let h =
              { hproc = proc; hstart = start; hcharged = Vtime.zero; hengine = t;
                hfresh = fresh }
            in
            f h;
            let fin = Vtime.add start h.hcharged in
            proc.handler_busy_until <- fin;
            if proc.in_chunk then proc.stolen <- Vtime.add proc.stolen h.hcharged;
            schedule t ~at:fin (fun () -> handler_pump t proc)
          end)

let post_handler t ~pid ~at f =
  let proc = t.procs.(pid) in
  schedule t ~at (fun () ->
      if proc.crashed_at = None then begin
        Queue.add f proc.handler_queue;
        if not proc.handler_running then handler_pump t proc
      end)

(* ------------------------------------------------------------------ *)
(* Main loop                                                          *)

let run t =
  while t.stop_reason = None && t.size > 0 do
    let ev = pop t in
    if ev.live then begin
      t.clock <- ev.time;
      t.last_event_time <- ev.time;
      match ev.kind with
      | Thunk f -> f ()
      | Chunk_end proc -> end_chunk t proc
    end
  done;
  if t.stop_reason = None && t.blocked_count > 0 then begin
    (* Report the processes actually suspended on an ivar, not every
       unfinished one: a deadlock under fault injection typically
       strands one waiter while its peers sit in handler loops. *)
    let stuck =
      Array.to_list t.procs
      |> List.filter (fun p -> t.blocked.(p.id))
      |> List.map (fun p -> p.id)
    in
    raise (Deadlock stuck)
  end

let finished t pid = t.procs.(pid).finished_at <> None

let finish_time t pid =
  match t.procs.(pid).finished_at with
  | Some at -> at
  | None -> invalid_arg "Engine.finish_time: process has not finished"

let busy t pid cat = t.procs.(pid).busy.(Category.index cat)

let busy_total t pid = Array.fold_left Vtime.add Vtime.zero t.procs.(pid).busy

let end_time t = t.last_event_time

(* Handler-context emission: the handler's own clock (service start plus
   CPU charged so far) is ahead of the global clock, so events it emits
   are stamped with [hnow], keeping the stream causally ordered per
   processor. *)
let hemit h ev = emit_at h.hengine ~time:(hnow h) ~pid:(hpid h) ev
let htracing h = tracing h.hengine
