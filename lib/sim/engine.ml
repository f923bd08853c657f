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
  busy : Vtime.t array;  (* indexed by Category.index *)
  mutable handler_busy_until : Vtime.t;
  mutable handler_running : bool;
  handler_queue : (hctx -> unit) Queue.t;
  mutable hcur : hctx;  (* the handler running now, or [no_handler] *)
  mutable hcharge : Category.t -> Vtime.t -> unit;
      (* charges [hcur]; built once by [create] *)
  mutable in_chunk : bool;
  mutable stolen : Vtime.t;  (* handler CPU stolen from the current chunk *)
  mutable chunk_time : Vtime.t;
      (* the end of the current computation chunk.  A processor never has
         two chunks pending, so its chunk end has one fixed heap slot,
         [chunk_slot id], pushed again for every chunk and every
         stolen-time extension. *)
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
  hpid : pid;
  hstart : Vtime.t;
  mutable hcharged : Vtime.t;
  hengine : t;
  hfresh : bool;
}

(* The event queue is a binary min-heap of [size] entries ordered by
   [(time, seq)], kept in three int arrays: [times], [seqs] and [slots].
   [seq] is the push order, so entries at equal times fire FIFO.  Moving
   an entry stores only ints, so no sift step goes through the write
   barrier.  An entry's slot is a processor's chunk end ([chunk_slot pid],
   negative) or a thunk slot [s >= 0], which is live while [gen.(s)]
   holds the entry's seq; then [thunks.(s)] runs when the entry pops.  A
   thunk slot goes back to [free] when its entry fires or is cancelled,
   and its next occupant takes a later seq, so a stale entry or cancel
   handle finds it dead. *)
and t = {
  procs : proc array;
  mutable times : Vtime.t array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable size : int;
  mutable next_seq : int;
  mutable thunks : (unit -> unit) array;
  mutable gen : int array;  (* the seq of the slot's entry, or [-1] *)
  mutable free : int array;  (* a stack of the free thunk slots *)
  mutable nfree : int;
  mutable clock : Vtime.t;
  mutable last_event_time : Vtime.t;
  mutable running_pid : pid;  (* the process executing now, or [-1] *)
  blocked : bool array;  (* per-pid: process suspended on an ivar *)
  mutable blocked_count : int;
  mutable sink : Tmk_trace.Sink.t option;
  mutable stop_reason : string option;
}

(* The heap slot of [pid]'s chunk end; [chunk_slot] is its own inverse. *)
let chunk_slot pid = -1 - pid

let of_procs procs =
  {
    procs;
    times = [||];
    seqs = [||];
    slots = [||];
    size = 0;
    next_seq = 0;
    thunks = [||];
    gen = [||];
    free = [||];
    nfree = 0;
    clock = Vtime.zero;
    last_event_time = Vtime.zero;
    running_pid = -1;
    blocked = Array.make (Array.length procs) false;
    blocked_count = 0;
    sink = None;
    stop_reason = None;
  }

(* The [hcur] of a processor with no handler running. *)
let no_handler =
  { hpid = -1; hstart = Vtime.zero; hcharged = Vtime.zero; hengine = of_procs [||];
    hfresh = false }

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

let charge proc cat dt =
  if dt < 0 then invalid_arg "Engine: negative time charge";
  proc.busy.(Category.index cat) <- Vtime.add proc.busy.(Category.index cat) dt

(* A processor's [hcharge] callback.  Handlers on one processor run one
   at a time and never suspend, so one callback per processor serves
   them all. *)
let charge_handler proc cat dt =
  let h = proc.hcur in
  if h == no_handler then invalid_arg "Engine.hcharge: the handler has returned";
  charge proc cat dt;
  h.hcharged <- Vtime.add h.hcharged dt

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
        busy = Array.make Category.count Vtime.zero;
        handler_busy_until = Vtime.zero;
        handler_running = false;
        handler_queue = Queue.create ();
        hcur = no_handler;
        hcharge = (fun _ _ -> ());
        in_chunk = false;
        stolen = Vtime.zero;
        chunk_time = Vtime.zero;
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
    proc.hcharge <- (fun cat dt -> charge_handler proc cat dt);
    proc.sec_charge <- (fun cat dt -> add_section_charge proc cat dt);
    proc
  in
  of_procs (Array.init nprocs make_proc)

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

(* Entry [i] comes before [(time, seq)]. *)
let[@inline] before t i time seq =
  let ti = t.times.(i) in
  ti < time || (ti = time && t.seqs.(i) < seq)

let[@inline] move t ~src ~dst =
  t.times.(dst) <- t.times.(src);
  t.seqs.(dst) <- t.seqs.(src);
  t.slots.(dst) <- t.slots.(src)

(* The hole at [i] a pushed entry at [time] sifts up to.  The entry has
   the largest seq yet, so it passes only strictly later times. *)
let rec sift_up t time i =
  let parent = (i - 1) / 2 in
  if i > 0 && time < t.times.(parent) then begin
    move t ~src:parent ~dst:i;
    sift_up t time parent
  end
  else i

(* The hole at [i] the entry [(time, seq)] sifts down to in a heap of [n]
   entries. *)
let rec sift_down t n time seq i =
  let l = (2 * i) + 1 in
  if l >= n then i
  else
    let c = if l + 1 < n && before t (l + 1) t.times.(l) t.seqs.(l) then l + 1 else l in
    if before t c time seq then begin
      move t ~src:c ~dst:i;
      sift_down t n time seq c
    end
    else i

let grow a fill =
  let n = Array.length a in
  let b = Array.make (if n = 0 then 16 else 2 * n) fill in
  Array.blit a 0 b 0 n;
  b

let push t time slot =
  let n = t.size in
  if n = Array.length t.times then begin
    t.times <- grow t.times 0;
    t.seqs <- grow t.seqs 0;
    t.slots <- grow t.slots 0
  end;
  let i = sift_up t time n in
  t.times.(i) <- time;
  t.seqs.(i) <- t.next_seq;
  t.slots.(i) <- slot;
  t.next_seq <- t.next_seq + 1;
  t.size <- n + 1

(* Drops the earliest entry.  Only called on a non-empty queue. *)
let pop t =
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let time = t.times.(n) and seq = t.seqs.(n) and slot = t.slots.(n) in
    let i = sift_down t n time seq 0 in
    t.times.(i) <- time;
    t.seqs.(i) <- seq;
    t.slots.(i) <- slot
  end

let push_chunk_end t proc = push t proc.chunk_time (chunk_slot proc.id)

let release t slot =
  t.thunks.(slot) <- ignore;
  t.gen.(slot) <- -1;
  t.free.(t.nfree) <- slot;
  t.nfree <- t.nfree + 1

(* Schedules [f] at [at] and returns its slot. *)
let enqueue t ~at f =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule: time %d is before now %d" at t.clock);
  if t.nfree = 0 then begin
    let n = Array.length t.thunks in
    t.thunks <- grow t.thunks ignore;
    t.gen <- grow t.gen (-1);
    t.free <- grow t.free 0;
    for slot = Array.length t.thunks - 1 downto n do
      t.free.(t.nfree) <- slot;
      t.nfree <- t.nfree + 1
    done
  end;
  t.nfree <- t.nfree - 1;
  let slot = t.free.(t.nfree) in
  t.thunks.(slot) <- f;
  t.gen.(slot) <- t.next_seq;
  push t at slot;
  slot

let schedule t ~at f = ignore (enqueue t ~at f : int)

(* A cancelled event is skipped by the main loop without advancing the
   clock or the makespan: a retransmission timer whose ack already landed
   must not stretch the run's end time past the last real event.  The
   handle cancels only while the slot holds its entry: once the entry
   fired or was cancelled, the slot may hold a later event. *)
let schedule_cancellable t ~at f =
  let seq = t.next_seq in
  let slot = enqueue t ~at f in
  fun () -> if t.gen.(slot) = seq then release t slot

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
  if t.running_pid < 0 then invalid_arg "Engine.section: not in process context";
  let proc = t.procs.(t.running_pid) in
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
    result

(* Start the chunk of the section's next charge at [t.clock], as the
   process would if resumed to [advance] it; the caller pushes the chunk
   end.  A chunk end strictly earlier than every queued event is the main
   loop's next pop, unless a stop was requested, and no handler can run
   inside its chunk, so its push and pop are skipped: its time becomes the
   clock, and it takes the seq its push would have taken.  The last
   charge's chunk end is always pushed, so the process resumes when it
   pops, as after an advance. *)
let rec section_charge t proc =
  let i = proc.sec_next in
  let dt = proc.sec_dts.(i) in
  charge proc proc.sec_cats.(i) dt;
  proc.sec_next <- i + 1;
  proc.chunk_time <- Vtime.add t.clock dt;
  if
    proc.sec_next < proc.sec_len
    && t.stop_reason = None
    && (t.size = 0 || proc.chunk_time < t.times.(0))
  then begin
    t.next_seq <- t.next_seq + 1;
    t.clock <- proc.chunk_time;
    t.last_event_time <- proc.chunk_time;
    section_charge t proc
  end

(* Resume the process suspended in [proc]'s chunk.  The continue is a tail
   call, so a process resumed by [hand_off] leaves no frame behind. *)
let resume t proc =
  let k = proc.chunk_k in
  assert (k != no_k);
  proc.chunk_k <- no_k;
  proc.in_chunk <- false;
  t.running_pid <- proc.id;
  Effect.Deep.continue k ()

(* [proc]'s chunk end, when it pops, resumes the process: no crash, no
   stolen time and no section charges left. *)
let[@inline] resumes proc =
  proc.crashed_at = None && proc.stolen = Vtime.zero && proc.sec_next >= proc.sec_len

(* A computation chunk ends at its nominal time plus whatever handler CPU
   was stolen meanwhile; stolen time can itself be extended, so the chunk
   end is pushed again until no new theft occurred.  Then a section with
   charges left starts the next one instead of resuming the process. *)
let end_chunk t proc =
  if resumes proc then begin
    resume t proc;
    t.running_pid <- -1
  end
  else if proc.crashed_at <> None then proc.chunk_k <- no_k
  else if proc.stolen > Vtime.zero then begin
    proc.chunk_time <- Vtime.add proc.chunk_time proc.stolen;
    proc.stolen <- Vtime.zero;
    push_chunk_end t proc
  end
  else begin
    section_charge t proc;
    push_chunk_end t proc
  end

(* Called by a process's handler once the process has suspended in a
   chunk: if the earliest entry is a chunk end that [resumes], and no
   stop was requested, pop it and resume that process here, as the main
   loop would next.  Anything else goes back to the main loop. *)
let hand_off t =
  let slot = t.slots.(0) in
  if slot < 0 && t.stop_reason = None then begin
    let proc = t.procs.(chunk_slot slot) and time = t.times.(0) in
    if resumes proc then begin
      pop t;
      t.clock <- time;
      t.last_event_time <- time;
      resume t proc
    end
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
     end's time.  It queues the chunk end, then hands off. *)
  let on_advance =
    Some
      (fun k ->
        proc.chunk_k <- k;
        proc.in_chunk <- true;
        proc.stolen <- Vtime.zero;
        push_chunk_end t proc;
        hand_off t)
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
              proc.chunk_time <- Vtime.add t.clock dt;
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
                              t.running_pid <- pid;
                              continue k v;
                              t.running_pid <- -1
                            end)
                    in
                    iv.Ivar.state <- Ivar.Empty (waiter :: waiters))
            | _ -> None);
      }
  in
  schedule t ~at:Vtime.zero (fun () ->
      if proc.crashed_at = None then begin
        t.running_pid <- pid;
        body ();
        t.running_pid <- -1
      end)

(* ------------------------------------------------------------------ *)
(* Handlers                                                           *)

let hcharge h =
  let proc = h.hengine.procs.(h.hpid) in
  if proc.hcur != h then invalid_arg "Engine.hcharge: the handler has returned";
  proc.hcharge

let hnow h = Vtime.add h.hstart h.hcharged
let hpid h = h.hpid
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
              { hpid = proc.id; hstart = start; hcharged = Vtime.zero; hengine = t;
                hfresh = fresh }
            in
            proc.hcur <- h;
            f h;
            proc.hcur <- no_handler;
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
    let time = t.times.(0) and seq = t.seqs.(0) and slot = t.slots.(0) in
    pop t;
    if slot < 0 || t.gen.(slot) = seq then begin
      t.clock <- time;
      t.last_event_time <- time;
      if slot < 0 then end_chunk t t.procs.(chunk_slot slot)
      else begin
        let f = t.thunks.(slot) in
        release t slot;
        f ()
      end
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
