(* Segment clocks: the happens-before skeleton shared by the checkers.

   The program order of each processor is cut into {e segments} at every
   lock acquire, lock release, barrier arrival and barrier departure.
   Happens-before over segments is computed from sync edges only:

   - release of lock [l] -> next acquire of [l].  The simulation runs one
     processor at a time and the protocol enforces mutual exclusion, so
     each lock's critical sections are totally ordered and a single stored
     clock per lock suffices.
   - barrier: all-to-all.  Arrival clocks accumulate per (id, occurrence);
     departure merges the accumulated clock, which is complete because the
     manager releases only after every arrival.

   Extracted from the race detector (PR 4) so the lockset analyzer in
   [lib/lint] can share one clock instance per run instead of keeping a
   second, subtly different notion of ordering. *)

type segment = {
  s_pid : int;
  s_idx : int;  (* 1-based index of this segment in its processor's order *)
  s_open : int array;  (* the processor's clock when the segment opened *)
  s_ctx : string;  (* the synchronization that opened it, for reports *)
  s_locks : int list;  (* locks held while the segment runs *)
}

type t = {
  clock : int array array;  (* clock.(p).(q): segments of q ordered before p's current *)
  seg : segment array;  (* current open segment per processor *)
  held : int list array;
  lock_clock : (int, int array) Hashtbl.t;  (* lock -> releaser's clock *)
  bar_seq : (int * int, int) Hashtbl.t;  (* (id, pid) -> arrivals so far *)
  bar_acc : (int * int, int array) Hashtbl.t;  (* (id, occurrence) -> merged clock *)
  bar_departed : (int * int, unit) Hashtbl.t;  (* (id, occurrence) seen departing *)
  mutable generation : int;  (* barrier generation, see [generation] below *)
}

let create ~nprocs () =
  if nprocs <= 0 then invalid_arg "Segments.create: nprocs must be positive";
  let seg0 pid =
    { s_pid = pid; s_idx = 1; s_open = Array.make nprocs 0; s_ctx = "at start"; s_locks = [] }
  in
  {
    clock = Array.init nprocs (fun _ -> Array.make nprocs 0);
    seg = Array.init nprocs seg0;
    held = Array.make nprocs [];
    lock_clock = Hashtbl.create 16;
    bar_seq = Hashtbl.create 16;
    bar_acc = Hashtbl.create 16;
    bar_departed = Hashtbl.create 16;
    generation = 0;
  }

let current t pid = t.seg.(pid)
let held t pid = t.held.(pid)
let generation t = t.generation

let max_into src dst =
  Array.iteri (fun i v -> if v > dst.(i) then dst.(i) <- v) src

(* [s] happened before [cur] iff they share a processor (program order) or
   [cur]'s opening clock already covers [s]. *)
let ordered s cur = s.s_pid = cur.s_pid || cur.s_open.(s.s_pid) >= s.s_idx

let close_segment t pid =
  let c = t.clock.(pid) in
  c.(pid) <- c.(pid) + 1

let open_segment t pid ctx =
  t.seg.(pid) <-
    {
      s_pid = pid;
      s_idx = t.clock.(pid).(pid) + 1;
      s_open = Array.copy t.clock.(pid);
      s_ctx = ctx;
      s_locks = t.held.(pid);
    }

(* Barrier ids at and above 2^30 are the Api collectives' reserved range
   (reduce/bcast); name them as such rather than leaking raw ids. *)
let barrier_name id =
  if id >= 1 lsl 30 then Printf.sprintf "collective %d" (id - (1 lsl 30))
  else Printf.sprintf "barrier %d" id

let lock_release t ~pid ~lock =
  close_segment t pid;
  Hashtbl.replace t.lock_clock lock (Array.copy t.clock.(pid));
  t.held.(pid) <- List.filter (fun l -> l <> lock) t.held.(pid);
  open_segment t pid (Printf.sprintf "after releasing lock %d" lock)

let lock_acquired t ~pid ~lock =
  close_segment t pid;
  (match Hashtbl.find_opt t.lock_clock lock with
  | Some c -> max_into c t.clock.(pid)
  | None -> ());
  t.held.(pid) <- lock :: t.held.(pid);
  open_segment t pid (Printf.sprintf "holding lock %d" lock)

let barrier_arrive t ~pid ~id =
  close_segment t pid;
  let occ = try Hashtbl.find t.bar_seq (id, pid) with Not_found -> 0 in
  Hashtbl.replace t.bar_seq (id, pid) (occ + 1);
  (match Hashtbl.find_opt t.bar_acc (id, occ) with
  | Some acc -> max_into t.clock.(pid) acc
  | None -> Hashtbl.add t.bar_acc (id, occ) (Array.copy t.clock.(pid)));
  open_segment t pid (Printf.sprintf "arriving at %s" (barrier_name id))

let barrier_depart t ~pid ~id =
  close_segment t pid;
  let occ = (try Hashtbl.find t.bar_seq (id, pid) with Not_found -> 1) - 1 in
  (match Hashtbl.find_opt t.bar_acc (id, occ) with
  | Some acc -> max_into acc t.clock.(pid)
  | None -> ());
  (* The generation bumps once per barrier occurrence, at its first
     departure.  Every arrival precedes every departure of an occurrence
     in simulation order and a blocked processor makes no accesses, so no
     access can fall between two departures of the same occurrence: the
     generation splits the accesses of a run into barrier epochs. *)
  if not (Hashtbl.mem t.bar_departed (id, occ)) then begin
    Hashtbl.add t.bar_departed (id, occ) ();
    t.generation <- t.generation + 1
  end;
  open_segment t pid (Printf.sprintf "after %s" (barrier_name id))
