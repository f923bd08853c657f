(* Happens-before data-race detector.

   TreadMarks only promises sequential consistency for data-race-free
   programs (§2): two conflicting accesses from different processors must
   be ordered by the lock/barrier synchronization the protocol sees.  The
   detector checks exactly that, with its own bookkeeping rather than the
   protocol's: the protocol's vector timestamps advance lazily (an interval
   closes only when the processor has dirtied pages), so they under-count
   synchronization and cannot serve directly as the happens-before clock.

   The segment-clock machinery (program order cut at sync operations,
   happens-before from release→acquire and barrier edges) lives in
   [Segments]; it is shared with the lockset analyzer in [lib/lint].

   Accesses are checked online against a per-word frontier (the FastTrack
   idea): each 8-byte word keeps its last writer segment and at most one
   reader segment per processor (a same-processor older reader is ordered
   before the newer one by program order, so it can be dropped).  This
   keeps the cost per access O(readers) instead of comparing interval
   pairs quadratically at barriers. *)

type kind = Hooks.access_kind = Read | Write

type segment = Segments.segment

type finding = {
  f_page : int;
  mutable f_lo : int;  (* byte range within the page, word-granular *)
  mutable f_hi : int;
  f_first_pid : int;
  f_first_kind : kind;
  f_first_ctx : string;
  f_second_pid : int;
  f_second_kind : kind;
  f_second_ctx : string;
  f_hint : string;  (* the synchronization that would have ordered them *)
  mutable f_pairs : int;  (* distinct access pairs merged into this row *)
}

type cell = { mutable c_writer : segment option; mutable c_readers : segment list }

type t = {
  nprocs : int;
  pages : int;
  segs : Segments.t;
  suppress : int array;  (* Api.unsynchronized nesting depth *)
  words : (int, cell) Hashtbl.t;
  races : (int * int * int * kind * kind, finding) Hashtbl.t;
  mutable npairs : int;
  mutable accesses : int;
}

let word_bytes = 8

let create ~nprocs ~pages () =
  if nprocs <= 0 then invalid_arg "Race.create: nprocs must be positive";
  if pages <= 0 then invalid_arg "Race.create: pages must be positive";
  {
    nprocs;
    pages;
    segs = Segments.create ~nprocs ();
    suppress = Array.make nprocs 0;
    words = Hashtbl.create 4096;
    races = Hashtbl.create 16;
    npairs = 0;
    accesses = 0;
  }

let nprocs t = t.nprocs
let pages t = t.pages

let min_lock = function [] -> None | l :: ls -> Some (List.fold_left min l ls)

let hint (first : segment) (second : segment) =
  match (min_lock first.Segments.s_locks, min_lock second.Segments.s_locks) with
  | Some l, _ ->
    Printf.sprintf "lock %d held by p%d but not by p%d" l first.Segments.s_pid
      second.Segments.s_pid
  | None, Some l ->
    Printf.sprintf "lock %d held by p%d but not by p%d" l second.Segments.s_pid
      first.Segments.s_pid
  | None, None -> "no common lock; a lock or an intervening barrier must order them"

let record t word ~(first : segment) ~fk ~(second : segment) ~sk =
  let page = word * word_bytes / 4096 in
  let lo = word * word_bytes mod 4096 in
  let hi = lo + word_bytes - 1 in
  t.npairs <- t.npairs + 1;
  let key = (page, first.Segments.s_pid, second.Segments.s_pid, fk, sk) in
  match Hashtbl.find_opt t.races key with
  | Some f ->
    f.f_lo <- min f.f_lo lo;
    f.f_hi <- max f.f_hi hi;
    f.f_pairs <- f.f_pairs + 1
  | None ->
    let f =
      {
        f_page = page;
        f_lo = lo;
        f_hi = hi;
        f_first_pid = first.Segments.s_pid;
        f_first_kind = fk;
        f_first_ctx = first.Segments.s_ctx;
        f_second_pid = second.Segments.s_pid;
        f_second_kind = sk;
        f_second_ctx = second.Segments.s_ctx;
        f_hint = hint first second;
        f_pairs = 1;
      }
    in
    Hashtbl.add t.races key f

let cell_of t word =
  match Hashtbl.find_opt t.words word with
  | Some c -> c
  | None ->
    let c = { c_writer = None; c_readers = [] } in
    Hashtbl.add t.words word c;
    c

let note_access t ~pid kind ~addr ~width =
  if t.suppress.(pid) = 0 then begin
    t.accesses <- t.accesses + 1;
    let seg = Segments.current t.segs pid in
    let ordered = Segments.ordered in
    let w0 = addr / word_bytes and w1 = (addr + width - 1) / word_bytes in
    for word = w0 to w1 do
      let cell = cell_of t word in
      match kind with
      | Read ->
        (match cell.c_writer with
        | Some ws when not (ordered ws seg) ->
          record t word ~first:ws ~fk:Write ~second:seg ~sk:Read
        | _ -> ());
        (match cell.c_readers with
        | s :: _ when s == seg -> ()
        | rs ->
          cell.c_readers <- seg :: List.filter (fun s -> s.Segments.s_pid <> pid) rs)
      | Write ->
        (match cell.c_writer with
        | Some ws when not (ordered ws seg) ->
          record t word ~first:ws ~fk:Write ~second:seg ~sk:Write
        | _ -> ());
        List.iter
          (fun rs ->
            if rs.Segments.s_pid <> pid && not (ordered rs seg) then
              record t word ~first:rs ~fk:Read ~second:seg ~sk:Write)
          cell.c_readers;
        cell.c_writer <- Some seg;
        cell.c_readers <- []
    done
  end

let hooks t =
  {
    Hooks.h_access = note_access t;
    h_lock_acquired = Segments.lock_acquired t.segs;
    h_lock_release = Segments.lock_release t.segs;
    h_barrier_arrive = Segments.barrier_arrive t.segs;
    h_barrier_depart = Segments.barrier_depart t.segs;
    h_suppress =
      (fun ~pid on -> t.suppress.(pid) <- (t.suppress.(pid) + if on then 1 else -1));
  }

let kind_rank = function Read -> 0 | Write -> 1

(* Canonical order, not discovery order: (page, byte range, pids, kinds).
   Discovery order is deterministic for one run but differs across
   backends and schedules that find the same races; the canonical sort
   makes the report a function of the finding set alone, so equal finding
   sets render byte-identically under any --jobs setting or backend. *)
let compare_findings a b =
  let cmp =
    List.find_opt (fun c -> c <> 0)
      [
        compare a.f_page b.f_page;
        compare a.f_lo b.f_lo;
        compare a.f_hi b.f_hi;
        compare a.f_first_pid b.f_first_pid;
        compare a.f_second_pid b.f_second_pid;
        compare (kind_rank a.f_first_kind) (kind_rank b.f_first_kind);
        compare (kind_rank a.f_second_kind) (kind_rank b.f_second_kind);
      ]
  in
  match cmp with Some c -> c | None -> 0

let findings t =
  List.sort compare_findings (Hashtbl.fold (fun _ f acc -> f :: acc) t.races [])

let has_findings t = Hashtbl.length t.races > 0

let kind_name = function Read -> "R" | Write -> "W"

let report t =
  if not (has_findings t) then
    Printf.sprintf
      "race check: no unordered conflicting accesses (%d accesses, %d shared words tracked)"
      t.accesses (Hashtbl.length t.words)
  else begin
    let rows =
      List.map
        (fun f ->
          [
            string_of_int f.f_page;
            Printf.sprintf "%d..%d" f.f_lo f.f_hi;
            Printf.sprintf "%s/%s" (kind_name f.f_first_kind) (kind_name f.f_second_kind);
            Printf.sprintf "p%d %s" f.f_first_pid f.f_first_ctx;
            Printf.sprintf "p%d %s" f.f_second_pid f.f_second_ctx;
            string_of_int f.f_pairs;
            f.f_hint;
          ])
        (findings t)
    in
    Printf.sprintf "race check: %d distinct race(s), %d conflicting access pair(s)\n\n%s"
      (Hashtbl.length t.races) t.npairs
      (Tmk_util.Tablefmt.render
         ~title:"Data races (conflicting accesses unordered by happens-before)"
         ~header:[ "page"; "bytes"; "kind"; "first access"; "second access"; "pairs"; "ordering fix" ]
         rows)
  end
