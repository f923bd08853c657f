(* Eraser-style lockset race detection (Savage et al., SOSP '97), adapted
   to a barrier-synchronized SPMD DSM.

   The happens-before detector in [lib/check/race.ml] is complete for the
   observed schedule: it reports a race only if no sync chain ordered the
   two accesses {e in this run}.  A program can still be racy and get
   lucky — a lock chain that happens to order an unprotected write after
   the reads it conflicts with leaves HB silent.  The lockset discipline
   is schedule-insensitive: every shared word must be protected by some
   fixed lock on every access, and a word whose candidate set goes empty
   is a {e potential} race whatever the schedule did.

   Per 8-byte word, the classic state machine with two DSM adaptations:

   - {b Barrier generations} (from [Segments.generation]).  Barriers here
     are global and all-to-all, so a word's discipline restarts at each
     barrier: a cell whose generation is stale resets to Virgin.  Without
     this, the SPMD phase structure (write a page this epoch, others read
     it after the barrier) would drain every candidate set.
   - {b Happens-before ownership transfer}.  In the Exclusive state an
     access by another processor that is HB-ordered after the owner's
     last access transfers ownership instead of demoting the word: that
     is lock-mediated handoff (a task popped from a locked work queue),
     which Eraser famously false-positives on.  Once a word has
     {e concurrent} readers (an unordered read) it enters Shared, and
     from there the discipline is pure lockset: a write with an empty
     candidate set is reported even if the schedule ordered it, which is
     exactly the "ordered by luck" case HB misses (the racey2 fixture). *)

module Segments = Tmk_check.Segments
module Hooks = Tmk_check.Hooks

let word_bytes = 8
let page_bytes = 4096

type state =
  | Exclusive of { mutable e_seg : Segments.segment; mutable e_locks : int list }
  | Shared of { mutable s_cands : int list }  (* candidate lock set, sorted *)
  | Shared_mod of { mutable m_cands : int list }

type cell = {
  mutable c_state : state;
  mutable c_gen : int;
  mutable c_readers : int list;  (* pids seen this generation, small distinct *)
  mutable c_writers : int list;
  mutable c_reported : bool;  (* once per word per generation *)
}

type racy = { r_word : int; r_writers : int list; r_readers : int list }

type t = {
  segs : Segments.t;
  words : (int, cell) Hashtbl.t;
  mutable racy : racy list;
}

let create ~segs () = { segs; words = Hashtbl.create 4096; racy = [] }

let inter a b = List.filter (fun l -> List.mem l b) a

let add_pid pid pids = if List.mem pid pids then pids else pid :: pids

let report t word cell =
  if not cell.c_reported then begin
    cell.c_reported <- true;
    t.racy <-
      {
        r_word = word;
        r_writers = List.sort_uniq compare cell.c_writers;
        r_readers = List.sort_uniq compare cell.c_readers;
      }
      :: t.racy
  end

let access t ~pid kind ~addr ~width =
  let seg = Segments.current t.segs pid in
  let locks = List.sort_uniq compare (Segments.held t.segs pid) in
  let gen = Segments.generation t.segs in
  let w0 = addr / word_bytes and w1 = (addr + width - 1) / word_bytes in
  for word = w0 to w1 do
    let cell =
      match Hashtbl.find_opt t.words word with
      | Some c when c.c_gen = gen -> c
      | Some c ->
        (* Stale generation: at least one all-to-all barrier separates
           every prior access from this one — back to Virgin. *)
        c.c_state <- Exclusive { e_seg = seg; e_locks = locks };
        c.c_gen <- gen;
        c.c_readers <- [];
        c.c_writers <- [];
        c.c_reported <- false;
        c
      | None ->
        let c =
          {
            c_state = Exclusive { e_seg = seg; e_locks = locks };
            c_gen = gen;
            c_readers = [];
            c_writers = [];
            c_reported = false;
          }
        in
        Hashtbl.add t.words word c;
        c
    in
    (match kind with
    | Hooks.Read -> cell.c_readers <- add_pid pid cell.c_readers
    | Hooks.Write -> cell.c_writers <- add_pid pid cell.c_writers);
    match cell.c_state with
    | Exclusive e ->
      if e.e_seg.Segments.s_pid = pid then begin
        e.e_seg <- seg;
        e.e_locks <- locks
      end
      else if Segments.ordered e.e_seg seg then begin
        (* Lock-mediated handoff: the new processor is ordered after the
           owner's last access, so it inherits exclusive ownership. *)
        e.e_seg <- seg;
        e.e_locks <- locks
      end
      else begin
        let cands = inter e.e_locks locks in
        match kind with
        | Hooks.Read -> cell.c_state <- Shared { s_cands = cands }
        | Hooks.Write ->
          cell.c_state <- Shared_mod { m_cands = cands };
          if cands = [] then report t word cell
      end
    | Shared s -> (
      let cands = inter s.s_cands locks in
      match kind with
      | Hooks.Read -> s.s_cands <- cands
      | Hooks.Write ->
        cell.c_state <- Shared_mod { m_cands = cands };
        if cands = [] then report t word cell)
    | Shared_mod m ->
      m.m_cands <- inter m.m_cands locks;
      if m.m_cands = [] then report t word cell
  done

(* A sorted list of racy words, for the discipline analyzer's
   unsynchronized-shadow cross-reference and the HB dedup. *)
let racy_words t = List.sort_uniq compare (List.map (fun r -> r.r_word) t.racy)

(* One finding per (page, writers, readers), byte range widened over the
   racy words it covers — mirroring the HB report's merge so the two read
   side by side. *)
let findings t =
  let merged = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let page = r.r_word * word_bytes / page_bytes in
      let lo = r.r_word * word_bytes mod page_bytes in
      let hi = lo + word_bytes - 1 in
      let key = (page, r.r_writers, r.r_readers) in
      match Hashtbl.find_opt merged key with
      | Some (lo', hi', count) ->
        Hashtbl.replace merged key (min lo lo', max hi hi', count + 1)
      | None -> Hashtbl.add merged key (lo, hi, 1))
    t.racy;
  Hashtbl.fold
    (fun (page, writers, readers) (lo, hi, count) acc ->
      let pids = List.sort_uniq compare (writers @ readers) in
      let part role = function
        | [] -> []
        | ps -> [ role ^ " " ^ String.concat "," (List.map (Printf.sprintf "p%d") ps) ]
      in
      {
        Findings.analyzer = "lockset";
        rule = "lockset-race";
        severity = Findings.Error;
        page;
        lo;
        hi;
        pids;
        message =
          Printf.sprintf "potential race: no common lock protects %d word(s) (%s)" count
            (String.concat "; " (part "writers" writers @ part "readers" readers));
        hint = "protect every path with one lock, or separate the phases with a barrier";
      }
      :: acc)
    merged []
  |> List.sort Findings.compare_findings
