(* Sharing-pattern linter.

   LRC's cost model is dominated by {e how} pages are shared, not whether
   the program is correct: false sharing multiplies diffs and write
   notices, fragmented diffs waste messages, and hot locks serialize the
   run (paper §5, and Cudennec's S-DSM study on surfacing access
   patterns).  This analyzer classifies each page per sync interval —
   single-writer / producer-consumer / migratory / falsely-shared /
   true-shared — from the typed accesses, and mines the trace stream for
   diff fragmentation, never-consumed write notices and lock contention.
   Everything here is advisory (warnings and infos): the program is
   correct either way, just slower than it needs to be. *)

module Segments = Tmk_check.Segments
module Hooks = Tmk_check.Hooks
module Bitset = Tmk_util.Bitset

let word_bytes = 8
let page_bytes = 4096
let words_per_page = page_bytes / word_bytes

(* Thresholds that keep the advisory findings out of the noise: a false
   sharing report needs every writer to own at least two words (the Api
   collectives legitimately give each processor one scratch word per
   page); fragmentation needs a real diff stream of small diffs;
   contention needs a lock that is both popular and fought over. *)
let min_words_per_writer = 2

let frag_min_diffs = 8
let frag_max_avg_bytes = 128
let contention_min_acquires = 16
let contention_queue_ratio = 0.5
let notices_min = 16

(* One page's accesses within one barrier generation. *)
type epoch = {
  mutable ep_gen : int;
  ep_writes : Bitset.t option array;  (* per pid, lazily allocated *)
  ep_reads : Bitset.t option array;
}

(* Per-page aggregate over all finished epochs. *)
type page_acc = {
  mutable pa_epochs : int;  (* epochs with at least one access *)
  mutable pa_fs_epochs : int;  (* >=2 writers, pairwise-disjoint words *)
  mutable pa_true_epochs : int;  (* >=2 writers, overlapping words *)
  mutable pa_owners : int list;  (* single-writer owners, newest first, deduped *)
  mutable pa_readers : int list;  (* distinct reading pids *)
  mutable pa_writers : int list;  (* distinct writing pids *)
  mutable pa_fs_words : int;  (* max words involved in one false-sharing epoch *)
}

type lock_acc = { mutable la_acquires : int; mutable la_queued : int }

type trace_page = {
  mutable tp_diffs : int;
  mutable tp_diff_bytes : int;
  mutable tp_notices : int;
  mutable tp_read_faults : int;
}

type t = {
  segs : Segments.t;
  nprocs : int;
  active : (int, epoch) Hashtbl.t;  (* page -> its current epoch *)
  pages : (int, page_acc) Hashtbl.t;
  locks : (int, lock_acc) Hashtbl.t;
  tpages : (int, trace_page) Hashtbl.t;
}

let create ~segs ~nprocs () =
  {
    segs;
    nprocs;
    active = Hashtbl.create 256;
    pages = Hashtbl.create 256;
    locks = Hashtbl.create 16;
    tpages = Hashtbl.create 256;
  }

let page_acc t page =
  match Hashtbl.find_opt t.pages page with
  | Some a -> a
  | None ->
    let a =
      { pa_epochs = 0; pa_fs_epochs = 0; pa_true_epochs = 0; pa_owners = [];
        pa_readers = []; pa_writers = []; pa_fs_words = 0 }
    in
    Hashtbl.add t.pages page a;
    a

let add_pid pid pids = if List.mem pid pids then pids else pid :: pids

let disjoint a b = Bitset.fold (fun w acc -> acc && not (Bitset.mem b w)) a true

(* Fold one finished epoch into the page aggregate. *)
let finalize t page ep =
  let acc = page_acc t page in
  let writers = ref [] and readers = ref [] in
  for pid = 0 to t.nprocs - 1 do
    (match ep.ep_writes.(pid) with
    | Some ws when not (Bitset.is_empty ws) -> writers := pid :: !writers
    | _ -> ());
    match ep.ep_reads.(pid) with
    | Some rs when not (Bitset.is_empty rs) -> readers := pid :: !readers
    | _ -> ()
  done;
  let writers = List.rev !writers and readers = List.rev !readers in
  if writers <> [] || readers <> [] then begin
    acc.pa_epochs <- acc.pa_epochs + 1;
    List.iter (fun p -> acc.pa_readers <- add_pid p acc.pa_readers) readers;
    List.iter (fun p -> acc.pa_writers <- add_pid p acc.pa_writers) writers;
    match writers with
    | [] -> ()
    | [ owner ] -> (
      match acc.pa_owners with
      | o :: _ when o = owner -> ()
      | os -> acc.pa_owners <- owner :: os)
    | _ :: _ :: _ ->
      let sets =
        List.map (fun p -> match ep.ep_writes.(p) with Some s -> s | None -> assert false)
          writers
      in
      let rec pairwise_disjoint = function
        | [] | [ _ ] -> true
        | s :: rest -> List.for_all (disjoint s) rest && pairwise_disjoint rest
      in
      if pairwise_disjoint sets then begin
        if List.for_all (fun s -> Bitset.cardinal s >= min_words_per_writer) sets then begin
          acc.pa_fs_epochs <- acc.pa_fs_epochs + 1;
          let words = List.fold_left (fun n s -> n + Bitset.cardinal s) 0 sets in
          if words > acc.pa_fs_words then acc.pa_fs_words <- words
        end
      end
      else acc.pa_true_epochs <- acc.pa_true_epochs + 1
  end

let fresh_epoch t gen =
  { ep_gen = gen; ep_writes = Array.make t.nprocs None; ep_reads = Array.make t.nprocs None }

let access t ~pid kind ~addr ~width =
  let gen = Segments.generation t.segs in
  let w0 = addr / word_bytes and w1 = (addr + width - 1) / word_bytes in
  for word = w0 to w1 do
    let page = word / words_per_page in
    let ep =
      match Hashtbl.find_opt t.active page with
      | Some ep when ep.ep_gen = gen -> ep
      | Some ep ->
        finalize t page ep;
        let fresh = fresh_epoch t gen in
        Hashtbl.replace t.active page fresh;
        fresh
      | None ->
        let fresh = fresh_epoch t gen in
        Hashtbl.add t.active page fresh;
        fresh
    in
    let slot = match kind with Hooks.Read -> ep.ep_reads | Hooks.Write -> ep.ep_writes in
    let bits =
      match slot.(pid) with
      | Some b -> b
      | None ->
        let b = Bitset.create words_per_page in
        slot.(pid) <- Some b;
        b
    in
    Bitset.add bits (word mod words_per_page)
  done

(* ---- trace listener: fragmentation, dead notices, contention ---- *)

let trace_page t page =
  match Hashtbl.find_opt t.tpages page with
  | Some p -> p
  | None ->
    let p = { tp_diffs = 0; tp_diff_bytes = 0; tp_notices = 0; tp_read_faults = 0 } in
    Hashtbl.add t.tpages page p;
    p

let lock_acc t lock =
  match Hashtbl.find_opt t.locks lock with
  | Some a -> a
  | None ->
    let a = { la_acquires = 0; la_queued = 0 } in
    Hashtbl.add t.locks lock a;
    a

let listen t sink =
  Tmk_trace.Sink.on_record sink (fun { Tmk_trace.Sink.r_ev; _ } ->
      match r_ev with
      | Tmk_trace.Event.Diff_create { page; bytes; _ } ->
        let p = trace_page t page in
        p.tp_diffs <- p.tp_diffs + 1;
        p.tp_diff_bytes <- p.tp_diff_bytes + bytes
      | Tmk_trace.Event.Write_notice_recv { page; _ } ->
        let p = trace_page t page in
        p.tp_notices <- p.tp_notices + 1
      | Tmk_trace.Event.Page_fault { page; kind = Tmk_trace.Event.Read } ->
        let p = trace_page t page in
        p.tp_read_faults <- p.tp_read_faults + 1
      | Tmk_trace.Event.Lock_acquired { lock; _ } ->
        let a = lock_acc t lock in
        a.la_acquires <- a.la_acquires + 1
      | Tmk_trace.Event.Lock_queued { lock; _ } ->
        let a = lock_acc t lock in
        a.la_queued <- a.la_queued + 1
      | _ -> ())

(* ---- classification and findings ---- *)

let flush t = Hashtbl.iter (fun page ep -> finalize t page ep) t.active

let pattern acc =
  if acc.pa_fs_epochs > 0 then "falsely-shared"
  else if acc.pa_true_epochs > 0 then "true-shared"
  else
    match List.sort_uniq compare acc.pa_owners with
    | [] -> "read-only"
    | [ owner ] ->
      if List.exists (fun p -> p <> owner) acc.pa_readers then "producer-consumer"
      else "single-writer"
    | _ :: _ :: _ -> "migratory"

let classification_table t =
  flush t;
  Hashtbl.reset t.active;
  let pids ps = String.concat "," (List.map string_of_int (List.sort_uniq compare ps)) in
  let rows =
    Hashtbl.fold
      (fun page acc rows ->
        if acc.pa_epochs = 0 then rows
        else
          ( page,
            [ string_of_int page; pattern acc; string_of_int acc.pa_epochs;
              pids acc.pa_writers; pids acc.pa_readers ] )
          :: rows)
      t.pages []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  match rows with
  | [] -> "sharing: no shared-page accesses observed"
  | rows ->
    Tmk_util.Tablefmt.render
      ~title:"Page sharing patterns (per barrier interval)"
      ~header:[ "page"; "pattern"; "intervals"; "writers"; "readers" ]
      (List.map snd rows)

let findings t =
  flush t;
  Hashtbl.reset t.active;
  let fs =
    Hashtbl.fold
      (fun page acc fs ->
        if acc.pa_fs_epochs = 0 then fs
        else
          {
            Findings.analyzer = "sharing";
            rule = "false-sharing";
            severity = Findings.Warning;
            page;
            lo = -1;
            hi = -1;
            pids = List.sort_uniq compare acc.pa_writers;
            message =
              Printf.sprintf
                "falsely shared in %d interval(s): processors write disjoint word ranges \
                 (%d words in the worst interval)"
                acc.pa_fs_epochs acc.pa_fs_words;
            hint =
              Printf.sprintf
                "pad per-processor data to the %d-byte page, or split the structure"
                page_bytes;
          }
          :: fs)
      t.pages []
  in
  let frag =
    Hashtbl.fold
      (fun page p fs ->
        if p.tp_diffs >= frag_min_diffs && p.tp_diff_bytes / p.tp_diffs <= frag_max_avg_bytes
        then
          {
            Findings.analyzer = "sharing";
            rule = "diff-fragmentation";
            severity = Findings.Info;
            page;
            lo = -1;
            hi = -1;
            pids = [];
            message =
              Printf.sprintf "%d diffs averaging %d bytes" p.tp_diffs
                (p.tp_diff_bytes / p.tp_diffs);
            hint = "coalesce writes per interval, or batch them under one lock";
          }
          :: fs
        else fs)
      t.tpages []
  in
  let dead =
    Hashtbl.fold
      (fun page p fs ->
        if p.tp_notices >= notices_min && p.tp_read_faults = 0 then
          {
            Findings.analyzer = "sharing";
            rule = "never-read-notices";
            severity = Findings.Info;
            page;
            lo = -1;
            hi = -1;
            pids = [];
            message =
              Printf.sprintf "%d write notices received but the page is never read-faulted"
                p.tp_notices;
            hint = "the writes are never consumed remotely; keep the data private or \
                    reduce with Api.reduce_*";
          }
          :: fs
        else fs)
      t.tpages []
  in
  let contended =
    Hashtbl.fold
      (fun lock a fs ->
        if
          a.la_acquires >= contention_min_acquires
          && float_of_int a.la_queued >= contention_queue_ratio *. float_of_int a.la_acquires
        then
          {
            Findings.analyzer = "sharing";
            rule = "lock-contention";
            severity = Findings.Warning;
            page = -1;
            lo = -1;
            hi = -1;
            pids = [];
            message =
              Printf.sprintf "lock %d: %d of %d acquires queued behind another holder" lock
                a.la_queued a.la_acquires;
            hint = "split the lock, shorten the critical section, or use Api.reduce_* \
                    collectives";
          }
          :: fs
        else fs)
      t.locks []
  in
  List.sort Findings.compare_findings (fs @ frag @ dead @ contended)
