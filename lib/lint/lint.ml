(* The sanitizer-suite driver.

   One [Lint.t] per run: it owns a private segment-clock instance, fans
   the checker hook events out to the enabled analyzers, listens on the
   trace stream, and at the end merges every analyzer's findings into the
   unified model — deduplicating the lockset analyzer's potential races
   against the happens-before detector's confirmed ones, and feeding the
   lockset's racy words to the discipline analyzer's unsynchronized-shadow
   check.  Wire it into a run with:

     let lint = Lint.create ~nprocs () in
     let check = Checker.create ~race ~hooks:[Lint.hooks lint]
                   ~attach:[Lint.attach lint] () in
     ... run ...
     print_string (Lint.report ~race lint) *)

module Hooks = Tmk_check.Hooks
module Segments = Tmk_check.Segments

type analyzer = Lockset | Sharing | Discipline

let all_analyzers = [ Lockset; Sharing; Discipline ]

let analyzers_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "" | "all" -> all_analyzers
  | s ->
    String.split_on_char ',' s
    |> List.map (fun name ->
           match String.trim name with
           | "lockset" -> Lockset
           | "sharing" -> Sharing
           | "discipline" -> Discipline
           | other ->
             invalid_arg
               (Printf.sprintf
                  "Lint.analyzers_of_string: unknown analyzer %S (valid: lockset, \
                   sharing, discipline)"
                  other))

type t = {
  segs : Segments.t;
  suppress : int array;
  lockset : Lockset.t option;
  sharing : Sharing.t option;
  discipline : Discipline.t option;
}

let create ?(analyzers = all_analyzers) ~nprocs () =
  let segs = Segments.create ~nprocs () in
  let on a = List.mem a analyzers in
  {
    segs;
    suppress = Array.make nprocs 0;
    lockset = (if on Lockset then Some (Lockset.create ~segs ()) else None);
    sharing = (if on Sharing then Some (Sharing.create ~segs ~nprocs ()) else None);
    discipline = (if on Discipline then Some (Discipline.create ~nprocs ()) else None);
  }

let hooks t =
  {
    Hooks.h_access =
      (fun ~pid kind ~addr ~width ->
        if t.suppress.(pid) = 0 then begin
          (match t.lockset with
          | Some ls -> Lockset.access ls ~pid kind ~addr ~width
          | None -> ());
          match t.sharing with
          | Some sh -> Sharing.access sh ~pid kind ~addr ~width
          | None -> ()
        end;
        (* The discipline analyzer filters internally: it records
           suppressed accesses for the shadow cross-reference. *)
        match t.discipline with
        | Some d -> Discipline.access d ~pid kind ~addr ~width
        | None -> ());
    h_lock_acquired =
      (fun ~pid ~lock ->
        Segments.lock_acquired t.segs ~pid ~lock;
        match t.discipline with
        | Some d -> Discipline.lock_acquired d ~pid ~lock
        | None -> ());
    h_lock_release =
      (fun ~pid ~lock ->
        Segments.lock_release t.segs ~pid ~lock;
        match t.discipline with
        | Some d -> Discipline.lock_release d ~pid ~lock
        | None -> ());
    h_barrier_arrive = (fun ~pid ~id -> Segments.barrier_arrive t.segs ~pid ~id);
    h_barrier_depart = (fun ~pid ~id -> Segments.barrier_depart t.segs ~pid ~id);
    h_suppress =
      (fun ~pid on ->
        t.suppress.(pid) <- (t.suppress.(pid) + if on then 1 else -1);
        match t.discipline with
        | Some d -> Discipline.suppress d ~pid on
        | None -> ());
  }

let attach t sink =
  match t.sharing with Some sh -> Sharing.listen sh sink | None -> ()

(* Convert the HB detector's confirmed races into the unified model, so
   one report carries both — and so the lockset's potential races can be
   deduplicated against them. *)
let kind_name = function Tmk_check.Race.Read -> "R" | Tmk_check.Race.Write -> "W"

let of_hb (f : Tmk_check.Race.finding) =
  {
    Findings.analyzer = "hb";
    rule = "data-race";
    severity = Findings.Error;
    page = f.Tmk_check.Race.f_page;
    lo = f.f_lo;
    hi = f.f_hi;
    pids = List.sort_uniq compare [ f.f_first_pid; f.f_second_pid ];
    message =
      Printf.sprintf "confirmed race: p%d %s (%s) vs p%d %s (%s), %d pair(s)"
        f.f_first_pid (kind_name f.f_first_kind) f.f_first_ctx f.f_second_pid
        (kind_name f.f_second_kind) f.f_second_ctx f.f_pairs;
    hint = f.f_hint;
  }

let findings ?race t =
  let hb =
    match race with
    | Some r -> List.map of_hb (Tmk_check.Race.findings r)
    | None -> []
  in
  let overlaps (a : Findings.t) (b : Findings.t) =
    a.Findings.page = b.Findings.page && a.lo <= b.hi && b.lo <= a.hi
  in
  let lockset =
    match t.lockset with
    | Some ls ->
      (* A potential race the schedule actually exposed is already
         reported (better) by the HB detector; keep the lockset row only
         when it says something HB could not. *)
      List.filter (fun f -> not (List.exists (overlaps f) hb)) (Lockset.findings ls)
    | None -> []
  in
  let racy_words =
    match t.lockset with Some ls -> Lockset.racy_words ls | None -> []
  in
  let discipline =
    match t.discipline with
    | Some d -> Discipline.findings ~racy_words d
    | None -> []
  in
  let sharing = match t.sharing with Some sh -> Sharing.findings sh | None -> [] in
  Findings.sort_dedup (hb @ lockset @ sharing @ discipline)

(* The sharing classification is a summary, not findings: correct
   single-writer pages are worth seeing too. *)
let classification_table t = Option.map Sharing.classification_table t.sharing

let report ?race t =
  let fs = findings ?race t in
  let b = Buffer.create 1024 in
  Buffer.add_string b (Findings.table fs);
  (match classification_table t with
  | Some table ->
    Buffer.add_string b "\n\n";
    Buffer.add_string b table
  | None -> ());
  Buffer.contents b
