(* The unified findings model every analyzer reports through.

   One record shape, one severity scale, one canonical order — so the
   human table, the JSONL stream and the SARIF file are all views of the
   same sorted list, and "lint-clean" has a single meaning (no
   error-severity findings) across analyzers and backends. *)

type severity = Info | Warning | Error

type t = {
  analyzer : string;  (* "lockset" | "sharing" | "discipline" | "hb" *)
  rule : string;  (* stable rule id, e.g. "lockset-race" *)
  severity : severity;
  page : int;  (* -1 when the finding is not page-scoped (a lock, say) *)
  lo : int;  (* byte range within the page; -1..-1 when not byte-scoped *)
  hi : int;
  pids : int list;  (* processors involved, sorted ascending *)
  message : string;
  hint : string;  (* concrete remediation *)
}

let severity_name = function Info -> "info" | Warning -> "warning" | Error -> "error"

let severity_rank = function Error -> 2 | Warning -> 1 | Info -> 0

(* Canonical order: severity (errors first), then location, then
   analyzer/rule, then the free text.  A total order over every field, so
   equal finding sets always render byte-identically. *)
let compare_findings a b =
  let cmp =
    List.find_opt (fun c -> c <> 0)
      [
        compare (severity_rank b.severity) (severity_rank a.severity);
        compare a.page b.page;
        compare a.lo b.lo;
        compare a.hi b.hi;
        compare a.analyzer b.analyzer;
        compare a.rule b.rule;
        compare a.pids b.pids;
        compare a.message b.message;
        compare a.hint b.hint;
      ]
  in
  match cmp with Some c -> c | None -> 0

let sort_dedup findings =
  List.sort_uniq compare_findings findings

let worst findings =
  List.fold_left
    (fun acc f ->
      match acc with
      | Some s when severity_rank s >= severity_rank f.severity -> acc
      | _ -> Some f.severity)
    None findings

let has_errors findings = worst findings = Some Error

let location f =
  if f.page < 0 then "-"
  else if f.lo < 0 then string_of_int f.page
  else Printf.sprintf "%d:%d..%d" f.page f.lo f.hi

let pids_str f = String.concat "," (List.map (Printf.sprintf "p%d") f.pids)

let table findings =
  if findings = [] then "lint: no findings"
  else
    let rows =
      List.map
        (fun f ->
          [
            severity_name f.severity;
            f.analyzer;
            f.rule;
            location f;
            pids_str f;
            f.message;
            f.hint;
          ])
        findings
    in
    let count sev = List.length (List.filter (fun f -> f.severity = sev) findings) in
    Printf.sprintf "lint: %d error(s), %d warning(s), %d info\n\n%s" (count Error)
      (count Warning) (count Info)
      (Tmk_util.Tablefmt.render ~title:"Lint findings (page:bytes, word-granular)"
         ~header:[ "severity"; "analyzer"; "rule"; "page:bytes"; "procs"; "finding"; "hint" ]
         rows)

(* ---- JSONL and SARIF 2.1.0 ----

   SARIF: one run, driver "tmk-lint", one rule object per distinct rule
   id, one result per finding.  Findings describe simulated DSM pages,
   not source lines; [uri] names the artifact the annotations should land
   on (the application's fixture file), with the page/byte location
   carried in the message text. *)

module Json = Tmk_util.Json

let to_jsonl_line f =
  Json.to_string
    Json.(
      Obj
        [ ("analyzer", String f.analyzer); ("rule", String f.rule);
          ("severity", String (severity_name f.severity)); ("page", Int f.page);
          ("lo", Int f.lo); ("hi", Int f.hi);
          ("pids", List (List.map (fun p -> Int p) f.pids));
          ("message", String f.message); ("hint", String f.hint) ])

let to_jsonl findings =
  String.concat "" (List.map (fun f -> to_jsonl_line f ^ "\n") findings)

let sarif_level = function Info -> "note" | Warning -> "warning" | Error -> "error"

let to_sarif ?(uri = "README.md") findings =
  let rules = List.sort_uniq compare (List.map (fun f -> (f.rule, f.analyzer)) findings) in
  let open Json in
  let text s = Obj [ ("text", String s) ] in
  let rule (rule, analyzer) =
    Obj
      [ ("id", String rule);
        ("shortDescription", text (Printf.sprintf "%s analyzer: %s" analyzer rule)) ]
  in
  let artifact =
    Obj
      [ ( "physicalLocation",
          Obj
            [ ("artifactLocation", Obj [ ("uri", String uri) ]);
              ("region", Obj [ ("startLine", Int 1) ]) ] ) ]
  in
  let result f =
    let message =
      if f.page < 0 then Printf.sprintf "%s [%s] %s" f.message (pids_str f) f.hint
      else Printf.sprintf "page %s [%s]: %s. %s" (location f) (pids_str f) f.message f.hint
    in
    Obj
      [ ("ruleId", String f.rule); ("level", String (sarif_level f.severity));
        ("message", text message); ("locations", List [ artifact ]) ]
  in
  let driver =
    Obj
      [ ("name", String "tmk-lint");
        ("informationUri", String "https://github.com/treadmarks/treadmarks");
        ("version", String "1.0.0"); ("rules", List (List.map rule rules)) ]
  in
  to_string
    (Obj
       [ ("version", String "2.1.0");
         ("$schema", String "https://json.schemastore.org/sarif-2.1.0.json");
         ( "runs",
           List
             [ Obj
                 [ ("tool", Obj [ ("driver", driver) ]);
                   ("results", List (List.map result findings)) ] ] ) ])
