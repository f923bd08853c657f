module Json = Tmk_util.Json

let to_json (r : Sink.record) =
  Json.Obj
    (("t", Json.Int r.r_time)
    :: ("pid", Json.Int r.r_pid)
    :: ("ev", Json.String (Event.name r.r_ev))
    :: Event.args r.r_ev)

let write oc sink =
  let b = Buffer.create 256 in
  Sink.iter
    (fun r ->
      Buffer.clear b;
      Json.to_buffer b (to_json r);
      Buffer.add_char b '\n';
      Buffer.output_buffer oc b)
    sink

exception Parse_error of string

(* The simulator's processor ceiling, which tmk_run's --nprocs enforces:
   a recorded pid is -1 (the engine) or a processor below it. *)
let max_procs = 1024

let parse_line line =
  let fail fmt = Printf.ksprintf (fun msg -> raise (Parse_error msg)) fmt in
  let fields =
    match Json.of_string line with
    | Json.Obj fields -> fields
    | _ -> fail "expected an object"
    | exception Json.Parse_error { offset; reason } -> fail "%s at byte %d" reason offset
  in
  let int k =
    match List.assoc_opt k fields with
    | Some (Json.Int v) -> v
    | _ -> fail "missing integer field %S" k
  in
  let time = int "t" and pid = int "pid" in
  if pid < -1 || pid >= max_procs then fail "pid %d outside -1..%d" pid (max_procs - 1);
  let ev_name =
    match List.assoc_opt "ev" fields with
    | Some (Json.String v) -> v
    | _ -> fail "missing string field \"ev\""
  in
  let args = List.filter (fun (k, _) -> k <> "t" && k <> "pid" && k <> "ev") fields in
  match Event.of_args ev_name args with
  | Some ev -> { Sink.r_time = time; r_pid = pid; r_ev = ev }
  | None -> fail "unknown or malformed event %S" ev_name

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let sink = Sink.create () in
  let rec go lineno =
    match input_line ic with
    | exception End_of_file -> sink
    | "" -> go (lineno + 1)
    | line ->
      let r =
        try parse_line line
        with Parse_error msg -> raise (Parse_error (Printf.sprintf "line %d: %s" lineno msg))
      in
      Sink.emit sink ~time:r.r_time ~pid:r.r_pid r.r_ev;
      go (lineno + 1)
  in
  go 1
