type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float * int
  | String of string
  | List of t list
  | Obj of (string * t) list

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when c < ' ' -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float (x, decimals) -> Printf.bprintf b "%.*f" decimals x
  | String s -> add_string b s
  | List vs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        to_buffer b v)
      vs;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        add_string b k;
        Buffer.add_char b ':';
        to_buffer b v)
      fields;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

let to_file path v =
  let b = Buffer.create 8192 in
  to_buffer b v;
  Buffer.add_char b '\n';
  let oc = open_out path in
  Buffer.output_buffer oc b;
  close_out oc

exception Parse_error of { offset : int; reason : string }

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail_at offset reason = raise (Parse_error { offset; reason }) in
  let fail reason = fail_at !pos reason in
  let at c = !pos < n && s.[!pos] = c in
  let expect c = if at c then incr pos else fail (Printf.sprintf "expected '%c'" c) in
  let word w v =
    let len = String.length w in
    if !pos + len <= n && String.sub s !pos len = w then begin
      pos := !pos + len;
      v
    end
    else fail ("expected " ^ w)
  in
  let digits () =
    let start = !pos in
    while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
      incr pos
    done;
    if !pos = start then fail "expected a digit";
    !pos - start
  in
  let number () =
    let start = !pos in
    if at '-' then incr pos;
    let int_start = !pos in
    if digits () > 1 && s.[int_start] = '0' then fail_at int_start "leading zero";
    if at '.' then begin
      incr pos;
      let decimals = digits () in
      Float (float_of_string (String.sub s start (!pos - start)), decimals)
    end
    else
      match String.sub s start (!pos - start) with
      | "-0" -> Float (-0., 0)
      | lexeme -> (
        match int_of_string_opt lexeme with
        | Some v -> Int v
        | None -> fail_at start "integer overflow")
  in
  let hex i =
    match s.[i] with
    | '0' .. '9' as c -> Char.code c - Char.code '0'
    | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
    | _ -> fail_at i "bad \\u escape"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        if !pos >= n then fail "unterminated string";
        (match s.[!pos] with
        | ('"' | '\\') as c -> Buffer.add_char b c
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'u' ->
          if !pos + 4 >= n then fail "truncated \\u escape";
          let code =
            (hex (!pos + 1) lsl 12) lor (hex (!pos + 2) lsl 8) lor (hex (!pos + 3) lsl 4)
            lor hex (!pos + 4)
          in
          if code > 0xFF then fail "\\u escape above 00FF";
          Buffer.add_char b (Char.chr code);
          pos := !pos + 4
        | _ -> fail "bad escape");
        incr pos;
        go ()
      | c when c < ' ' -> fail "control byte in string"
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  (* [items close item] reads [item (',' item)* close], the opening
     bracket already consumed. *)
  let items close item =
    if at close then begin
      incr pos;
      []
    end
    else
      let rec go acc =
        let acc = item () :: acc in
        if at ',' then begin
          incr pos;
          go acc
        end
        else if at close then begin
          incr pos;
          List.rev acc
        end
        else fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      go []
  in
  let rec value () =
    if !pos >= n then fail "unexpected end of input";
    match s.[!pos] with
    | '{' ->
      incr pos;
      Obj
        (items '}' (fun () ->
             let k = string () in
             expect ':';
             (k, value ())))
    | '[' ->
      incr pos;
      List (items ']' value)
    | '"' -> String (string ())
    | 't' -> word "true" (Bool true)
    | 'f' -> word "false" (Bool false)
    | 'n' -> word "null" Null
    | _ -> number ()
  in
  let v = value () in
  if !pos <> n then fail "trailing bytes";
  v
