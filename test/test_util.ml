(* Unit and property tests for Tmk_util: PRNG, RLE, bitset, table
   rendering, the JSON codec. *)

open Tmk_util

let check = Alcotest.check
let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Prng *)

let prng_deterministic () =
  let a = Prng.create 42L and b = Prng.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let prng_seed_sensitivity () =
  let a = Prng.create 42L and b = Prng.create 43L in
  let differs = ref false in
  for _ = 1 to 16 do
    if Prng.bits64 a <> Prng.bits64 b then differs := true
  done;
  check Alcotest.bool "streams differ" true !differs

let prng_split_independent () =
  (* Draws from the split stream must not depend on how many draws were
     later made from the parent. *)
  let parent1 = Prng.create 7L in
  let child1 = Prng.split parent1 in
  let _ = Prng.bits64 parent1 in
  let parent2 = Prng.create 7L in
  let child2 = Prng.split parent2 in
  for _ = 1 to 50 do
    let _ = Prng.bits64 parent2 in
    ()
  done;
  for _ = 1 to 20 do
    check Alcotest.int64 "child streams equal" (Prng.bits64 child1) (Prng.bits64 child2)
  done

let prng_split_named_stable () =
  let p1 = Prng.create 9L and p2 = Prng.create 9L in
  let a = Prng.split_named p1 "jacobi" and b = Prng.split_named p2 "jacobi" in
  check Alcotest.int64 "named split deterministic" (Prng.bits64 a) (Prng.bits64 b)

let prng_int_bounds =
  qtest "Prng.int in bounds"
    QCheck.(pair int64 (int_range 1 1000))
    (fun (seed, bound) ->
      let t = Prng.create seed in
      let v = Prng.int t bound in
      v >= 0 && v < bound)

let prng_int_in_bounds =
  qtest "Prng.int_in in range"
    QCheck.(triple int64 (int_range (-100) 100) (int_range 0 200))
    (fun (seed, lo, extent) ->
      let hi = lo + extent in
      let t = Prng.create seed in
      let v = Prng.int_in t lo hi in
      v >= lo && v <= hi)

let prng_float_bounds =
  qtest "Prng.float in bounds"
    QCheck.(pair int64 (float_range 0.001 1000.0))
    (fun (seed, bound) ->
      let t = Prng.create seed in
      let v = Prng.float t bound in
      v >= 0.0 && v < bound)

let prng_uniformity () =
  (* Chi-square-ish sanity: 10 buckets over 10_000 draws each land within
     30% of the expected count. *)
  let t = Prng.create 2024L in
  let buckets = Array.make 10 0 in
  let draws = 10_000 in
  for _ = 1 to draws do
    let b = Prng.int t 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun n ->
      check Alcotest.bool "bucket near uniform" true
        (abs (n - (draws / 10)) < draws * 3 / 100))
    buckets

let prng_shuffle_permutation =
  qtest "shuffle is a permutation"
    QCheck.(pair int64 (list_of_size (Gen.int_range 0 50) small_int))
    (fun (seed, xs) ->
      let arr = Array.of_list xs in
      Prng.shuffle (Prng.create seed) arr;
      List.sort compare (Array.to_list arr) = List.sort compare xs)

(* ------------------------------------------------------------------ *)
(* Rle *)

let bytes_gen n = QCheck.Gen.(map Bytes.of_string (string_size ~gen:printable (return n)))

let pair_of_buffers =
  (* Generate a base buffer and a mutation of it. *)
  let gen =
    QCheck.Gen.(
      int_range 1 256 >>= fun n ->
      bytes_gen n >>= fun base ->
      list_size (int_range 0 20) (pair (int_range 0 (n - 1)) char) >>= fun edits ->
      let current = Bytes.copy base in
      List.iter (fun (i, c) -> Bytes.set current i c) edits;
      return (base, current))
  in
  QCheck.make ~print:(fun (a, b) -> Printf.sprintf "%S / %S" (Bytes.to_string a) (Bytes.to_string b)) gen

let rle_roundtrip =
  qtest ~count:500 "rle encode/apply roundtrip" pair_of_buffers (fun (base, current) ->
      let diff = Rle.encode ~old_:base current in
      let target = Bytes.copy base in
      Rle.apply diff target;
      Bytes.equal target current)

let rle_empty_when_equal =
  qtest "rle of identical buffers is empty" pair_of_buffers (fun (base, _) ->
      Rle.is_empty (Rle.encode ~old_:base (Bytes.copy base)))

let rle_runs_sorted_disjoint =
  qtest "rle runs sorted and disjoint" pair_of_buffers (fun (base, current) ->
      let diff = Rle.encode ~old_:base current in
      let rec ok = function
        | [] | [ _ ] -> true
        | a :: (b :: _ as rest) ->
          a.Rle.offset + Bytes.length a.Rle.bytes <= b.Rle.offset && ok rest
      in
      ok (Rle.runs diff))

(* The byte-at-a-time reference: maximal differing spans, merged while
   fewer than [join_gap] equal bytes separate them. *)
let byte_wise_runs ~join_gap ~old_ current =
  let n = Bytes.length old_ in
  let differs i = Bytes.get old_ i <> Bytes.get current i in
  let rec span_end i = if i < n && differs i then span_end (i + 1) else i in
  let rec spans acc i =
    if i >= n then List.rev acc
    else if not (differs i) then spans acc (i + 1)
    else
      let stop = span_end (i + 1) in
      match acc with
      | (s0, e0) :: rest when i - e0 < join_gap -> spans ((s0, stop) :: rest) stop
      | _ -> spans ((i, stop) :: acc) stop
  in
  List.map (fun (s, e) -> (s, Bytes.sub_string current s (e - s))) (spans [] 0)

(* A buffer of 1 to 4096 random bytes, a join gap from 1 to 8, and one of
   three edits: every 8-byte float changed (one in eight only in sign and
   exponent, which leaves 6 equal bytes), sparse single bytes, or runs of
   changed bytes separated by [join_gap - 1], [join_gap] or
   [join_gap + 1] equal bytes. *)
let encode_case =
  let open QCheck.Gen in
  let flip b i k = Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor k)) in
  let every_float base =
    list_repeat (Bytes.length base / 8) (pair (int_range 0 7) (float_range (-1e6) 1e6))
    >|= fun words ->
    let base = Bytes.copy base in
    let cur = Bytes.copy base in
    List.iteri
      (fun w (k, x) ->
        let y = if k = 0 then -2. *. x else -.(x +. (1. /. 3.)) in
        Bytes.set_int64_le base (8 * w) (Int64.bits_of_float x);
        Bytes.set_int64_le cur (8 * w) (Int64.bits_of_float y))
      words;
    (base, cur)
  in
  let sparse base =
    let n = Bytes.length base in
    list_size (int_range 1 20) (pair (int_range 0 (n - 1)) (int_range 1 255)) >|= fun edits ->
    let cur = Bytes.copy base in
    List.iter (fun (i, k) -> flip cur i k) edits;
    (base, cur)
  in
  let gaps join_gap base =
    let n = Bytes.length base in
    let rec runs i =
      if i >= n then return []
      else
        pair (int_range 1 12) (int_range (join_gap - 1) (join_gap + 1)) >>= fun (len, gap) ->
        runs (i + len + gap) >|= fun rest -> (i, len) :: rest
    in
    int_range 0 (min 16 (n - 1)) >>= runs >|= fun runs ->
    let cur = Bytes.copy base in
    List.iter (fun (i, len) -> for j = i to min (n - 1) (i + len - 1) do flip cur j 0x5a done) runs;
    (base, cur)
  in
  let gen =
    int_range 1 8 >>= fun join_gap ->
    int_range 1 4096 >>= fun n ->
    string_size (return n) >>= fun s ->
    let base = Bytes.of_string s in
    oneof [ every_float base; sparse base; gaps join_gap base ] >|= fun (base, cur) ->
    (join_gap, base, cur)
  in
  let print (join_gap, base, cur) =
    let spans = byte_wise_runs ~join_gap:1 ~old_:base cur in
    Printf.sprintf "join_gap %d, %d bytes, differing spans [%s]" join_gap (Bytes.length base)
      (String.concat "; "
         (List.map (fun (i, b) -> Printf.sprintf "%d+%d" i (String.length b)) spans))
  in
  QCheck.make ~print gen

let rle_encode_equals_byte_wise =
  qtest ~count:500 "rle encode equals the byte-wise scan" encode_case
    (fun (join_gap, base, cur) ->
      let diff = Rle.encode ~join_gap ~old_:base cur in
      let want = byte_wise_runs ~join_gap ~old_:base cur in
      List.map (fun r -> (r.Rle.offset, Bytes.to_string r.Rle.bytes)) (Rle.runs diff) = want
      && Rle.run_count diff = List.length want
      && Rle.payload_size diff = List.fold_left (fun acc (_, b) -> acc + String.length b) 0 want)

let rle_join_gap () =
  (* Two 1-byte changes 2 bytes apart must join into one run with the
     default gap of 4. *)
  let base = Bytes.of_string "aaaaaaaaaa" in
  let cur = Bytes.of_string "abaabaaaaa" in
  let diff = Rle.encode ~old_:base cur in
  check Alcotest.int "joined run" 1 (Rle.run_count diff);
  (* With join_gap 1, they stay separate. *)
  let diff2 = Rle.encode ~join_gap:1 ~old_:base cur in
  check Alcotest.int "separate runs" 2 (Rle.run_count diff2)

let rle_sizes () =
  let base = Bytes.of_string (String.make 64 'x') in
  let cur = Bytes.copy base in
  Bytes.set cur 0 'y';
  Bytes.set cur 32 'z';
  let diff = Rle.encode ~old_:base cur in
  check Alcotest.int "payload" 2 (Rle.payload_size diff);
  check Alcotest.int "encoded" (2 + (2 * Rle.header_bytes)) (Rle.encoded_size diff)

let rle_length_mismatch () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Rle.encode: buffers must have equal length") (fun () ->
      ignore (Rle.encode ~old_:(Bytes.create 4) (Bytes.create 5)))

let rle_overlap () =
  let base = Bytes.of_string "aaaaaaaa" in
  let c1 = Bytes.of_string "bbaaaaaa" in
  let c2 = Bytes.of_string "aaaaaabb" in
  let c3 = Bytes.of_string "abbaaaaa" in
  let d1 = Rle.encode ~old_:base c1 in
  let d2 = Rle.encode ~old_:base c2 in
  let d3 = Rle.encode ~old_:base c3 in
  check Alcotest.bool "disjoint" false (Rle.overlaps d1 d2);
  check Alcotest.bool "overlapping" true (Rle.overlaps d1 d3)

(* ------------------------------------------------------------------ *)
(* Bitset *)

let bitset_model =
  qtest ~count:500 "bitset matches a set model"
    QCheck.(list (pair bool (int_range 0 63)))
    (fun ops ->
      let bs = Bitset.create 64 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (add, i) ->
          if add then begin
            Bitset.add bs i;
            Hashtbl.replace model i ()
          end
          else begin
            Bitset.remove bs i;
            Hashtbl.remove model i
          end)
        ops;
      let expected = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) model []) in
      Bitset.to_list bs = expected && Bitset.cardinal bs = List.length expected)

let bitset_union () =
  let a = Bitset.create 16 and b = Bitset.create 16 in
  List.iter (Bitset.add a) [ 1; 3; 5 ];
  List.iter (Bitset.add b) [ 3; 4 ];
  Bitset.union_into ~src:a ~dst:b;
  check Alcotest.(list int) "union" [ 1; 3; 4; 5 ] (Bitset.to_list b);
  check Alcotest.(list int) "src unchanged" [ 1; 3; 5 ] (Bitset.to_list a)

let bitset_copy_independent () =
  let a = Bitset.create 8 in
  Bitset.add a 2;
  let b = Bitset.copy a in
  Bitset.add b 3;
  check Alcotest.bool "copy has" true (Bitset.mem b 2);
  check Alcotest.bool "original unchanged" false (Bitset.mem a 3)

let bitset_bounds () =
  let a = Bitset.create 8 in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Bitset: index out of range") (fun () -> Bitset.add a 8)

let bitset_empty () =
  let a = Bitset.create 10 in
  check Alcotest.bool "fresh empty" true (Bitset.is_empty a);
  Bitset.add a 9;
  check Alcotest.bool "not empty" false (Bitset.is_empty a);
  Bitset.clear a;
  check Alcotest.bool "cleared" true (Bitset.is_empty a)

(* ------------------------------------------------------------------ *)
(* Tablefmt *)

let tablefmt_render () =
  let s =
    Tablefmt.render ~title:"T" ~header:[ "app"; "x" ] [ [ "water"; "1.0" ]; [ "tsp"; "20" ] ]
  in
  check Alcotest.bool "has title" true (String.length s > 0 && String.sub s 0 1 = "T");
  check Alcotest.bool "has row" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.length l >= 5 && String.sub l 0 5 = "water"))

let tablefmt_row_mismatch () =
  Alcotest.check_raises "row mismatch"
    (Invalid_argument "Tablefmt.render: row width mismatch") (fun () ->
      ignore (Tablefmt.render ~title:"t" ~header:[ "a"; "b" ] [ [ "only-one" ] ]))

let tablefmt_charts_do_not_crash () =
  let _ = Tablefmt.bar_chart ~title:"b" ~unit_:"x" [ ("a", 1.0); ("b", 2.0) ] in
  let _ =
    Tablefmt.grouped_bar_chart ~title:"g" ~unit_:"x" ~series:[ "lazy"; "eager" ]
      [ ("water", [ 1.0; 2.0 ]); ("tsp", [ 3.0; 4.0 ]) ]
  in
  let _ =
    Tablefmt.stacked_bar_chart ~title:"s" ~unit_:"s" ~components:[ "comp"; "unix" ]
      [ ("water", [ 1.0; 0.5 ]) ]
  in
  let _ =
    Tablefmt.line_chart ~title:"l" ~x_label:"procs" ~y_label:"speedup"
      ~x:[ 1.0; 2.0; 4.0; 8.0 ]
      [ ("jacobi", 'j', [ 1.0; 1.9; 3.8; 7.4 ]) ]
  in
  ()

(* ------------------------------------------------------------------ *)
(* Json *)

(* Values up to depth 4 with every byte value in strings, the int
   extremes, finite floats of 0-6 decimals below 1e12 in magnitude, and
   empty lists and objects. *)
let json_gen =
  let open QCheck.Gen in
  let str = string_size ~gen:char (int_range 0 8) in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun n -> Json.Int n) (oneof [ int; oneofl [ min_int; max_int; 0; -1 ] ]);
        map2
          (fun x d -> Json.Float (x, d))
          (oneof
             [
               float_range (-1.) 1.;
               float_range (-1e6) 1e6;
               float_range (-999_999_999_999.) 999_999_999_999.;
             ])
          (int_range 0 6);
        map (fun s -> Json.String s) str;
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [
            (2, leaf);
            (1, map (fun vs -> Json.List vs) (list_size (int_range 0 4) (self (depth - 1))));
            ( 1,
              map
                (fun fs -> Json.Obj fs)
                (list_size (int_range 0 4) (pair str (self (depth - 1)))) );
          ])
    4

let json_roundtrip =
  qtest ~count:500 "json print . parse . print = print"
    (QCheck.make ~print:Json.to_string json_gen)
    (fun v ->
      let s = Json.to_string v in
      Json.to_string (Json.of_string s) = s)

let json_printer () =
  check Alcotest.string "compact, fields in order, fixed decimals"
    ("{\"b\":[true,null,-3],\"a\":{},\"f\":[0.5000,13,-0.00],"
   ^ "\"s\":\"q\\\"\\\\\\n\\t\\r\\u0001\\u001f\x7f\xff\"}")
    (Json.to_string
       (Json.Obj
          [
            ("b", Json.List [ Json.Bool true; Json.Null; Json.Int (-3) ]);
            ("a", Json.Obj []);
            ("f", Json.(List [ Float (0.5, 4); Float (12.7, 0); Float (-0.001, 2) ]));
            ("s", Json.String "q\"\\\n\t\r\001\031\127\255");
          ]))

(* Each malformed input fails at the byte where it stops being JSON. *)
let json_parse_errors () =
  List.iter
    (fun (what, input, offset) ->
      match Json.of_string input with
      | v -> Alcotest.failf "%s: %S parsed as %s" what input (Json.to_string v)
      | exception Json.Parse_error { offset = at; reason = _ } ->
        check Alcotest.int what offset at)
    [
      ("truncated list", "{\"a\":[1,2", 9);
      ("truncated string", "\"abc", 4);
      ("empty input", "", 0);
      ("trailing bytes", "{}x", 2);
      ("whitespace", "[1, 2]", 3);
      ("bad escape", "\"a\\qb\"", 3);
      ("\\u above 00FF", "\"\\u0100\"", 2);
      ("lone minus", "-", 1);
      ("leading zero", "[01]", 1);
      ("exponent", "[1e5]", 2);
      ("overflow", "[4611686018427387904]", 1);
      ("negative overflow", "-4611686018427387905", 0);
    ];
  check Alcotest.string "min_int reads" (string_of_int min_int)
    (Json.to_string (Json.of_string (string_of_int min_int)))

(* The committed BENCH records are printer output: each reads back and
   reprints byte for byte. *)
let json_reprints_bench_files () =
  List.iter
    (fun name ->
      let path =
        Filename.concat (Filename.dirname Sys.executable_name)
          (Filename.concat Filename.parent_dir_name name)
      in
      let text = In_channel.with_open_bin path In_channel.input_all in
      let body = String.sub text 0 (String.length text - 1) in
      check Alcotest.string name text (Json.to_string (Json.of_string body) ^ "\n"))
    [ "BENCH_3.json"; "BENCH_5.json"; "BENCH_6.json"; "BENCH_7.json"; "BENCH_10.json" ]

let suite =
  [
    Alcotest.test_case "prng deterministic" `Quick prng_deterministic;
    Alcotest.test_case "prng seed sensitivity" `Quick prng_seed_sensitivity;
    Alcotest.test_case "prng split independent" `Quick prng_split_independent;
    Alcotest.test_case "prng split_named stable" `Quick prng_split_named_stable;
    prng_int_bounds;
    prng_int_in_bounds;
    prng_float_bounds;
    Alcotest.test_case "prng uniformity" `Quick prng_uniformity;
    prng_shuffle_permutation;
    rle_roundtrip;
    rle_empty_when_equal;
    rle_runs_sorted_disjoint;
    rle_encode_equals_byte_wise;
    Alcotest.test_case "rle join gap" `Quick rle_join_gap;
    Alcotest.test_case "rle sizes" `Quick rle_sizes;
    Alcotest.test_case "rle length mismatch" `Quick rle_length_mismatch;
    Alcotest.test_case "rle overlap" `Quick rle_overlap;
    bitset_model;
    Alcotest.test_case "bitset union" `Quick bitset_union;
    Alcotest.test_case "bitset copy" `Quick bitset_copy_independent;
    Alcotest.test_case "bitset bounds" `Quick bitset_bounds;
    Alcotest.test_case "bitset empty" `Quick bitset_empty;
    Alcotest.test_case "tablefmt render" `Quick tablefmt_render;
    Alcotest.test_case "tablefmt row mismatch" `Quick tablefmt_row_mismatch;
    Alcotest.test_case "tablefmt charts" `Quick tablefmt_charts_do_not_crash;
    json_roundtrip;
    Alcotest.test_case "json printer" `Quick json_printer;
    Alcotest.test_case "json parse errors carry an offset" `Quick json_parse_errors;
    Alcotest.test_case "json reprints the committed BENCH files" `Quick
      json_reprints_bench_files;
  ]
