let float_cell v =
  if Float.is_integer v && Float.abs v < 1e9 then Printf.sprintf "%.0f" v
  else if Float.abs v >= 100.0 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.2f" v

let render ~title ~header rows =
  let ncols = List.length header in
  List.iter
    (fun row ->
      if List.length row <> ncols then
        invalid_arg "Tablefmt.render: row width mismatch")
    rows;
  let widths = Array.of_list (List.map String.length header) in
  let note_widths row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  List.iter note_widths rows;
  let buf = Buffer.create 256 in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  let pad i cell =
    (* Right-align everything but the first column (labels). *)
    let w = widths.(i) in
    if i = 0 then Printf.sprintf "%-*s" w cell else Printf.sprintf "%*s" w cell
  in
  let emit_row row =
    Buffer.add_string buf (String.concat "  " (List.mapi pad row));
    Buffer.add_char buf '\n'
  in
  emit_row header;
  let rule_width =
    Array.fold_left ( + ) 0 widths + (2 * (ncols - 1))
  in
  Buffer.add_string buf (String.make rule_width '-');
  Buffer.add_char buf '\n';
  List.iter emit_row rows;
  Buffer.contents buf

let label_width items = List.fold_left (fun w (l, _) -> max w (String.length l)) 0 items

(* The longest bar of a bar chart and of a stacked bar chart, and a line
   chart's grid, in characters. *)
let max_width = 50
let stacked_max_width = 60
let width = 60
let height = 20

let bar_chart ~title ~unit_ items =
  let buf = Buffer.create 256 in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  let top = List.fold_left (fun m (_, v) -> Float.max m v) 0.0 items in
  let lw = label_width items in
  let emit (label, v) =
    let n = if top <= 0.0 then 0 else int_of_float (Float.round (v /. top *. float_of_int max_width)) in
    Buffer.add_string buf
      (Printf.sprintf "%-*s |%s %s %s\n" lw label (String.make n '#') (float_cell v) unit_)
  in
  List.iter emit items;
  Buffer.contents buf

let grouped_bar_chart ~title ~unit_ ~series items =
  let buf = Buffer.create 256 in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  let top =
    List.fold_left (fun m (_, vs) -> List.fold_left Float.max m vs) 0.0 items
  in
  let lw = label_width (List.map (fun (l, _) -> (l, 0.0)) items) in
  let sw = List.fold_left (fun w s -> max w (String.length s)) 0 series in
  let glyphs = [| '#'; '='; '+'; '%'; '@' |] in
  let emit (label, vs) =
    List.iteri
      (fun i v ->
        let name = List.nth series i in
        let n =
          if top <= 0.0 then 0
          else int_of_float (Float.round (v /. top *. float_of_int max_width))
        in
        let row_label = if i = 0 then label else "" in
        Buffer.add_string buf
          (Printf.sprintf "%-*s %-*s |%s %s %s\n" lw row_label sw name
             (String.make n glyphs.(i mod Array.length glyphs))
             (float_cell v) unit_))
      vs;
    Buffer.add_char buf '\n'
  in
  List.iter emit items;
  Buffer.contents buf

let stacked_bar_chart ~title ~unit_ ~components items =
  let buf = Buffer.create 256 in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  let total vs = List.fold_left ( +. ) 0.0 vs in
  let top = List.fold_left (fun m (_, vs) -> Float.max m (total vs)) 0.0 items in
  let lw = label_width (List.map (fun (l, _) -> (l, 0.0)) items) in
  let glyphs = [| '#'; '='; '+'; '.' ; '%' |] in
  let emit (label, vs) =
    let bar = Buffer.create 64 in
    List.iteri
      (fun i v ->
        let n =
          if top <= 0.0 then 0
          else int_of_float (Float.round (v /. top *. float_of_int stacked_max_width))
        in
        Buffer.add_string bar (String.make n glyphs.(i mod Array.length glyphs)))
      vs;
    let legend =
      String.concat "  "
        (List.map2 (fun name v -> Printf.sprintf "%s=%s" name (float_cell v)) components vs)
    in
    Buffer.add_string buf
      (Printf.sprintf "%-*s |%s| total %s %s  (%s)\n" lw label (Buffer.contents bar)
         (float_cell (total vs)) unit_ legend)
  in
  List.iter emit items;
  let key =
    String.concat "  "
      (List.mapi (fun i name -> Printf.sprintf "%c=%s" glyphs.(i mod Array.length glyphs) name) components)
  in
  Buffer.add_string buf ("key: " ^ key ^ "\n");
  Buffer.contents buf

let line_chart ~title ~x_label ~y_label ~x series =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  let xs = Array.of_list x in
  let nx = Array.length xs in
  let all_ys = List.concat_map (fun (_, _, ys) -> ys) series in
  let y_max = List.fold_left Float.max 0.0 all_ys in
  let y_max = if y_max <= 0.0 then 1.0 else y_max in
  let x_min = xs.(0) and x_max = xs.(nx - 1) in
  let grid = Array.make_matrix height width ' ' in
  let col_of xv =
    if x_max = x_min then 0
    else
      min (width - 1)
        (int_of_float (Float.round ((xv -. x_min) /. (x_max -. x_min) *. float_of_int (width - 1))))
  in
  let row_of yv =
    let r = int_of_float (Float.round (yv /. y_max *. float_of_int (height - 1))) in
    height - 1 - min (height - 1) (max 0 r)
  in
  let plot_series (_, glyph, ys) =
    List.iteri
      (fun i yv ->
        if i < nx then grid.(row_of yv).(col_of xs.(i)) <- glyph)
      ys
  in
  List.iter plot_series series;
  let y_label_w = 8 in
  for r = 0 to height - 1 do
    let yv = y_max *. float_of_int (height - 1 - r) /. float_of_int (height - 1) in
    let label =
      if r mod 4 = 0 || r = height - 1 then Printf.sprintf "%*.1f |" (y_label_w - 2) yv
      else String.make (y_label_w - 1) ' ' ^ "|"
    in
    Buffer.add_string buf label;
    Buffer.add_string buf (String.init width (fun c -> grid.(r).(c)));
    Buffer.add_char buf '\n'
  done;
  Buffer.add_string buf (String.make (y_label_w - 1) ' ' ^ "+" ^ String.make width '-');
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf "%*s%-*.0f%*.0f   (%s)\n" y_label_w "" (width - 8) x_min 8 x_max x_label);
  Buffer.add_string buf (Printf.sprintf "y: %s   series: " y_label);
  Buffer.add_string buf
    (String.concat "  " (List.map (fun (name, glyph, _) -> Printf.sprintf "%c=%s" glyph name) series));
  Buffer.add_char buf '\n';
  Buffer.contents buf
