(** Plain-text rendering of the paper's tables and figures.

    The benchmark harness regenerates every table and figure from the
    evaluation section; since the original figures are plots, we render
    them as aligned tables, horizontal bar charts, and line charts on a
    character grid, which is enough to compare shapes against the paper. *)

(** [render ~title ~header rows] draws an aligned table with a rule under
    the header.  Every row must have [List.length header] cells. *)
val render : title:string -> header:string list -> string list list -> string

(** [bar_chart ~title ~unit_ items] draws one horizontal bar per
    [(label, value)] pair, scaled so the largest value spans 50
    characters. *)
val bar_chart : title:string -> unit_:string -> (string * float) list -> string

(** [grouped_bar_chart ~title ~unit_ ~series items] draws, per item, one bar
    per series (e.g. Lazy vs Eager), labelled with the series names, on
    the same 50-character scale. *)
val grouped_bar_chart :
  title:string ->
  unit_:string ->
  series:string list ->
  (string * float list) list ->
  string

(** [stacked_bar_chart ~title ~unit_ ~components items] draws one bar per
    item partitioned into components (e.g. Computation / Unix / TreadMarks /
    Idle), the longest 60 characters, plus a numeric legend per item. *)
val stacked_bar_chart :
  title:string ->
  unit_:string ->
  components:string list ->
  (string * float list) list ->
  string

(** [line_chart ~title ~x_label ~y_label ~x series] plots several series
    against shared x values on a 60 x 20 character grid (used for the
    Figure 3 speedup curves).  Each series is [(name, glyph, ys)]. *)
val line_chart :
  title:string ->
  x_label:string ->
  y_label:string ->
  x:float list ->
  (string * char * float list) list ->
  string
