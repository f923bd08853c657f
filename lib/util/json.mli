(** JSON values, one compact printer and one strict parser.

    Every JSON value the project writes is a {!t} printed by
    {!to_buffer}: trace JSONL lines and Chrome trace entries, lint
    findings and SARIF, and the BENCH_N.json records.  Every one it reads
    back goes through {!of_string}.  The printer writes no whitespace and keeps object
    fields in the order given, so equal values print to equal bytes. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float * int
      (** [Float (x, d)] prints finite [x] with exactly [d] decimals, as
          [Printf "%.*f"] does: [Float (0.5, 4)] is [0.5000] and
          [Float (12.7, 0)] is [13]. *)
  | String of string  (** any bytes *)
  | List of t list
  | Obj of (string * t) list  (** fields in print order *)

(** [to_buffer b v] appends the compact form of [v].  Inside a string,
    the double quote and the backslash are escaped with a backslash,
    newline, tab and carriage return are written [\n], [\t] and [\r],
    every other byte below 0x20 as [\u00xx], and every other byte,
    0x7F-0xFF included, as itself. *)
val to_buffer : Buffer.t -> t -> unit

val to_string : t -> string

(** [to_file path v] writes [v] and a newline to [path]. *)
val to_file : string -> t -> unit

exception Parse_error of { offset : int; reason : string }

(** [of_string s] reads the one value that spans all of [s], in the form
    {!to_buffer} writes: no whitespace, no exponents, string escapes as
    above plus [\u] up to [00FF], and raw bytes 0x80-0xFF in strings.  A
    number with a fraction reads as a [Float] with its decimal count, one
    without as an [Int] (a zero-decimal [Float] reads back as the [Int]
    it prints as, and ["-0"] as [Float (-0., 0)]), so
    [to_string (of_string (to_string v)) = to_string v].
    @raise Parse_error with the byte offset where [s] stops being such a
    value: truncation, trailing bytes, a bad escape, [\u] above [00FF],
    an integer outside [min_int..max_int]. *)
val of_string : string -> t
