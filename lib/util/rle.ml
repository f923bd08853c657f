type run = { offset : int; bytes : Bytes.t }

(* Run count and payload ride along from encode time: both sit on the
   stats path of every diff (wire sizing, trace events, cache caps), and
   recomputing them by walking the run list was measurable at scale. *)
type t = { runs : run list; nruns : int; payload : int }

let header_bytes = 4

let runs t = t.runs
let is_empty t = t.nruns = 0
let run_count t = t.nruns
let payload_size t = t.payload
let encoded_size t = t.payload + (header_bytes * t.nruns)

(* Native-endian 8-byte loads: the scans below only test words for
   equality and for equal bytes, which byte order does not change.
   Callers keep [i + 8 <= length]. *)
external unsafe_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* SWAR helper: [x] is the XOR of two 8-byte words; a zero byte of [x]
   marks a byte position where the words agree.  Inlined, so [x] stays
   unboxed. *)
let[@inline] no_equal_byte x =
  Int64.equal
    (Int64.logand
       (Int64.logand (Int64.sub x 0x0101010101010101L) (Int64.lognot x))
       0x8080808080808080L)
    0L

(* The scans compare 8-byte words and drop to byte granularity only
   inside a word that differs.  They are top-level functions of the two
   buffers and their length [n], so an encode builds no closures. *)

(* The first byte at or after [i] where the buffers differ; one exists. *)
let rec diff_byte old_ cur i =
  if Bytes.unsafe_get old_ i <> Bytes.unsafe_get cur i then i else diff_byte old_ cur (i + 1)

(* The first byte at or after [i] where the buffers differ, or [n]. *)
let rec find_diff old_ cur n i =
  if i + 8 <= n then
    if Int64.equal (unsafe_get64 old_ i) (unsafe_get64 cur i) then find_diff old_ cur n (i + 8)
    else diff_byte old_ cur i
  else if i >= n then n
  else if Bytes.unsafe_get old_ i <> Bytes.unsafe_get cur i then i
  else find_diff old_ cur n (i + 1)

(* The first byte at or after [i] where the buffers agree; one exists. *)
let rec same_byte old_ cur i =
  if Bytes.unsafe_get old_ i = Bytes.unsafe_get cur i then i else same_byte old_ cur (i + 1)

(* The first byte at or after [i] where the buffers agree, or [n]. *)
let rec find_same old_ cur n i =
  if i + 8 <= n then
    if no_equal_byte (Int64.logxor (unsafe_get64 old_ i) (unsafe_get64 cur i)) then
      find_same old_ cur n (i + 8)
    else same_byte old_ cur i
  else if i >= n then n
  else if Bytes.unsafe_get old_ i = Bytes.unsafe_get cur i then i
  else find_same old_ cur n (i + 1)

(* One pass over maximal differing spans.  The open run covers the bytes
   from [start] up to [stop]; it takes in the next span while fewer than
   [join_gap] equal bytes separate them, and is copied out when it
   closes.  [runs] holds the closed runs newest first. *)
let rec scan old_ cur n join_gap start stop nruns payload runs =
  let next = find_diff old_ cur n stop in
  if next < n && next - stop < join_gap then
    scan old_ cur n join_gap start (find_same old_ cur n (next + 1)) nruns payload runs
  else
    let len = stop - start in
    let runs = { offset = start; bytes = Bytes.sub cur start len } :: runs in
    if next < n then
      scan old_ cur n join_gap next
        (find_same old_ cur n (next + 1))
        (nruns + 1) (payload + len) runs
    else { runs = List.rev runs; nruns = nruns + 1; payload = payload + len }

let encode ?(join_gap = 4) ~old_ current =
  let n = Bytes.length old_ in
  if Bytes.length current <> n then
    invalid_arg "Rle.encode: buffers must have equal length";
  let start = find_diff old_ current n 0 in
  if start = n then { runs = []; nruns = 0; payload = 0 }
  else scan old_ current n join_gap start (find_same old_ current n (start + 1)) 0 0 []

let apply t target =
  let n = Bytes.length target in
  let apply_run { offset; bytes } =
    let len = Bytes.length bytes in
    if offset < 0 || offset + len > n then invalid_arg "Rle.apply: run out of bounds";
    Bytes.blit bytes 0 target offset len
  in
  List.iter apply_run t.runs
