type t = { words : Bytes.t; capacity : int }

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { words = Bytes.make ((n + 7) / 8) '\000'; capacity = n }

let check t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitset: index out of range"

let add t i =
  check t i;
  let b = Char.code (Bytes.get t.words (i / 8)) in
  Bytes.set t.words (i / 8) (Char.chr (b lor (1 lsl (i mod 8))))

let remove t i =
  check t i;
  let b = Char.code (Bytes.get t.words (i / 8)) in
  Bytes.set t.words (i / 8) (Char.chr (b land lnot (1 lsl (i mod 8)) land 0xFF))

let mem t i =
  check t i;
  Char.code (Bytes.get t.words (i / 8)) land (1 lsl (i mod 8)) <> 0

let iter f t =
  for i = 0 to t.capacity - 1 do
    if mem t i then f i
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let cardinal t = fold (fun _ n -> n + 1) t 0
let is_empty t =
  let n = Bytes.length t.words in
  let rec all_zero i = i >= n || (Bytes.get t.words i = '\000' && all_zero (i + 1)) in
  all_zero 0

let clear t = Bytes.fill t.words 0 (Bytes.length t.words) '\000'

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

(* Byte-at-a-time seek: skip empty bytes, then test the (at most 8) bits
   of the first non-empty one.  Keeps a 1024-processor liveness probe at
   ~n/8 byte loads instead of n [mem] calls. *)
let next_member t i =
  if i >= t.capacity then None
  else begin
    let i = max i 0 in
    let nbytes = Bytes.length t.words in
    let rec in_byte b bit =
      if bit >= 8 then seek_byte (b + 1)
      else
        let idx = (b * 8) + bit in
        if idx >= t.capacity then None
        else if Char.code (Bytes.get t.words b) land (1 lsl bit) <> 0 then Some idx
        else in_byte b (bit + 1)
    and seek_byte b =
      if b >= nbytes then None
      else if Bytes.get t.words b = '\000' then seek_byte (b + 1)
      else in_byte b 0
    in
    if Bytes.get t.words (i / 8) <> '\000' then in_byte (i / 8) (i mod 8)
    else seek_byte ((i / 8) + 1)
  end

let copy t = { words = Bytes.copy t.words; capacity = t.capacity }

let with_member t i =
  if mem t i then t
  else begin
    let t' = copy t in
    add t' i;
    t'
  end

let without_member t i =
  if not (mem t i) then t
  else begin
    let t' = copy t in
    remove t' i;
    t'
  end

(* Every member of [a] is in [b]. *)
let subset a b =
  let rec from i =
    i >= Bytes.length a.words
    || Char.code (Bytes.get a.words i) land lnot (Char.code (Bytes.get b.words i)) = 0
       && from (i + 1)
  in
  from 0

let union a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset.union: capacity mismatch";
  if subset b a then a
  else if subset a b then b
  else
    let u = copy a in
    for i = 0 to Bytes.length u.words - 1 do
      Bytes.set u.words i
        (Char.chr (Char.code (Bytes.get u.words i) lor Char.code (Bytes.get b.words i)))
    done;
    u
