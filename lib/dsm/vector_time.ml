type t = int array

let create n =
  if n <= 0 then invalid_arg "Vector_time.create: need at least one processor";
  Array.make n 0

let copy = Array.copy
let get t q = t.(q)
let set t q i = t.(q) <- i

(* Every comparison below is typed over [t], so it compiles to inline int
   compares: none calls [caml_compare], [caml_equal], [caml_lessequal] or
   [caml_greaterthan], and none allocates.  [leq_at] runs on every
   coverage test of a diff-fetch plan, [max_into] and [leq] on every
   acquire; [compare_total] orders every diff replay. *)
let max_into ~(src : t) ~(dst : t) =
  if Array.length src <> Array.length dst then
    invalid_arg "Vector_time.max_into: size mismatch";
  for q = 0 to Array.length dst - 1 do
    if src.(q) > dst.(q) then dst.(q) <- src.(q)
  done

let rec leq_from (a : t) (b : t) q =
  q >= Array.length a || (a.(q) <= b.(q) && leq_from a b (q + 1))

let leq a b =
  if Array.length a <> Array.length b then
    invalid_arg "Vector_time.leq: size mismatch";
  leq_from a b 0

let leq_at q a b =
  if Array.length a <> Array.length b then
    invalid_arg "Vector_time.leq_at: size mismatch";
  a.(q) <= b.(q) && leq_from a b 0

(* Lexicographic order.  It extends the pointwise order: if [leq a b] and
   [a <> b], the first entry where they differ has [a.(q) < b.(q)]. *)
let rec compare_from (a : t) (b : t) q =
  if q >= Array.length a then 0
  else if a.(q) < b.(q) then -1
  else if a.(q) > b.(q) then 1
  else compare_from a b (q + 1)

let compare_total a b =
  if Array.length a <> Array.length b then
    invalid_arg "Vector_time.compare_total: size mismatch";
  compare_from a b 0

let bytes n = 4 * n
