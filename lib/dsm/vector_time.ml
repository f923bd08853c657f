type t = int array

let create n =
  if n <= 0 then invalid_arg "Vector_time.create: need at least one processor";
  Array.make n 0

let copy = Array.copy
let size = Array.length
let get t q = t.(q)
let set t q i = t.(q) <- i

let max_into ~src ~dst =
  if Array.length src <> Array.length dst then
    invalid_arg "Vector_time.max_into: size mismatch";
  for q = 0 to Array.length dst - 1 do
    if src.(q) > dst.(q) then dst.(q) <- src.(q)
  done

let leq a b =
  if Array.length a <> Array.length b then
    invalid_arg "Vector_time.leq: size mismatch";
  let rec go q = q >= Array.length a || (a.(q) <= b.(q) && go (q + 1)) in
  go 0

let dominates a b = leq b a

(* [equal] and [compare_total] are monomorphic loops: they call neither
   [caml_equal] nor [caml_compare] and allocate nothing.  [compare_total]
   orders every diff replay. *)
let rec equal_from (a : t) (b : t) q =
  q >= Array.length a || (a.(q) = b.(q) && equal_from a b (q + 1))

let equal a b = Array.length a = Array.length b && equal_from a b 0

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

let pp ppf t =
  Format.fprintf ppf "<%s>"
    (String.concat "," (Array.to_list (Array.map string_of_int t)))
