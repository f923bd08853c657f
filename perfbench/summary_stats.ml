type runs = { n : int; median : float; q1 : float; q3 : float }

let median_sorted a =
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's statistics.quantiles, method "exclusive", n = 4: the i-th cut
   point sits at position i (len + 1) / 4, clamped to the data, and is
   interpolated between its neighbours with exact integer weights. *)
let quartile a i =
  let ld = Array.length a in
  if ld = 1 then a.(0)
  else begin
    let m = ld + 1 in
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
  end

let runs = function
  | [] -> None
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    Some { n = Array.length a; median = median_sorted a; q1 = quartile a 1; q3 = quartile a 3 }

let spread r = if r.median = 0.0 then 0.0 else (r.q3 -. r.q1) /. r.median

type dist = { count : int; p50 : float; tail_pct : float; tail : float }

let percentile sorted p =
  let n = Array.length sorted in
  (* the tolerance keeps 90 * 100 / 100 from rounding up past rank 90 *)
  let rank = int_of_float (Float.ceil ((p *. float_of_int n /. 100.0) -. 1e-9)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

(* Rung k of the ladder is the percentile 100 - 100/10^k (90, 99, 99.9,
   ...), which leaves n/10^k samples beyond it: climb while that is at
   least ten. *)
let tail_level n =
  let rec climb best scale =
    if n >= 10 * scale then climb (100.0 -. (100.0 /. float_of_int scale)) (scale * 10) else best
  in
  climb 50.0 10

let dist xs =
  let n = Array.length xs in
  if n = 0 then { count = 0; p50 = 0.0; tail_pct = 0.0; tail = 0.0 }
  else begin
    let a = Array.copy xs in
    Array.sort Float.compare a;
    let tail_pct = tail_level n in
    { count = n; p50 = percentile a 50.0; tail_pct; tail = percentile a tail_pct }
  end
