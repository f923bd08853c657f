type t = int

let zero = 0
let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let s n = n * 1_000_000_000

let to_us t = float_of_int t /. 1_000.0
let to_ms t = float_of_int t /. 1_000_000.0
let to_s t = float_of_int t /. 1_000_000_000.0

let add = ( + )
let sub = ( - )
let max (a : t) b = if a >= b then a else b
let min (a : t) b = if a <= b then a else b
let scale t k = t * k

let pp ppf t =
  if t < 1_000 then Format.fprintf ppf "%dns" t
  else if t < 1_000_000 then Format.fprintf ppf "%.2fus" (to_us t)
  else if t < 1_000_000_000 then Format.fprintf ppf "%.3fms" (to_ms t)
  else Format.fprintf ppf "%.4fs" (to_s t)
