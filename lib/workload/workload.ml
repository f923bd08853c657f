module Prng = Tmk_util.Prng

let grid ~rows ~cols ~seed =
  let rng = Prng.create seed in
  let cell r c =
    if r = 0 then 100.0 (* hot top edge *)
    else if r = rows - 1 || c = 0 || c = cols - 1 then 0.0
    else Prng.float rng 1.0
  in
  Array.init rows (fun r -> Array.init cols (fun c -> cell r c))

let cities ~n ~seed =
  if n < 3 then invalid_arg "Workload.cities: need at least 3 cities";
  let rng = Prng.create seed in
  let coords = Array.init n (fun _ -> (Prng.float rng 1.0, Prng.float rng 1.0)) in
  let dist (x1, y1) (x2, y2) =
    let dx = x1 -. x2 and dy = y1 -. y2 in
    (* Rounded to integers like TSPLIB, so tour lengths compare exactly. *)
    int_of_float (Float.round (1000.0 *. sqrt ((dx *. dx) +. (dy *. dy))))
  in
  let matrix = Array.init n (fun i -> Array.init n (fun j -> dist coords.(i) coords.(j))) in
  (coords, matrix)

let int_array ~n ~seed =
  let rng = Prng.create seed in
  Array.init n (fun _ -> Prng.int rng 1_000_000)

type molecule = { px : float; py : float; pz : float; vx : float; vy : float; vz : float }

let molecules ~n ~seed =
  let rng = Prng.create seed in
  (* Smallest cube holding n molecules. *)
  let side = int_of_float (Float.ceil (Float.cbrt (float_of_int n))) in
  let spacing = 1.0 in
  let make i =
    let x = i mod side and y = i / side mod side and z = i / (side * side) in
    let jitter () = Prng.float rng 0.1 -. 0.05 in
    {
      px = (float_of_int x *. spacing) +. jitter ();
      py = (float_of_int y *. spacing) +. jitter ();
      pz = (float_of_int z *. spacing) +. jitter ();
      vx = Prng.float rng 0.02 -. 0.01;
      vy = Prng.float rng 0.02 -. 0.01;
      vz = Prng.float rng 0.02 -. 0.01;
    }
  in
  Array.init n make

let pedigree_sizes ~families ~seed =
  if families < 1 then invalid_arg "Workload.pedigree_sizes: need at least one family";
  let rng = Prng.create seed in
  (* Skewed: size 3-6 typically, but roughly one family in six is a large
     multi-generation pedigree.  Work per family scales superlinearly with
     size, so a few large families dominate and defeat static balance. *)
  let make _ =
    if Prng.int rng 6 = 0 then Prng.int_in rng 7 9 else Prng.int_in rng 3 6
  in
  Array.init families make
