(* Consistent-hash ownership ring (see ring.mli).  The table is a sorted
   array of (point, pid) pairs; placement and lookup are pure functions
   of (nprocs, seed, vnodes) so every processor computes identical
   owners without communication. *)

type t = {
  points : int array;  (* ring positions, sorted ascending, all >= 0 *)
  pids : int array;  (* pids.(i) owns points.(i) *)
}

(* splitmix64 finalizer: the avalanche permutation behind the placement
   and key hashes.  Everything is folded into OCaml's 63-bit native int
   at the end ([land max_int]), which keeps the ring total-ordered by
   plain [compare]. *)
let mix64 (z : int64) =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  let z = logxor z (shift_right_logical z 31) in
  to_int z land Stdlib.max_int

let point ~seed ~pid ~replica =
  mix64
    (Int64.add
       (Int64.mul (Int64.of_int ((pid * 0x10001) + replica)) 0x9e3779b97f4a7c15L)
       seed)

(* Virtual points per processor: more give better shard balance at the
   cost of a larger (still tiny) table. *)
let vnodes = 16

let create ~nprocs ~seed () =
  if nprocs < 1 then invalid_arg "Ring.create: nprocs must be >= 1";
  let n = nprocs * vnodes in
  let pairs =
    Array.init n (fun i ->
        let pid = i / vnodes and replica = i mod vnodes in
        (point ~seed ~pid ~replica, pid))
  in
  (* Ties are astronomically unlikely but must still be deterministic:
     order by (point, pid). *)
  Array.sort compare pairs;
  { points = Array.map fst pairs; pids = Array.map snd pairs }

(* Namespacing: pages and locks are small dense integers; put them in
   disjoint key spaces before hashing so their placements are
   independent. *)
let page_key page = (page * 2) + 1
let lock_key lock = lock * 2

let hash_key key = mix64 (Int64.mul (Int64.of_int key) 0xd6e8feb86659fd93L)

(* First table index whose point is >= h, wrapping to 0 past the end. *)
let successor t h =
  let n = Array.length t.points in
  if h > t.points.(n - 1) then 0
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    (* invariant: points.(hi) >= h, points.(lo-1) < h *)
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.points.(mid) >= h then hi := mid else lo := mid + 1
    done;
    !lo
  end

(* From table index [i] clockwise to a live processor's point; no closure. *)
let rec walk t live i steps =
  let n = Array.length t.points in
  if steps >= n then invalid_arg "Ring.owner: no live processor"
  else
    let pid = t.pids.(i) in
    if Tmk_util.Bitset.mem live pid then pid else walk t live ((i + 1) mod n) (steps + 1)

let owner t live key = walk t live (successor t (hash_key key)) 0
