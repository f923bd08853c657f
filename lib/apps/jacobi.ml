open Tmk_dsm
module Workload = Tmk_workload.Workload
module Vm = Tmk_mem.Vm

type params = { rows : int; cols : int; iters : int; seed : int64; flops_per_point : int }

let default = { rows = 96; cols = 64; iters = 12; seed = 11L; flops_per_point = 5 }

let pages_needed p =
  (* two grids of rows*cols doubles, each page-aligned *)
  let grid_bytes = p.rows * p.cols * 8 in
  (2 * ((grid_bytes + Vm.page_size - 1) / Vm.page_size)) + 2

(* One relaxation of the interior of [src] into [dst]. *)
let relax_row ~cols ~get ~set r =
  for c = 1 to cols - 2 do
    set r c (0.25 *. (get (r - 1) c +. get (r + 1) c +. get r (c - 1) +. get r (c + 1)))
  done

let sequential p =
  let a = Workload.grid ~rows:p.rows ~cols:p.cols ~seed:p.seed in
  let b = Array.map Array.copy a in
  let src = ref a and dst = ref b in
  for _ = 1 to p.iters do
    let s = !src and d = !dst in
    for r = 1 to p.rows - 2 do
      relax_row ~cols:p.cols ~get:(fun r c -> s.(r).(c)) ~set:(fun r c v -> d.(r).(c) <- v) r
    done;
    let tmp = !src in
    src := !dst;
    dst := tmp
  done;
  !src

(* Split the interior rows [1, rows-2] into contiguous blocks. *)
let block ~rows ~nprocs ~pid =
  let interior = rows - 2 in
  let per = interior / nprocs and extra = interior mod nprocs in
  let lo = 1 + (pid * per) + min pid extra in
  let hi = lo + per + (if pid < extra then 1 else 0) - 1 in
  (lo, hi)

let parallel ?(collect = true) ctx p =
  let n = Api.nprocs ctx and pid = Api.pid ctx in
  let grid_a = Api.falloc ~align:Vm.page_size ctx (p.rows * p.cols) in
  let grid_b = Api.falloc ~align:Vm.page_size ctx (p.rows * p.cols) in
  let idx r c = (r * p.cols) + c in
  Api.bcast ctx (fun () ->
      let init = Workload.grid ~rows:p.rows ~cols:p.cols ~seed:p.seed in
      for r = 0 to p.rows - 1 do
        for c = 0 to p.cols - 1 do
          Api.fset ctx grid_a (idx r c) init.(r).(c);
          Api.fset ctx grid_b (idx r c) init.(r).(c)
        done
      done);
  let lo, hi = block ~rows:p.rows ~nprocs:n ~pid in
  let src = ref grid_a and dst = ref grid_b in
  for iter = 1 to p.iters do
    let s = !src and d = !dst in
    for r = lo to hi do
      relax_row ~cols:p.cols
        ~get:(fun r c -> Api.fget ctx s (idx r c))
        ~set:(fun r c v -> Api.fset ctx d (idx r c) v)
        r;
      Api.compute_flops ctx ((p.cols - 2) * p.flops_per_point)
    done;
    Api.barrier ctx iter;
    let tmp = !src in
    src := !dst;
    dst := tmp
  done;
  if pid = 0 && collect then begin
    let final = !src in
    Some (Array.init p.rows (fun r -> Array.init p.cols (fun c -> Api.fget ctx final (idx r c))))
  end
  else None
