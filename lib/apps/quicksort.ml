open Tmk_dsm
module Workload = Tmk_workload.Workload

type params = { n : int; threshold : int; seed : int64; flops_per_compare : int }

let default = { n = 16_384; threshold = 256; seed = 13L; flops_per_compare = 3 }

let lock_stack = 0

let pages_needed p =
  let bytes = (p.n * 8) + 4096 (* stack *) + 4096 in
  (bytes / Tmk_mem.Vm.page_size) + 3

(* The sorts below work in place on the shared array [data], reading
   and writing it through [Api.iget]/[Api.iset] with no closure between:
   the values are [int]s, so each compare is one machine instruction.
   [charge ctx p n] accounts [n] comparisons' work in one batch (one
   simulated-time advance per pass, not per compare). *)
let charge ctx p n = Api.compute_flops ctx (n * p.flops_per_compare)

(* Bubble sort, as the paper uses for small subarrays. *)
let bubble_sort ctx p data lo hi =
  for i = hi downto lo + 1 do
    charge ctx p (i - lo);
    for j = lo to i - 1 do
      let a = Api.iget ctx data j and b = Api.iget ctx data (j + 1) in
      if a > b then begin
        Api.iset ctx data j b;
        Api.iset ctx data (j + 1) a
      end
    done
  done

(* Hoare-style partition around the middle-element pivot. *)
let partition ctx p data lo hi =
  charge ctx p (hi - lo + 1);
  let pivot = Api.iget ctx data ((lo + hi) / 2) in
  let i = ref lo and j = ref hi in
  let continue_ = ref true in
  while !continue_ do
    while Api.iget ctx data !i < pivot do
      incr i
    done;
    while Api.iget ctx data !j > pivot do
      decr j
    done;
    if !i >= !j then continue_ := false
    else begin
      let a = Api.iget ctx data !i and b = Api.iget ctx data !j in
      Api.iset ctx data !i b;
      Api.iset ctx data !j a;
      incr i;
      decr j
    end
  done;
  !j

(* The reference: a sorted array is unique, so any sort of the same
   input is the answer the parallel sort must reach. *)
let sequential p =
  let data = Workload.int_array ~n:p.n ~seed:p.seed in
  Array.sort Int.compare data;
  data

(* Shared task stack layout: slot 0 = top index, slot 1 = number of busy
   workers, slots 2.. = (lo, hi) pairs. *)
let parallel ?(collect = true) ctx p =
  let pid = Api.pid ctx in
  let data = Api.ialloc ~align:Tmk_mem.Vm.page_size ctx p.n in
  let stack_capacity = 128 in
  let stack = Api.ialloc ~align:Tmk_mem.Vm.page_size ctx (2 + (2 * stack_capacity)) in
  if pid = 0 then begin
    let init = Workload.int_array ~n:p.n ~seed:p.seed in
    for i = 0 to p.n - 1 do
      Api.iset ctx data i init.(i)
    done;
    Api.iset ctx stack 0 1 (* one task *);
    Api.iset ctx stack 1 0 (* no busy workers *);
    Api.iset ctx stack 2 0;
    Api.iset ctx stack 3 (p.n - 1)
  end;
  Api.barrier ctx 0;
  let push lo hi =
    Api.with_lock ctx lock_stack (fun () ->
        let top = Api.iget ctx stack 0 in
        if top >= stack_capacity then
          failwith "Quicksort: shared task stack overflow (raise stack_capacity)";
        Api.iset ctx stack (2 + (2 * top)) lo;
        Api.iset ctx stack (3 + (2 * top)) hi;
        Api.iset ctx stack 0 (top + 1))
  in
  (* Pop a task, or learn that the sort is complete.  The busy counter
     makes termination sound: an empty stack only means "done" once no
     worker can still push. *)
  let pop () =
    Api.with_lock ctx lock_stack (fun () ->
        let top = Api.iget ctx stack 0 in
        if top > 0 then begin
          Api.iset ctx stack 0 (top - 1);
          Api.iset ctx stack 1 (Api.iget ctx stack 1 + 1);
          `Task (Api.iget ctx stack (2 + (2 * (top - 1))), Api.iget ctx stack (3 + (2 * (top - 1))))
        end
        else if Api.iget ctx stack 1 = 0 then `Done
        else `Wait)
  in
  let finish_task () =
    Api.with_lock ctx lock_stack (fun () -> Api.iset ctx stack 1 (Api.iget ctx stack 1 - 1))
  in
  let rec sort_range lo hi =
    if hi - lo + 1 < p.threshold then begin
      if lo < hi then bubble_sort ctx p data lo hi
    end
    else begin
      let mid = partition ctx p data lo hi in
      (* Push the left half for someone else, keep the right. *)
      push lo mid;
      sort_range (mid + 1) hi
    end
  in
  let rec work () =
    match pop () with
    | `Done -> ()
    | `Wait ->
      (* back off 5ms before re-polling the stack lock *)
      Api.compute_ns ctx 5_000_000;
      work ()
    | `Task (lo, hi) ->
      sort_range lo hi;
      finish_task ();
      work ()
  in
  work ();
  Api.barrier ctx 1;
  if pid = 0 && collect then Some (Array.init p.n (fun i -> Api.iget ctx data i)) else None
