open Tmk_dsm
module Workload = Tmk_workload.Workload

type params = { ncities : int; prefix_depth : int; seed : int64; flops_per_node : int }

let default = { ncities = 11; prefix_depth = 3; seed = 7L; flops_per_node = 40 }

type result = { best : int; nodes_expanded : int }

let lock_queue = 0
let lock_bound = 1

let pages_needed p =
  let n = p.ncities in
  (* distance matrix + tasks + bound + counters, all small *)
  let task_count =
    let rec perms depth acc = if depth = 0 then acc else perms (depth - 1) (acc * (n - depth)) in
    perms (p.prefix_depth - 1) 1
  in
  ignore task_count;
  (* the distance matrix plus three page-aligned singleton structures *)
  ((n * n * 8) / Tmk_mem.Vm.page_size) + 6

(* Nearest-neighbour heuristic: the initial bound. *)
let heuristic_bound dist n =
  let visited = Array.make n false in
  visited.(0) <- true;
  let total = ref 0 and current = ref 0 in
  for _ = 1 to n - 1 do
    let best_city = ref (-1) and best_d = ref max_int in
    for c = 0 to n - 1 do
      if (not visited.(c)) && dist.(!current).(c) < !best_d then begin
        best_city := c;
        best_d := dist.(!current).(c)
      end
    done;
    visited.(!best_city) <- true;
    total := !total + !best_d;
    current := !best_city
  done;
  !total + dist.(!current).(0)

(* Enumerate tour prefixes of the given length starting at city 0, in a
   fixed order; these are the work-queue tasks. *)
let make_tasks n depth =
  let tasks = ref [] in
  let rec extend prefix used len =
    if len = depth then tasks := List.rev prefix :: !tasks
    else
      for c = 1 to n - 1 do
        if not (List.mem c used) then extend (c :: prefix) (c :: used) (len + 1)
      done
  in
  extend [ 0 ] [ 0 ] 1;
  List.rev !tasks

(* Depth-first search below a prefix.  [read_bound]/[try_update] abstract
   the shared bound so the same search serves both implementations;
   [charge] accounts per-node work. *)
let search ~dist ~n ~read_bound ~try_update ~charge prefix =
  let nodes = ref 0 in
  let visited = Array.make n false in
  let rec dfs city len path_cities =
    incr nodes;
    charge ();
    if len >= read_bound () then () (* prune on the (possibly stale) bound *)
    else if path_cities = n then begin
      let tour = len + dist.(city).(0) in
      try_update tour
    end
    else
      for next = 1 to n - 1 do
        if not visited.(next) then begin
          visited.(next) <- true;
          dfs next (len + dist.(city).(next)) (path_cities + 1);
          visited.(next) <- false
        end
      done
  in
  let rec prefix_len = function
    | [] | [ _ ] -> 0
    | a :: (b :: _ as rest) -> dist.(a).(b) + prefix_len rest
  in
  List.iter (fun c -> visited.(c) <- true) prefix;
  let last = List.nth prefix (List.length prefix - 1) in
  dfs last (prefix_len prefix) (List.length prefix);
  !nodes

(* The initial bound is deliberately loose (a long artificial tour rather
   than the nearest-neighbour heuristic): early tours then improve the
   bound many times, which is what makes the timeliness of bound
   propagation — the LRC/ERC difference of section 5.2 — observable. *)
let initial_bound dist n = 2 * heuristic_bound dist n

let sequential p =
  let _, dist = Workload.cities ~n:p.ncities ~seed:p.seed in
  let n = p.ncities in
  let best = ref (initial_bound dist n) in
  let tasks = make_tasks n p.prefix_depth in
  let nodes = ref 0 in
  List.iter
    (fun prefix ->
      nodes :=
        !nodes
        + search ~dist ~n
            ~read_bound:(fun () -> !best)
            ~try_update:(fun tour -> if tour < !best then best := tour)
            ~charge:(fun () -> ())
            prefix)
    tasks;
  { best = !best; nodes_expanded = !nodes }

let parallel ctx p =
  let n = p.ncities in
  let pid = Api.pid ctx and nprocs = Api.nprocs ctx in
  let _, dist = Workload.cities ~n ~seed:p.seed in
  let tasks = make_tasks n p.prefix_depth in
  let ntasks = List.length tasks in
  (* Shared state: distance matrix (read-only after init), the task
     cursor, the bound, and per-processor node counters. *)
  let sh_dist = Api.ialloc ctx (n * n) in
  let sh_cursor = Api.ialloc ~align:Tmk_mem.Vm.page_size ctx 1 in
  let sh_bound = Api.ialloc ~align:Tmk_mem.Vm.page_size ctx 1 in
  let sh_nodes = Api.ialloc ~align:Tmk_mem.Vm.page_size ctx nprocs in
  if pid = 0 then begin
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        Api.iset ctx sh_dist ((i * n) + j) dist.(i).(j)
      done
    done;
    Api.iset ctx sh_cursor 0 0;
    Api.iset ctx sh_bound 0 (initial_bound dist n);
    for q = 0 to nprocs - 1 do
      Api.iset ctx sh_nodes q 0
    done
  end;
  Api.barrier ctx 0;
  (* Cache the read-only matrix locally, as the real program's loads
     would after the first fault per page. *)
  let local_dist =
    Array.init n (fun i -> Array.init n (fun j -> Api.iget ctx sh_dist ((i * n) + j)))
  in
  let task_arr = Array.of_list tasks in
  let bound_now () = Api.iget ctx sh_bound 0 in
  let my_nodes = ref 0 in
  let rec work () =
    let idx =
      Api.with_lock ctx lock_queue (fun () ->
          let i = Api.iget ctx sh_cursor 0 in
          if i < ntasks then Api.iset ctx sh_cursor 0 (i + 1);
          i)
    in
    if idx < ntasks then begin
      let expanded =
        search ~dist:local_dist ~n
          ~read_bound:(fun () ->
            (* ordinary, unsynchronized read: the §5.2 behaviour — a stale
               bound only costs extra search, so the race is the
               algorithm's design and is annotated as such *)
            Api.unsynchronized ctx bound_now)
          ~try_update:(fun tour ->
            Api.with_lock ctx lock_bound (fun () ->
                if tour < Api.iget ctx sh_bound 0 then Api.iset ctx sh_bound 0 tour))
          ~charge:(fun () -> Api.compute_flops ctx p.flops_per_node)
          task_arr.(idx)
      in
      my_nodes := !my_nodes + expanded;
      work ()
    end
  in
  work ();
  Api.iset ctx sh_nodes pid !my_nodes;
  Api.barrier ctx 1;
  if pid = 0 then begin
    let total = ref 0 in
    for q = 0 to nprocs - 1 do
      total := !total + Api.iget ctx sh_nodes q
    done;
    Some { best = Api.iget ctx sh_bound 0; nodes_expanded = !total }
  end
  else None
