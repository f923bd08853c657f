open Tmk_sim

type stall = { st_pid : int; st_start : Vtime.t; st_len : Vtime.t }
type crash = { cr_pid : int; cr_at : Vtime.t }

type t = {
  loss : float;
  dup : float;
  reorder : float;
  reorder_window : Vtime.t;
  stalls : stall list;
  unreachable : int list;
  crashes : crash list;
}

let none =
  {
    loss = 0.0;
    dup = 0.0;
    reorder = 0.0;
    reorder_window = Vtime.us 200;
    stalls = [];
    unreachable = [];
    crashes = [];
  }

let check_rate name r =
  if r < 0.0 || r >= 1.0 then
    invalid_arg (Printf.sprintf "Fault_plan: %s rate %g not in [0,1)" name r)

let validate t =
  check_rate "loss" t.loss;
  check_rate "duplication" t.dup;
  check_rate "reordering" t.reorder;
  if t.reorder_window < Vtime.zero then invalid_arg "Fault_plan: negative reorder window";
  List.iter
    (fun s ->
      if s.st_pid < 0 then invalid_arg "Fault_plan: negative stall pid";
      if s.st_len < Vtime.zero then invalid_arg "Fault_plan: negative stall length")
    t.stalls;
  List.iter
    (fun c ->
      if c.cr_pid < 0 then invalid_arg "Fault_plan: negative crash pid";
      if c.cr_at < Vtime.zero then invalid_arg "Fault_plan: negative crash time")
    t.crashes;
  let pids = List.map (fun c -> c.cr_pid) t.crashes in
  if List.length (List.sort_uniq compare pids) <> List.length pids then
    invalid_arg "Fault_plan: a processor crashes at most once"

let with_loss t rate =
  check_rate "loss" rate;
  { t with loss = rate }

let with_dup t rate =
  check_rate "duplication" rate;
  { t with dup = rate }

let with_reorder ?window t rate =
  check_rate "reordering" rate;
  let reorder_window = Option.value ~default:t.reorder_window window in
  { t with reorder = rate; reorder_window }

let with_stall t ~pid ~start ~len =
  { t with stalls = { st_pid = pid; st_start = start; st_len = len } :: t.stalls }

let with_unreachable t pid = { t with unreachable = pid :: t.unreachable }

let with_crash t ~pid ~at =
  if List.exists (fun c -> c.cr_pid = pid) t.crashes then
    invalid_arg (Printf.sprintf "Fault_plan: processor %d already crashes" pid);
  { t with crashes = { cr_pid = pid; cr_at = at } :: t.crashes }

(* Crash times in injection order: ascending time, then pid, so the
   protocol schedules them deterministically whatever order the plan was
   built in. *)
let crashes t =
  List.sort
    (fun a b -> compare (a.cr_at, a.cr_pid) (b.cr_at, b.cr_pid))
    t.crashes

let is_faulty t =
  t.loss > 0.0 || t.dup > 0.0 || t.reorder > 0.0 || t.unreachable <> [] || t.crashes <> []

let unreachable_link t ~src ~dst =
  List.mem src t.unreachable || List.mem dst t.unreachable

(* A frame arriving (or a timer delivering work) to a stalled processor
   waits until the end of every stall window covering [at]: the handler
   loop is paused, as if the process were descheduled or the host
   momentarily frozen.  Windows may abut or nest, so iterate to a fixed
   point. *)
let stall_until t ~pid ~at =
  let rec settle at =
    let pushed =
      List.fold_left
        (fun acc s ->
          if s.st_pid = pid && s.st_start <= acc && acc < Vtime.add s.st_start s.st_len
          then Vtime.add s.st_start s.st_len
          else acc)
        at t.stalls
    in
    if pushed > at then settle pushed else at
  in
  settle at

(* "pid@start_us+len_us", comma-separated, e.g. "1@2000+500,3@0+10000". *)
let parse_stalls spec =
  let parse_one s =
    match String.split_on_char '@' (String.trim s) with
    | [ pid; rest ] ->
      (match String.split_on_char '+' rest with
      | [ start; len ] ->
        {
          st_pid = int_of_string pid;
          st_start = Vtime.us (int_of_string start);
          st_len = Vtime.us (int_of_string len);
        }
      | _ -> invalid_arg (Printf.sprintf "Fault_plan.parse_stalls: bad window %S" s))
    | _ ->
      invalid_arg
        (Printf.sprintf "Fault_plan.parse_stalls: %S is not pid@start_us+len_us" s)
  in
  match String.trim spec with
  | "" -> []
  | spec -> List.map parse_one (String.split_on_char ',' spec)

(* "pid@t_us", comma-separated, e.g. "3@5000,1@20000". *)
let parse_crashes spec =
  let parse_one s =
    match String.split_on_char '@' (String.trim s) with
    | [ pid; at ] -> (
      match (int_of_string_opt pid, int_of_string_opt at) with
      | Some pid, Some at -> { cr_pid = pid; cr_at = Vtime.us at }
      | _ -> invalid_arg (Printf.sprintf "Fault_plan.parse_crashes: bad crash %S" s))
    | _ ->
      invalid_arg (Printf.sprintf "Fault_plan.parse_crashes: %S is not pid@t_us" s)
  in
  match String.trim spec with
  | "" -> []
  | spec -> List.map parse_one (String.split_on_char ',' spec)

let describe t =
  if not (is_faulty t) && t.stalls = [] then "no faults"
  else begin
    let parts = ref [] in
    let addf fmt = Printf.ksprintf (fun s -> parts := s :: !parts) fmt in
    if t.loss > 0.0 then addf "loss %.1f%%" (t.loss *. 100.0);
    if t.dup > 0.0 then addf "dup %.1f%%" (t.dup *. 100.0);
    if t.reorder > 0.0 then
      addf "reorder %.1f%% (window %.0fus)" (t.reorder *. 100.0)
        (Vtime.to_us t.reorder_window);
    List.iter
      (fun s ->
        addf "stall p%d @%.0fus +%.0fus" s.st_pid (Vtime.to_us s.st_start)
          (Vtime.to_us s.st_len))
      t.stalls;
    List.iter (fun p -> addf "p%d unreachable" p) t.unreachable;
    List.iter (fun c -> addf "crash p%d @%.0fus" c.cr_pid (Vtime.to_us c.cr_at)) (crashes t);
    String.concat ", " (List.rev !parts)
  end
