type protocol = Lrc | Erc | Sc | Tardis | Sc_abd

type t = {
  nprocs : int;
  pages : int;
  protocol : protocol;
  net : Tmk_net.Params.t;
  faults : Tmk_net.Fault_plan.t;
  gc_threshold : int;
  seed : int64;
  lazy_diffs : bool;
  lrc_updates : bool;
  batching : bool;
  diff_backup : bool;
  sharding : bool;
  barrier_tree : bool;
  tree_arity : int;
  trace : Tmk_trace.Sink.t option;
  check : Tmk_check.Checker.t option;
}

let default =
  {
    nprocs = 8;
    pages = 256;
    protocol = Lrc;
    net = Tmk_net.Params.atm_aal34;
    faults = Tmk_net.Fault_plan.none;
    gc_threshold = max_int;
    seed = 1L;
    lazy_diffs = true;
    lrc_updates = false;
    batching = true;
    diff_backup = false;
    sharding = false;
    barrier_tree = false;
    tree_arity = 4;
    trace = None;
    check = None;
  }

let validate t =
  if t.nprocs < 1 then invalid_arg "Config: nprocs must be >= 1";
  if t.pages < 1 then invalid_arg "Config: pages must be >= 1";
  if t.gc_threshold < 1 then invalid_arg "Config: gc_threshold must be >= 1";
  if t.tree_arity < 2 then invalid_arg "Config: tree_arity must be >= 2";
  if t.barrier_tree && Tmk_net.Fault_plan.crashes t.faults <> [] then
    invalid_arg "Config: barrier_tree does not support crash schedules";
  Tmk_net.Fault_plan.validate t.faults;
  List.iter
    (fun p ->
      if p < 0 || p >= t.nprocs then
        invalid_arg "Config: unreachable pid outside the cluster")
    t.faults.Tmk_net.Fault_plan.unreachable;
  List.iter
    (fun s ->
      if s.Tmk_net.Fault_plan.st_pid >= t.nprocs then
        invalid_arg "Config: stall pid outside the cluster")
    t.faults.Tmk_net.Fault_plan.stalls;
  List.iter
    (fun c ->
      if c.Tmk_net.Fault_plan.cr_pid >= t.nprocs then
        invalid_arg "Config: crash pid outside the cluster")
    t.faults.Tmk_net.Fault_plan.crashes;
  (* The pids are distinct and in range, so as many crashes as
     processors kill them all: no survivor could detect, recover or
     finish, and the failure detector would poll forever. *)
  if List.length t.faults.Tmk_net.Fault_plan.crashes >= t.nprocs then
    invalid_arg "Config: the crash schedule names every processor";
  (* Whether crash schedules or diff_backup are admissible depends on the
     selected coherence backend's capabilities; Protocol.create checks
     them against [Backend.caps] (this module cannot: the backend modules
     sit above it in the dependency order). *)
  match t.check with
  | None -> ()
  | Some c ->
    (match Tmk_check.Checker.race c with
    | Some r ->
      if Tmk_check.Race.nprocs r <> t.nprocs then
        invalid_arg "Config: race detector sized for a different cluster";
      if Tmk_check.Race.pages r <> t.pages then
        invalid_arg "Config: race detector sized for a different address space"
    | None -> ());
    (match Tmk_check.Checker.oracle c with
    | Some o ->
      if Tmk_check.Oracle.nprocs o <> t.nprocs then
        invalid_arg "Config: invariant oracle sized for a different cluster"
    | None -> ())

let protocol_name = function
  | Lrc -> "lazy"
  | Erc -> "eager"
  | Sc -> "sc"
  | Tardis -> "tardis"
  | Sc_abd -> "sc-abd"

let protocol_description = function
  | Lrc -> "lazy release consistency"
  | Erc -> "eager release consistency"
  | Sc -> "sequentially-consistent single-writer"
  | Tardis -> "tardis timestamp coherence"
  | Sc_abd -> "sc-abd quorum replication"

let all_protocols = [ Lrc; Erc; Sc; Tardis; Sc_abd ]

let protocol_of_string s =
  match String.lowercase_ascii s with
  | "lazy" | "lrc" -> Lrc
  | "eager" | "erc" -> Erc
  | "sc" | "single-writer" -> Sc
  | "tardis" -> Tardis
  | "sc-abd" | "abd" -> Sc_abd
  | other ->
    invalid_arg
      (Printf.sprintf "Config.protocol_of_string: unknown protocol %S (valid: %s)" other
         (String.concat ", " (List.map protocol_name all_protocols)))
