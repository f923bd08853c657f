open Tmk_sim

type caps = {
  c_crash_runs : bool;
  c_zero_recovery : bool;
  c_diff_backup : bool;
  c_max_procs : int;
}

type payload = {
  p_bytes : int;
  p_parts : int;
  p_absorb : charge:Node.charge -> unit;
}

type arrival = {
  v_bytes : int;
  v_parts : int;
  v_absorb_mgr : charge:Node.charge -> unit;
  v_release : charge:Node.charge -> payload;
}

type acq = { a_grant : granter:int -> charge:Node.charge -> payload }

type t = {
  b_caps : caps;
  b_handle_fault : pid:int -> Tmk_mem.Vm.access -> int -> unit;
  b_lock_request_bytes : int;
  b_pre_acquire : pid:int -> unit;
  b_make_acquire : pid:int -> acq;
  b_pre_release : pid:int -> unit;
  b_pre_barrier : pid:int -> unit;
  b_barrier_begin : pid:int -> unit;
  b_make_arrival : pid:int -> mgr:int -> relay:bool -> arrival;
  b_barrier_depart : pid:int -> unit;
  b_want_gc : pid:int -> bool;
  b_gc_validate : pid:int -> unit;
  b_on_death : int -> unit;
}

(* Plain-synchronization payloads: a fixed-size header, no piggybacked
   consistency records, a flat incorporation charge at the receiver. *)

let plain_absorb ~charge = charge Category.Tmk_consistency Cpu.incorporate_base

let plain_grant ~nprocs ~granter:_ ~charge =
  charge Category.Unix_comm Cpu.lock_grant_kernel;
  charge Category.Tmk_other Cpu.lock_grant_dsm;
  { p_bytes = Wire.lock_grant_bytes ~nprocs []; p_parts = 1; p_absorb = plain_absorb }

let plain_release ~nprocs =
  { p_bytes = Wire.barrier_release_bytes ~nprocs []; p_parts = 1; p_absorb = plain_absorb }

let noop_pid ~pid:_ = ()

let plain caps ~nprocs ~fault =
  let acq = { a_grant = plain_grant ~nprocs } in
  let arrival =
    {
      v_bytes = Wire.barrier_arrival_bytes ~nprocs [];
      v_parts = 1;
      v_absorb_mgr = plain_absorb;
      v_release = (fun ~charge:_ -> plain_release ~nprocs);
    }
  in
  {
    b_caps = caps;
    b_handle_fault = fault;
    b_lock_request_bytes = Wire.lock_request_bytes ~nprocs;
    b_pre_acquire = noop_pid;
    b_make_acquire = (fun ~pid:_ -> acq);
    b_pre_release = noop_pid;
    b_pre_barrier = noop_pid;
    b_barrier_begin = noop_pid;
    b_make_arrival = (fun ~pid:_ ~mgr:_ ~relay:_ -> arrival);
    b_barrier_depart = noop_pid;
    b_want_gc = (fun ~pid:_ -> false);
    b_gc_validate = noop_pid;
    b_on_death = (fun _ -> ());
  }
