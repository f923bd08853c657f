open Tmk_sim

(* Calibration (ATM/AAL3/4 kernel costs from Tmk_net.Params):

   lock, manager-is-releaser (827 µs):
     build(100) + send(87.2) + wire(14.2)
     + deliver_handler(165) + recv(87.2) + grant(97) + send(80.8) + wire(14.2)
     + deliver_blocked(80) + recv(80.8) + incorporate(20)           = 826.5

   lock, one forwarding hop (1149 µs paper, 1171 µs model):
     adds deliver_handler(165) + recv(80) + forward(5) + send(80) + wire(14.2)

   8-processor barrier (2186 µs paper, ~2178 µs model): clients arrive
   together; the manager's SIGIO handler pays the full dispatch once and
   drains the remaining six arrivals back-to-back.

   4096-byte page fault (2792 µs paper, ~2791 µs model):
     sigsegv(45) + fault_dispatch(40) + page_request_build(55) + send(80)
     + wire(14.2) + deliver_handler(165) + recv(80) + page_copy(35)
     + send(80 + 4096·0.2) + wire(10 + 4104·0.08)
     + deliver_blocked(80) + recv(80 + 4096·0.2)
     + page_copy(35) + mprotect(25) *)

(* The lock-path remainders are split between kernel work (signal masking
   around the lock internals, socket bookkeeping: Unix_comm) and DSM code
   (request marshalling: Tmk_other), preserving the calibrated totals.
   This reflects the paper's accounting, where Unix overhead is at least
   three times the TreadMarks overhead for every application (Figure 5)
   and TreadMarks overhead is dominated by memory management, not
   synchronization handling (Figure 7). *)
let lock_request_build_kernel = Vtime.us 70
let lock_request_build_dsm = Vtime.us 30
let lock_grant_kernel = Vtime.us 60
let lock_grant_dsm = Vtime.us 37
let lock_forward = Vtime.us 5
let lock_local = Vtime.us 4

let incorporate_base = Vtime.us 20
let incorporate_per_interval = Vtime.us 6
let incorporate_per_notice = Vtime.us 2

let interval_close_base = Vtime.us 12
let interval_close_per_page = Vtime.us 3

let barrier_arrival_build_kernel = Vtime.us 25
let barrier_arrival_build_dsm = Vtime.us 15
let barrier_release_per_client = Vtime.us 10

let fault_dispatch = Vtime.us 40
let page_request_build = Vtime.us 55
let diff_lookup_per_entry = Vtime.us 4
let diff_cache_hit = Vtime.us 1
let miss_plan = Vtime.us 2

let erc_flush_per_page = Vtime.us 8
let gc_per_record = Vtime.ns 300

(* SC and Tardis: one page-manager bookkeeping step per protocol action
   (ownership or timestamp update, request queue maintenance). *)
let manager_step = Vtime.us 25
let lease_sweep_per_page = Vtime.ns 200

(* SC-ABD: replica-side service of one quorum message (timestamp scan or
   word-filtered store application). *)
let abd_serve = Vtime.us 15
let abd_merge_per_reply = Vtime.us 10
