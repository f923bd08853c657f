(** CPU costs of the TreadMarks protocol code paths (user level).

    Together with {!Tmk_net.Params} (kernel communication) and
    {!Tmk_mem.Costs} (memory management), these constants are calibrated
    so the simulator reproduces the paper's §4.2 microbenchmarks:
    827/1149 µs lock acquires, 2186 µs 8-processor barrier, 2792 µs remote
    page fault.  The calibration tests in [test/test_calibration.ml] pin
    them.  Categories: all of these are TreadMarks user-level time;
    interval/write-notice bookkeeping is [Tmk_consistency], request
    marshalling and synchronization handling is [Tmk_other]. *)

open Tmk_sim

(** [lock_request_build_kernel] / [_dsm] — assembling an acquire request
    (requester), split into its kernel part (signal masking, socket
    bookkeeping, [Unix_comm]) and its DSM part (marshalling,
    [Tmk_other]). *)
val lock_request_build_kernel : Vtime.t
val lock_request_build_dsm : Vtime.t

(** [lock_grant_kernel] / [_dsm] — release-side processing of a grant:
    deciding the interval delta and marshalling it (excludes per-interval
    costs); split like {!lock_request_build_kernel}. *)
val lock_grant_kernel : Vtime.t
val lock_grant_dsm : Vtime.t

(** [lock_forward] — manager forwarding a request to the last requester. *)
val lock_forward : Vtime.t

(** [lock_local] — reacquiring a cached lock without communication. *)
val lock_local : Vtime.t

(** [incorporate_base] — fixed cost of incorporating a sync message's
    consistency information. *)
val incorporate_base : Vtime.t

(** [incorporate_per_interval] — appending one interval record. *)
val incorporate_per_interval : Vtime.t

(** [incorporate_per_notice] — prepending one write-notice record (the
    page invalidation's mprotect is charged separately). *)
val incorporate_per_notice : Vtime.t

(** [interval_close_base] / [interval_close_per_page] — creating a new
    interval with a write notice per twinned page (§3.2). *)
val interval_close_base : Vtime.t

val interval_close_per_page : Vtime.t

(** [barrier_arrival_build_kernel] / [_dsm] — client-side arrival
    processing; split like {!lock_request_build_kernel}. *)
val barrier_arrival_build_kernel : Vtime.t
val barrier_arrival_build_dsm : Vtime.t

(** [barrier_release_per_client] — manager-side marshalling of one release
    message (excludes per-interval costs). *)
val barrier_release_per_client : Vtime.t

(** [fault_dispatch] — entering the DSM fault machinery from the SIGSEGV
    handler and classifying the miss. *)
val fault_dispatch : Vtime.t

(** [page_request_build] — assembling a page/diff fetch request. *)
val page_request_build : Vtime.t

(** [diff_lookup_per_entry] — locating one requested diff in the diff
    pool (server side). *)
val diff_lookup_per_entry : Vtime.t

(** [diff_cache_hit] — answering a diff fetch from the responder's served
    diff cache (batched mode), replacing the pool walk and any lazy RLE
    recomputation. *)
val diff_cache_hit : Vtime.t

(** [miss_plan] — computing the minimal processor set to query (§3.5's
    domination analysis), per write notice examined. *)
val miss_plan : Vtime.t

(** [erc_flush_per_page] — eager-release bookkeeping per dirty page
    beyond diff creation itself. *)
val erc_flush_per_page : Vtime.t

(** [gc_per_record] — discarding one consistency record during garbage
    collection. *)
val gc_per_record : Vtime.t

(** [manager_step] — one bookkeeping step of a page manager that
    serializes requests (SC: ownership and copyset update; Tardis:
    timestamp compare and bump), request queue maintenance included. *)
val manager_step : Vtime.t

(** [lease_sweep_per_page] — examining one cached page during a Tardis
    lease sweep (the invalidation's mprotect is charged separately). *)
val lease_sweep_per_page : Vtime.t

(** [abd_serve] — replica-side service of one SC-ABD quorum message
    (timestamp scan or word-filtered store application). *)
val abd_serve : Vtime.t

(** [abd_merge_per_reply] — requester-side word-wise merge of one quorum
    read reply. *)
val abd_merge_per_reply : Vtime.t
