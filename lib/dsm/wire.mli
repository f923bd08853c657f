(** Wire-format sizes of the protocol messages.

    Payloads travel as OCaml values in the simulation; these functions
    compute the byte counts the real encodings would occupy, which drive
    the transport's timing and the paper's message/data-rate statistics.
    Write notices are "a fixed 16-bit entry containing the page number"
    (§3.3); vector timestamps use 32-bit entries; ids are 16-bit.

    Lock grants, barrier arrivals and barrier releases carry a batch of
    intervals, given as [counts], the number of write notices of each
    interval: each interval is a processor id and its vector timestamp,
    followed by its 2-byte write notices. *)

(** [lock_request_bytes ~nprocs] — lock id, requester id, requester VT. *)
val lock_request_bytes : nprocs:int -> int

(** [lock_grant_bytes ~nprocs counts] — grant header plus piggybacked
    intervals. *)
val lock_grant_bytes : nprocs:int -> int list -> int

(** [barrier_arrival_bytes ~nprocs counts] — client VT plus the client's
    new intervals. *)
val barrier_arrival_bytes : nprocs:int -> int list -> int

(** [barrier_release_bytes ~nprocs counts] — per-client release with the
    manager's merged intervals. *)
val barrier_release_bytes : nprocs:int -> int list -> int

(** [gathered_diff_request_bytes n_entries] — a diff request, which can
    gather entries for several pages: an entry count plus [n_entries]
    (page, processor, interval index) triples. *)
val gathered_diff_request_bytes : int -> int

(** [gathered_diff_reply_bytes encoded_sizes] — the reply to a diff
    request: per-diff header (page, proc, interval index, encoded length)
    plus each diff's runlength encoding. *)
val gathered_diff_reply_bytes : int list -> int

(** [page_request_bytes] / [page_reply_bytes] — full-page fetch on a cold
    miss. *)
val page_request_bytes : int

val page_reply_bytes : int

(** [erc_update_bytes encoded_size] — one eager diff update message. *)
val erc_update_bytes : int -> int

(** [ack_bytes] — an ERC update acknowledgement. *)
val ack_bytes : int

(** [gc_keep_bitmap_bytes ~npages] — the pages-kept bitmap exchanged
    during garbage collection. *)
val gc_keep_bitmap_bytes : npages:int -> int

(** [heartbeat_bytes] — one failure-detector probe (ids only). *)
val heartbeat_bytes : int

(** [death_notice_bytes] — dead processor id plus the new epoch. *)
val death_notice_bytes : int

(** [diff_backup_bytes encoded_size] — one mirrored diff: its
    (processor, interval index, page) key plus the runlength encoding. *)
val diff_backup_bytes : int -> int

(** {2 Tardis} — synchronization carries one 64-bit scalar timestamp
    instead of a vector; page traffic carries (wts, rts) counter pairs. *)

val tardis_lock_request_bytes : int
val tardis_lock_grant_bytes : int
val tardis_barrier_arrival_bytes : int
val tardis_barrier_release_bytes : int

(** [tardis_page_request_bytes] — page id, requester id, requester
    timestamp, held-copy version. *)
val tardis_page_request_bytes : int

(** [tardis_page_reply_bytes ~with_page] — (wts, rts) pair plus the page
    contents unless the requester's cached version is current. *)
val tardis_page_reply_bytes : with_page:bool -> int

(** {2 SC-ABD} — quorum-replicated word-granularity LWW stores. *)

val abd_words_per_page : int

val abd_read_request_bytes : int

(** [abd_read_reply_bytes] — page contents plus per-word timestamps. *)
val abd_read_reply_bytes : int

(** [abd_ts_query_bytes n] / [abd_ts_reply_bytes n] — flush phase 1: the
    dirty page list, answered by per-page maximum timestamps. *)
val abd_ts_query_bytes : int -> int

val abd_ts_reply_bytes : int -> int

(** [abd_store_bytes encoded_sizes] — flush phase 2: one store message
    carrying each dirty page's diff plus the writer's timestamp. *)
val abd_store_bytes : int list -> int

(** [abd_writeback_bytes] — a read-repair write-back (full page plus
    word timestamps). *)
val abd_writeback_bytes : int

(** [abd_sync_bytes] — an SC-ABD lock/barrier control message: ids only
    (synchronization carries no consistency payload at all). *)
val abd_sync_bytes : int
