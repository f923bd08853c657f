let id_bytes = 2
let write_notice_bytes = 2

let interval_header_bytes ~nprocs = id_bytes + Vector_time.bytes nprocs

let intervals_bytes ~nprocs counts =
  List.fold_left
    (fun acc notices -> acc + interval_header_bytes ~nprocs + (notices * write_notice_bytes))
    0 counts

let lock_request_bytes ~nprocs = (2 * id_bytes) + Vector_time.bytes nprocs

let lock_grant_bytes ~nprocs counts = (2 * id_bytes) + intervals_bytes ~nprocs counts

let barrier_arrival_bytes ~nprocs counts =
  (2 * id_bytes) + Vector_time.bytes nprocs + intervals_bytes ~nprocs counts

let barrier_release_bytes ~nprocs counts = (2 * id_bytes) + intervals_bytes ~nprocs counts

let gathered_diff_request_bytes n_entries = id_bytes + (n_entries * (3 * id_bytes))

let gathered_diff_reply_bytes encoded_sizes =
  List.fold_left (fun acc sz -> acc + (4 * id_bytes) + sz) 0 encoded_sizes

let page_request_bytes = 2 * id_bytes
let page_reply_bytes = id_bytes + Tmk_mem.Vm.page_size

let erc_update_bytes encoded_size = (2 * id_bytes) + encoded_size
let ack_bytes = id_bytes

let gc_keep_bitmap_bytes ~npages = id_bytes + ((npages + 7) / 8)

(* Failure machinery: a heartbeat probe is an empty frame plus ids; a
   death notice names the dead processor and the new epoch; a diff mirror
   carries one (proc, interval, page) key plus the encoded diff. *)
let heartbeat_bytes = 2 * id_bytes
let death_notice_bytes = 2 * id_bytes
let diff_backup_bytes encoded_size = (3 * id_bytes) + encoded_size

(* Tardis: logical timestamps are 64-bit counters; synchronization
   messages carry one scalar timestamp instead of a vector. *)
let ts_bytes = 8
let tardis_lock_request_bytes = 2 * id_bytes
let tardis_lock_grant_bytes = (2 * id_bytes) + ts_bytes
let tardis_barrier_arrival_bytes = (2 * id_bytes) + ts_bytes
let tardis_barrier_release_bytes = (2 * id_bytes) + ts_bytes
let tardis_page_request_bytes = (2 * id_bytes) + (2 * ts_bytes)
let tardis_page_reply_bytes ~with_page =
  id_bytes + (2 * ts_bytes) + if with_page then Tmk_mem.Vm.page_size else 0

(* SC-ABD: word-granularity last-writer-wins replicas.  A read reply
   carries the page plus one compressed (32-bit) timestamp per 8-byte
   word; a store carries one diff plus the writer's timestamp per page. *)
let abd_words_per_page = Tmk_mem.Vm.page_size / 8
let abd_wordts_bytes = abd_words_per_page * 4
let abd_read_request_bytes = 2 * id_bytes
let abd_read_reply_bytes = id_bytes + Tmk_mem.Vm.page_size + abd_wordts_bytes
let abd_ts_query_bytes n_pages = id_bytes + (n_pages * id_bytes)
let abd_ts_reply_bytes n_pages = id_bytes + (n_pages * ts_bytes)
let abd_store_bytes encoded_sizes =
  List.fold_left (fun acc sz -> acc + id_bytes + ts_bytes + sz) id_bytes encoded_sizes
let abd_writeback_bytes = id_bytes + Tmk_mem.Vm.page_size + abd_wordts_bytes
let abd_sync_bytes = 2 * id_bytes
