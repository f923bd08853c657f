type t = {
  mutable lock_acquires : int;
  mutable lock_remote : int;
  mutable barriers : int;
  mutable read_faults : int;
  mutable write_faults : int;
  mutable remote_misses : int;
  mutable twins_created : int;
  mutable diffs_created : int;
  mutable diffs_applied : int;
  mutable diff_bytes_created : int;
  mutable write_notices_in : int;
  mutable intervals_in : int;
  mutable page_fetches : int;
  mutable gc_runs : int;
  mutable records_discarded : int;
  mutable diff_cache_hits : int;
  mutable diff_cache_misses : int;
  mutable diff_prefetch_entries : int;
  mutable diff_backups : int;
  mutable diff_backup_bytes : int;
  mutable lease_expiries : int;
  mutable quorum_reads : int;
  mutable quorum_writes : int;
}

let create () =
  {
    lock_acquires = 0;
    lock_remote = 0;
    barriers = 0;
    read_faults = 0;
    write_faults = 0;
    remote_misses = 0;
    twins_created = 0;
    diffs_created = 0;
    diffs_applied = 0;
    diff_bytes_created = 0;
    write_notices_in = 0;
    intervals_in = 0;
    page_fetches = 0;
    gc_runs = 0;
    records_discarded = 0;
    diff_cache_hits = 0;
    diff_cache_misses = 0;
    diff_prefetch_entries = 0;
    diff_backups = 0;
    diff_backup_bytes = 0;
    lease_expiries = 0;
    quorum_reads = 0;
    quorum_writes = 0;
  }

let add ~into t =
  into.lock_acquires <- into.lock_acquires + t.lock_acquires;
  into.lock_remote <- into.lock_remote + t.lock_remote;
  into.barriers <- into.barriers + t.barriers;
  into.read_faults <- into.read_faults + t.read_faults;
  into.write_faults <- into.write_faults + t.write_faults;
  into.remote_misses <- into.remote_misses + t.remote_misses;
  into.twins_created <- into.twins_created + t.twins_created;
  into.diffs_created <- into.diffs_created + t.diffs_created;
  into.diffs_applied <- into.diffs_applied + t.diffs_applied;
  into.diff_bytes_created <- into.diff_bytes_created + t.diff_bytes_created;
  into.write_notices_in <- into.write_notices_in + t.write_notices_in;
  into.intervals_in <- into.intervals_in + t.intervals_in;
  into.page_fetches <- into.page_fetches + t.page_fetches;
  into.gc_runs <- into.gc_runs + t.gc_runs;
  into.records_discarded <- into.records_discarded + t.records_discarded;
  into.diff_cache_hits <- into.diff_cache_hits + t.diff_cache_hits;
  into.diff_cache_misses <- into.diff_cache_misses + t.diff_cache_misses;
  into.diff_prefetch_entries <- into.diff_prefetch_entries + t.diff_prefetch_entries;
  into.diff_backups <- into.diff_backups + t.diff_backups;
  into.diff_backup_bytes <- into.diff_backup_bytes + t.diff_backup_bytes;
  into.lease_expiries <- into.lease_expiries + t.lease_expiries;
  into.quorum_reads <- into.quorum_reads + t.quorum_reads;
  into.quorum_writes <- into.quorum_writes + t.quorum_writes
