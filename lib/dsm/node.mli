(** Per-processor DSM state and consistency bookkeeping (§3.1–§3.2).

    Mirrors the paper's data structures: the {e PageArray} (page state,
    approximate copyset, write-notice lists of the page's writers), the
    {e ProcArray} (per-processor interval records), interval records
    carrying vector timestamps, write-notice records linked to their
    intervals, and the diff pool (diffs hang off write-notice records).

    On real workstations every processor keeps its own copy of each
    record.  The records are identical everywhere, so the simulator keeps
    one {!store} per cluster: each interval once, with one notice per
    (interval, page) that carries the diff once its creator makes it, and
    each page's notices grouped by writer.  A node keeps only what differs
    between nodes:
    - its vector timestamp [vt];
    - its GC floor [floor], its [vt] at its last discard;
    - per notice, two bits: whether it holds the diff and whether the
      diff is applied to its copy;
    - per page, its unsettled-notice frontier.

    A node's {e view} of processor [q] is the store's intervals with ids
    above [floor.(q)] up to [vt.(q)]; every walk below reads through it.  A diff
    in the shared record is not one the node holds: only its own bit says
    so.  The store drops an interval once every live node has discarded
    it ({!discard_all_records}, {!retire}).

    A notice is {e settled} at a node that holds its diff and has applied
    it.  The bits are cleared once, when the notice enters the view, so a
    settled notice stays settled until GC takes it out of the view.  Each
    notice has a sequence number, its place in the store's creation order,
    and each page entry records a frontier ([pg_unsettled]): no notice of
    the page in the view below it is unsettled.  An access miss walks each
    writer's notices newest first and stops at the frontier, so it costs
    what is unsettled, not the page's whole history
    ({!missing_diffs}, {!unapplied_diffs}).

    Functions here are pure bookkeeping plus simulated-cost charging; they
    never communicate.  They run either in the application process or in a
    request handler, so each takes a [charge] callback that routes CPU
    costs to the right accounting context. *)

open Tmk_sim

(** [charge cat dt] consumes [dt] of CPU in the caller's context. *)
type charge = Category.t -> Vtime.t -> unit

(** Write-notice record, one per (interval, page) for the cluster: page
    [wn_page] was modified in interval [wn_interval].  [wn_diff] is the
    diff once its creator has made it; whether a node holds it is
    {!diff}'s answer. *)
type write_notice = private {
  wn_page : int;
  wn_interval : interval;
  wn_seq : int;
      (** the notice's place in its store's creation order; a writer's
          notices for a page increase with its intervals *)
  mutable wn_diff : Tmk_util.Rle.t option;
  wn_bits : Bytes.t;  (** per node: holds the diff, diff applied *)
}

(** Interval record of processor [iv_proc], interval index [iv_id],
    stamped [iv_vt], one per interval for the cluster. *)
and interval = private {
  iv_proc : int;
  iv_id : int;
  iv_vt : Vector_time.t;
  mutable iv_notices : write_notice list;  (** in the creator's order *)
  mutable iv_msg : msg_interval option;
      (** the interval's wire form without piggybacked diffs, built at its
          first send and shared by every later one from any node *)
  mutable iv_holders : int;  (** live nodes that have not discarded it *)
}

(** Interval data as carried by synchronization messages.  Under the
    hybrid update protocol ([Config.lrc_updates]) each write notice can
    carry its diff. *)
and msg_interval = {
  mi_proc : int;
  mi_id : int;
  mi_vt : Vector_time.t;
  mi_pages : (int * Tmk_util.Rle.t option) list;
      (** in the creator's order, at every sender *)
}

(** The cluster's record store, and the pool of page buffers its nodes
    copy pages into ({!page_snapshot}). *)
type store

(** [create_store ~nprocs ~pages] — an empty store for a cluster of that
    shape, with an empty page pool.  Each cluster needs its own: clusters
    can run on parallel domains. *)
val create_store : nprocs:int -> pages:int -> store

(** PageArray entry. *)
type page_entry = {
  mutable pg_copyset : Tmk_util.Bitset.t;
      (** processors believed to cache the page.  An immutable value that
          entries share: a change of membership replaces it, through
          [Bitset.with_member], [Bitset.without_member] or [Bitset.union],
          and nothing mutates it in place.  Every entry of every node over
          one store starts from the store's one [{0}]. *)
  mutable pg_twin : Bytes.t option;
      (** a buffer from the store's pool, released when the twin becomes
          a diff; a GC round drops it *)
  mutable pg_flags : int;
      (** three flags, read and written through {!has_copy},
          {!fetched}, {!no_gather} and their setters *)
  mutable pg_unsettled : int;
      (** the unsettled-notice frontier: the smallest [wn_seq] that may
          be unsettled in the node's view, [max_int] when nothing is.
          Node's own: it is lowered as notices enter the view and reset
          by {!settle_page} and {!discard_all_records}. *)
}

(** [has_copy e] — false until a copy has been fetched (or initially
    held). *)
val has_copy : page_entry -> bool

val set_has_copy : page_entry -> bool -> unit

(** [fetched e] — armed by this processor's own access misses, disarmed by
    each speculative gather; gates multi-page diff gathering so a page the
    processor has stopped touching wastes at most one speculative fetch
    (see [Lrc.fetch_and_apply_diffs]). *)
val fetched : page_entry -> bool

val set_fetched : page_entry -> bool -> unit

(** [no_gather e] — set when a responder declined to serve this page's
    gathered entries (diffs too large to ride a reply); blocks further
    speculative gathering of the page until the next GC. *)
val no_gather : page_entry -> bool

val set_no_gather : page_entry -> bool -> unit

type t = {
  pid : int;
  nprocs : int;
  vm : Tmk_mem.Vm.t;
  store : store;  (** the cluster's records *)
  vt : Vector_time.t;  (** current vector timestamp *)
  mutable floor : Vector_time.t;  (** [vt] at the last discard: the view's lower end *)
  mutable snapshot : Vector_time.t option;
      (** an immutable copy of [vt] while it is unchanged; see {!snapshot} *)
  mutable next_interval : int;  (** index the next local interval will get *)
  pages : page_entry array;
  mutable dirty : int list;  (** pages twinned since the last interval creation *)
  mutable live_records : int;  (** intervals + notices + diffs held (GC trigger) *)
  diff_cache : (int * int * int, Tmk_util.Rle.t) Hashtbl.t;
      (** served-diff cache, keyed (proc, interval id, page); see
          {!cached_diff} *)
  backup_store : (int * int * int, Tmk_util.Rle.t) Hashtbl.t;
      (** diffs mirrored to this node as another processor's backup
          ({!Config.diff_backup}); cleared by {!discard_all_records} *)
  mutable on_diff_create :
    (page:int -> proc:int -> interval:int -> diff:Tmk_util.Rle.t -> unit) option;
      (** replication hook, fired when a local diff is attached to its
          notice; install with {!set_diff_hook} *)
  stats : Stats.t;
  emit : (Tmk_trace.Event.t -> unit) option;
      (** typed-trace hook; [None] disables emission entirely *)
}

(** [create ?emit ?store ~pid ~nprocs ~pages ()] — initial state:
    processor 0 holds every page [Read_only] (it is the initial copyset),
    everyone else holds nothing ([No_access], no copy).  The node keeps
    its records in [store] (default: a store of its own); nodes sharing a
    store need distinct pids.  [emit], when given, receives the node's
    bookkeeping events (twin creation, interval close, diff create/apply,
    invalidations, record receipt).
    @raise Invalid_argument when [store] has another shape. *)
val create :
  ?emit:(Tmk_trace.Event.t -> unit) ->
  ?store:store ->
  pid:int ->
  nprocs:int ->
  pages:int ->
  unit ->
  t

(** {2 Page copies}

    Every copy of a page is a buffer from the store's one pool
    ({!Tmk_mem.Vm.pool}).  A copy made for another node belongs to the
    message that carries it, and its one consumer releases it:
    {!validate_page} after the install, SC-ABD's stores after theirs.  A
    twin is released when it becomes a diff.  A copy nobody consumes — a
    message a crash dropped, the losing reply of a re-issued fetch, a twin
    a GC round drops — is left to the GC. *)

(** [page_snapshot t page] — [t]'s copy of [page] in a buffer from the
    pool, owned by the caller. *)
val page_snapshot : t -> int -> Bytes.t

(** [base_copy t page] — the base copy [t] serves for [page] (§3.5): its
    twin while the page is twinned, since the diffs the requester applies
    over the copy record changes from the state the twin holds, else its
    copy of the page; a buffer from the pool, owned by the caller. *)
val base_copy : t -> int -> Bytes.t

(** [release_copy t bytes] — give a consumed page copy back to the pool. *)
val release_copy : t -> Bytes.t -> unit

(** [write_fault_twin t page ~charge] — handle a write fault on a valid
    page: make the twin, upgrade to read-write (§3.7 SIGSEGV handler, twin
    branch). *)
val write_fault_twin : t -> int -> charge:charge -> unit

(** [close_interval t ~charge] — if any page was twinned since the last
    interval, start a new interval carrying one write notice per such page
    (§3.2).  No-op otherwise.  [eager_diffs:true] additionally creates
    every new notice's diff immediately (the Munin-style ablation of lazy
    diff creation, §2.4); default [false]. *)
val close_interval : ?eager_diffs:bool -> t -> charge:charge -> unit

(** [snapshot t] — an immutable copy of [t.vt], shared by every caller
    until [t.vt] next changes.  The timestamp of [t]'s newest interval is
    the first snapshot of the [vt] it closed with. *)
val snapshot : t -> Vector_time.t

(** [newest_vt t q] — the timestamp of [q]'s newest interval in [t]'s
    view, or the store's shared zero vector when the view holds none. *)
val newest_vt : t -> int -> Vector_time.t

(** [diff t wn] — [wn]'s diff when [t] holds it. *)
val diff : t -> write_notice -> Tmk_util.Rle.t option

(** [intervals_since t vt] — every interval in [t]'s view that [vt]
    does not cover, as message intervals ordered oldest-first per
    processor (the piggyback payload of §3.3/§3.4).  [attach] selects a
    piggybacked diff per write notice (hybrid update protocol), and each
    call builds fresh forms; without it nothing is attached, and every
    call returns each interval's one cached form ([iv_msg]). *)
val intervals_since :
  ?attach:(write_notice -> Tmk_util.Rle.t option) -> t -> Vector_time.t -> msg_interval list

(** [own_intervals_since t vt] — only [t]'s own intervals newer than
    [vt]'s entry for [t] (barrier arrival payload, §3.4). *)
val own_intervals_since :
  ?attach:(write_notice -> Tmk_util.Rle.t option) -> t -> Vector_time.t -> msg_interval list

(** [notice_counts intervals] — write-notice counts for {!Wire} sizing. *)
val notice_counts : msg_interval list -> int list

(** [update_bytes intervals] — total encoded size of the piggybacked
    diffs (zero under the invalidate protocol). *)
val update_bytes : msg_interval list -> int

(** [incorporate t intervals ~charge] — §3.3's "incorporate": bring the
    intervals into the view (advance the vector timestamp), set the
    node's bits of their notices, and invalidate the pages named by the
    notices.  An interval no node has published is added to the store from
    its wire form.  A local
    twin forces local diff creation before invalidation (§2.4).  Intervals
    already covered by [t.vt] are skipped (they can arrive twice at a
    barrier manager).  Notices carrying piggybacked diffs (hybrid update
    protocol) update valid un-twinned pages in place instead of
    invalidating them. *)
val incorporate : t -> msg_interval list -> charge:charge -> unit

(** [ensure_own_diff t page ~charge] — lazy diff creation (§3.2): if
    [page] is twinned, create the diff against the twin, attach it to the
    newest local write notice for the page, write-protect the page and
    discard the twin.  Returns the diff when one was created or already
    attached to the newest local notice. *)
val ensure_own_diff : t -> int -> charge:charge -> unit

(** [flush_page t page ~charge] — the release step of the eager
    protocols (ERC, SC-ABD) for one dirty page: when [page] is twinned,
    diff it against the twin outside any interval, discard the twin and
    write-protect the page.  [None] when [page] has no twin. *)
val flush_page : t -> int -> charge:charge -> Tmk_util.Rle.t option

(** [find_diff t ~proc ~interval_id ~page ~charge] — look up a diff in
    the pool, creating it lazily when it is this node's own
    ({!ensure_own_diff}).
    @raise Not_found when the notice is unknown.
    @raise Invalid_argument when the notice exists but its diff is absent
    (protocol invariant violation). *)
val find_diff :
  t -> proc:int -> interval_id:int -> page:int -> charge:charge -> Tmk_util.Rle.t

(** [cached_diff t ~proc ~interval_id ~page] — look up the responder-side
    diff cache.  Diffs are immutable and interval ids are never reused, so
    a hit is always current; the cache is cleared by
    {!discard_all_records}. *)
val cached_diff : t -> proc:int -> interval_id:int -> page:int -> Tmk_util.Rle.t option

(** [cache_diff t ~proc ~interval_id ~page diff] — remember a served
    diff for future fetches of the same (proc, interval, page). *)
val cache_diff : t -> proc:int -> interval_id:int -> page:int -> Tmk_util.Rle.t -> unit

(** [set_diff_hook t f] — install the diff-replication hook: [f] fires
    once per locally created diff, right after the diff is attached to
    its write notice (so inside whatever context created it). *)
val set_diff_hook :
  t -> (page:int -> proc:int -> interval:int -> diff:Tmk_util.Rle.t -> unit) -> unit

(** [store_backup t ~proc ~interval_id ~page diff] — hold a mirrored copy
    of another processor's diff ({!Config.diff_backup}). *)
val store_backup : t -> proc:int -> interval_id:int -> page:int -> Tmk_util.Rle.t -> unit

(** [backup_diff t ~proc ~interval_id ~page] — look up the mirror store
    (recovery path: the creator has crashed). *)
val backup_diff : t -> proc:int -> interval_id:int -> page:int -> Tmk_util.Rle.t option

(** [held_diff t ~proc ~interval_id ~page] — the diff of that write
    notice if [t] holds both the notice and its diff. *)
val held_diff : t -> proc:int -> interval_id:int -> page:int -> Tmk_util.Rle.t option

(** [missing_diffs t page] — the write notices for [page] in [t]'s view
    lacking diffs, grouped per processor in increasing pid, each group
    newest-first.  Each writer's walk stops at the page's frontier, below
    which every notice is settled, and a page with nothing unsettled
    returns [[]] at once without allocating. *)
val missing_diffs : t -> int -> (int * write_notice list) list

(** [unapplied_diffs t page] — notices whose diffs are present but not
    yet reflected in the local copy (piggybacked arrivals on an invalid or
    twinned page, gathered diffs), writers in increasing pid, each
    newest-first.  Bounded by the frontier like {!missing_diffs}. *)
val unapplied_diffs : t -> int -> write_notice list

(** [store_diff t ~proc ~interval_id ~page diff] — attach a received diff
    to its notice record. *)
val store_diff : t -> proc:int -> interval_id:int -> page:int -> Tmk_util.Rle.t -> unit

(** [apply_diff t page diff ~charge] — patch [t]'s copy of [page] with
    [diff], charging and counting the application.  The one apply step:
    {!apply_missing_diffs} and ERC's updates use it; SC-ABD's
    word-filtered store installs a page instead. *)
val apply_diff : t -> int -> Tmk_util.Rle.t -> charge:charge -> unit

(** [apply_missing_diffs t page notices ~charge] — apply the given
    notices' diffs (which must all be present) in increasing
    vector-timestamp order and validate the page ([Read_only]). *)
val apply_missing_diffs : t -> int -> write_notice list -> charge:charge -> unit

(** [apply_fetched t page missing ~charge] — the end of a diff fetch:
    [missing] are the groups the fetch asked for ({!missing_diffs}), whose
    diffs [t] now holds.  Applies them with [page]'s other held diffs not
    yet applied, and validates the page ({!apply_missing_diffs}). *)
val apply_fetched :
  t -> int -> (int * write_notice list) list -> charge:charge -> unit

(** [settle_page t page ~charge] — for a page none of whose notices in
    view lacks its diff ([missing_diffs t page = []], with nothing
    incorporated since): apply the held diffs not yet applied, validating
    the page when there are any, and record that every notice of the page
    in the view is settled, so that {!missing_diffs} and
    {!unapplied_diffs} return [[]] at once until a notice enters the
    view. *)
val settle_page : t -> int -> charge:charge -> unit

(** [validate_page t page bytes ~charge] — install a fetched copy of
    [page] and mark it present; [bytes] is released to the pool, so the
    caller must not touch it afterwards. *)
val validate_page : t -> int -> Bytes.t -> charge:charge -> unit

(** [discard_all_records t ~charge] — GC sweep (§3.6): drop every
    interval, write-notice and diff record from the view (the floor rises
    to [vt], and nothing in the empty view is unsettled), and all twins.
    The store forgets the intervals no live node keeps.  Returns the
    number of records discarded. *)
val discard_all_records : t -> charge:charge -> int

(** [retire t] — [t]'s processor died: the store stops keeping records
    for it.  Call once; [t]'s view must not be read afterwards. *)
val retire : t -> unit

(** [modified_pages t] — pages with a local twin or a local write notice
    (the pages this node must validate during GC). *)
val modified_pages : t -> int list
