(** Typed protocol-trace events.

    One constructor per observable protocol transition, covering the whole
    surface the paper's evaluation instruments: lock acquire/release
    (local vs remote, forwarded through the statically assigned manager),
    barrier arrival/release, page faults and twin creation, diff
    create/apply/fetch with byte sizes, write-notice and interval receipt
    with vector timestamps, frame-level transport outcomes (send, receive,
    drop, duplicate, retransmission — wired to {!Tmk_net.Fault_plan}
    decisions), and garbage collection.

    This module deliberately depends on nothing above [tmk_util]: times
    are plain integers (nanoseconds of virtual time, {!Tmk_sim.Vtime.t}'s
    representation) and vector timestamps are plain [int array] copies, so
    every layer of the system — including the simulation engine itself —
    can emit events without a dependency cycle. *)

(** Kind of memory access that faulted. *)
type fault_kind = Read | Write

type t =
  (* Locks (§3.3) *)
  | Lock_acquire of { lock : int; local : bool }
      (** the application asks for the lock; begins the wait span *)
  | Lock_acquired of { lock : int; local : bool }
      (** the application holds the lock; ends the wait span *)
  | Lock_release of { lock : int; granted_to : int option }
      (** release; [granted_to] is the queued requester the token moves
          to, or [None] when it stays cached here *)
  | Lock_queued of { lock : int; requester : int }
      (** a request reached the token holder while the lock was held —
          the direct observation of contention *)
  | Lock_request_recv of { lock : int; requester : int }
      (** the statically assigned manager received a request *)
  | Lock_forward of { lock : int; requester : int; target : int }
      (** the manager forwarded the request along the probable-owner
          chain *)
  | Lock_grant of { lock : int; requester : int; intervals : int; bytes : int }
      (** a grant left this processor, piggybacking [intervals] interval
          records in a [bytes]-byte message *)
  (* Barriers (§3.4) *)
  | Barrier_arrive of { id : int; epoch : int }
      (** arrival at the barrier; [epoch] is this processor's global
          barrier sequence number; begins the wait span *)
  | Barrier_release of { id : int; epoch : int }
      (** this processor crossed the barrier; ends the wait span *)
  (* Page faults and page movement (§3.5) *)
  | Page_fault of { page : int; kind : fault_kind }  (** begins the fault span *)
  | Page_fault_done of { page : int; kind : fault_kind }  (** ends the fault span *)
  | Twin_create of { page : int }
  | Page_fetch of { page : int; from_ : int }
      (** a full base copy was fetched from [from_] and installed *)
  | Page_invalidate of { page : int }
      (** a write notice invalidated the local copy *)
  (* Diffs (§2.4, §3.2) *)
  | Diff_create of { page : int; bytes : int; proc : int; interval : int }
      (** [bytes] is the encoded size; [(proc, interval)] identifies the
          interval the diff belongs to, or [(p, -1)] when the protocol has
          no intervals (the ERC baseline's eager flush) *)
  | Diff_apply of { page : int; bytes : int; proc : int; interval : int }
      (** [bytes] is the payload patched in; [(proc, interval)] as for
          {!Diff_create}, [-1] when the applier no longer knows the origin *)
  | Diff_fetch of { page : int; from_ : int; count : int }
      (** a lazy diff request for [count] diffs left for [from_] *)
  (* Consistency records (§2.2, §3.1) *)
  | Interval_close of { id : int; notices : int; vt : int array }
      (** a local interval was closed with [notices] write notices *)
  | Interval_recv of { proc : int; id : int; notices : int; vt : int array }
      (** a remote interval record was incorporated *)
  | Write_notice_recv of { page : int; proc : int; interval : int }
  (* Transport frames (§3.7) *)
  | Frame_send of { src : int; dst : int; label : string; bytes : int; retrans : bool }
      (** a frame (headers included) was handed to the medium *)
  | Frame_recv of { src : int; dst : int; label : string; bytes : int }
  | Frame_drop of { src : int; dst : int; label : string; bytes : int }
      (** the fault plan dropped the frame (loss or partition) *)
  | Frame_dup of { src : int; dst : int; label : string }
      (** the medium injected a duplicate copy *)
  | Frame_batch of { src : int; dst : int; label : string; parts : int }
      (** a batching transport coalesced [parts] logical protocol units
          into the single frame just sent (follows its [Frame_send]) *)
  | Diff_cache of { page : int; hit : bool }
      (** a responder served a diff fetch from its (proc, interval, page)
          diff cache ([hit = true]) or computed and cached it *)
  (* Garbage collection (§3.6) *)
  | Gc_begin of { live : int }  (** live consistency records at entry *)
  | Gc_end of { discarded : int }
      (** the records are discarded, so the GC floor rises here: before the
          node's keepers replies and the discard's charge *)
  (* Crash-stop failures and recovery *)
  | Proc_crash  (** the processor failed (crash-stop): silent from here on *)
  | Peer_suspect of { dst : int; label : string; attempts : int }
      (** this processor's retry budget for a [label] message to [dst] ran
          out after [attempts] transmissions — the failure-detection
          signal *)
  | Failover of { dead : int; epoch : int }
      (** recovery from [dead]'s crash begins; the membership advanced to
          [epoch] *)
  | Recovery_done of { dead : int; locks : int; retries : int }
      (** recovery finished: [locks] lock tokens/queues were rebuilt and
          [retries] in-flight fetches re-driven *)
  | Diff_backup of { page : int; proc : int; interval : int; bytes : int; to_ : int }
      (** [diff_backup] mode mirrored a freshly created diff to its
          deterministic backup peer [to_] *)
  (* Tardis / SC-ABD backends *)
  | Ts_sync of { ts : int }
      (** Tardis: a synchronization absorbed the granter's scalar logical
          time, advancing this processor's clock to [ts] *)
  | Lease_expire of { page : int }
      (** Tardis: a lease sweep invalidated the cached copy of [page] *)
  | Quorum_read of { page : int; replies : int }
      (** SC-ABD: a miss on [page] completed a majority-quorum read with
          [replies] replica answers (excluding self) *)
  | Quorum_write of { pages : int; acks : int }
      (** SC-ABD: a flush stored [pages] dirty pages to a majority,
          gathering [acks] store acknowledgements (excluding self) *)
  (* Engine *)
  | Proc_finish  (** the application process returned *)

(** [name ev] — stable kebab-case event name ("lock-acquire", ...). *)
val name : t -> string

(** [args ev] — the event's fields in declaration order, for exporters:
    ints, bools, strings, and vector timestamps as lists of ints.
    Deterministic: same event, same list. *)
val args : t -> (string * Tmk_util.Json.t) list

(** [fault_kind_name k] — ["read"] or ["write"]. *)
val fault_kind_name : fault_kind -> string

(** [of_args name args] rebuilds the event [name]/[args] serialized — the
    exact inverse of the two functions above, used when re-reading a
    recorded JSONL stream.  [None] on an unknown name or missing/mistyped
    field. *)
val of_args : string -> (string * Tmk_util.Json.t) list -> t option
