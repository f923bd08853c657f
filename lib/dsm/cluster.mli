(** Backend-agnostic cluster substrate.

    The pieces of a running cluster that every coherence backend and the
    protocol core share: configuration, engine, transport, the per-node
    DSM state, the membership view, the re-issuable-operation registry
    for crash recovery, the one fault handler ({!fault}), and the small
    context helpers (atomic sections, charging, tracing, provider
    choice).  {!Protocol} builds one of these, hands it to the selected
    backend's [make], and layers locks/barriers/GC/failover on top.
    Every module reads membership here: one live set, one cyclic
    successor walk and one owner rule ({!lock_home}). *)

open Tmk_sim

(** One remote operation whose reply may never come because the serving
    peer can crash: recovery re-issues it against a live peer.  The
    original reply mailbox is reused; value messages never double-fill,
    so a late duplicate from the first attempt is harmless. *)
type pending_op = {
  po_pid : int;  (** the waiting processor *)
  po_seq : int;  (** registration order, for deterministic replay *)
  po_target : int;  (** the peer whose reply is awaited *)
  po_settled : unit -> bool;  (** reply already arrived *)
  po_retry : unit -> unit;  (** re-issue; runs in timer context *)
}

type t = {
  cfg : Config.t;
  engine : Engine.t;
  transport : Tmk_net.Transport.t;
  nodes : Node.t array;
  crashes_planned : bool;  (** gates the pending-op registry *)
  members : Tmk_util.Bitset.t;
      (** the live set: every processor but the deaths detected so far;
          written only by {!mark_dead} *)
  mutable epoch : int;  (** membership epoch: the number of detected deaths *)
  ring : Ring.t option;  (** ownership ring, present iff [Config.sharding] *)
  mutable pending_ops : pending_op Tmk_util.Vec.t;  (** registration order *)
  mutable next_op : int;
  mutable fatal : (int * string) option;
}

(** [create cfg] builds engine, transport and nodes.  [cfg] must already
    be validated. *)
val create : Config.t -> t

(** The barrier manager: the root of the barrier and GC tree. *)
val barrier_manager : int

(** Raised when a page fetch finds no live processor in the page's
    copyset (every copy died with a crash). *)
exception Empty_copyset of { pid : int; page : int }

val live : t -> int -> bool

(** [mark_dead t pid] — record a detected death: remove [pid] from the
    live set and bump the membership epoch.  Idempotent.  The single
    mutation point for the membership view. *)
val mark_dead : t -> int -> unit

(** [lock_home t lock] — the live processor playing manager for [lock]:
    the ring owner under [Config.sharding], otherwise the first live
    processor in cyclic pid order from the static [lock mod nprocs]
    home.  Both follow the detected deaths and move only a dead owner's
    keys, so after a death the lock's metadata is rebuilt here. *)
val lock_home : t -> int -> int

(** [page_owner t page] — the manager of [page], by {!lock_home}'s rule
    over the page key space.  (SC and Tardis, its only users, refuse
    crash plans.) *)
val page_owner : t -> int -> int

(** [lowest_live_other t pid] — the lowest-numbered live processor other
    than [pid]; [None] when nobody else is alive. *)
val lowest_live_other : t -> int -> int option

(** [backup_peer t proc] — the deterministic backup peer for [proc]'s
    diff mirrors: the next live processor after [proc] in cyclic pid
    order; [None] when only [proc] is alive. *)
val backup_peer : t -> int -> int option

(** [note_fatal t ~pid reason] — record that the run cannot make
    progress (surfaced as [Api.Degraded]) and stop the engine at the
    next event boundary.  Safe from any context. *)
val note_fatal : t -> pid:int -> string -> unit

(** Application-context variant: parks the calling process forever. *)
val degrade_app : t -> pid:int -> string -> 'a

val app_charge : Category.t -> Vtime.t -> unit
val h_charge : Engine.hctx -> Category.t -> Vtime.t -> unit

(** [atomically t f] — run protocol bookkeeping without scheduling
    points, in application context: [f] receives a charge collector,
    mutations run instantaneously, and the collected charges are then
    made in order, each a chunk that request handlers can stretch, with
    one suspension of the process ({!Tmk_sim.Engine.section}; the real
    implementation masks signals around these sections).
    @raise Invalid_argument when sections nest. *)
val atomically : t -> (Node.charge -> 'a) -> 'a

val emit : t -> pid:int -> Tmk_trace.Event.t -> unit

(** Shared Logs source ("tmk.protocol"). *)
module Log : Logs.LOG

(** [debugging ()] holds when that source logs at Debug level.  Test it
    before each [Log.debug], so a disabled line builds no closure. *)
val debugging : unit -> bool

(** [choose_provider t copyset ~self ~page] — a live copyset member
    (never [self]), hashed over (page, self) to spread concurrent
    misses.  @raise Empty_copyset when no live candidate remains. *)
val choose_provider : t -> Tmk_util.Bitset.t -> self:int -> page:int -> int

(** Lowest live member variant (ERC: the longest-standing member is the
    only one guaranteed to hold current bytes). *)
val choose_provider_lowest : t -> Tmk_util.Bitset.t -> self:int -> page:int -> int

(** [register_pending t ~pid ~target ~settled ~retry] — register a
    re-issuable remote operation (no-op unless a crash plan is armed). *)
val register_pending :
  t -> pid:int -> target:int -> settled:(unit -> bool) -> retry:(unit -> unit) -> unit

(** [note_miss t pid page] — the access-miss count, with a debug line
    under [--verbose]. *)
val note_miss : t -> int -> int -> unit

(** [fault t ~pid kind page serve arg] — the SIGSEGV handler (§3.7) of
    every backend: the signal and dispatch charges, the fault count, and
    [Page_fault]/[Page_fault_done] around [serve arg pid kind page], the
    backend's service of the fault.  [serve] is a top-level function and
    [arg] its state, built once, so that a fault allocates no closure. *)
val fault :
  t ->
  pid:int ->
  Tmk_mem.Vm.access ->
  int ->
  ('a -> int -> Tmk_mem.Vm.access -> int -> unit) ->
  'a ->
  unit

(** [rc_fault t miss] — the fault handler of the release-consistent
    backends (LRC, ERC, SC-ABD): {!fault} with the service that twins a
    page on a write to a valid page and runs [miss pid page] for an
    invalid one.  A backend builds its handler once. *)
val rc_fault : t -> (int -> int -> unit) -> pid:int -> Tmk_mem.Vm.access -> int -> unit
