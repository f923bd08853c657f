(** Simulated interprocessor communication.

    Models the path a TreadMarks message takes on the real system:

    + sender CPU: kernel send plus programmed-I/O per-byte cost, charged to
      [Unix_comm] in the caller's context (application process or SIGIO
      handler);
    + the medium: per-source link arbitration on the ATM switch, or a
      single shared bus on the Ethernet; frames occupy the medium for
      [frame_bytes × wire_ns_per_byte] and are then subject to the
      transport's {!Fault_plan} — loss, duplication, reordering, node
      stalls, partitioned peers;
    + receiver CPU: either the SIGIO-handler path (interrupt + signal
      dispatch + receive; back-to-back messages skip the dispatch, see
      {!Tmk_sim.Engine.hfresh}) for request messages, or the
      blocked-receive path (interrupt + resume + receive) for replies to a
      waiting process.

    {2 Reliability}

    The real TreadMarks runs "operation-specific, user-level protocols on
    top of UDP/IP and AAL3/4 to insure delivery" (§3.7).  Here, when the
    fault plan cannot affect delivery ({!Fault_plan.is_faulty} is false —
    the default) frames always arrive and no acknowledgements are sent.
    Frame loss, like every other medium fault, is set only through the
    {!Fault_plan} given to {!create}.

    Otherwise one retransmission machine runs under both delivery ends —
    a [deliver] callback in a handler ({!send}, {!hsend}, {!notify}) and a
    value into a mailbox ({!send_value}, {!hsend_value}): every message is
    acknowledged and retransmitted on a timer with exponential backoff
    (doubling from [Params.retransmit_timeout] up to
    [Params.retransmit_backoff_cap]).  Duplicates — whether
    retransmission- or medium-induced — are filtered at the receiver, by
    message id for handler deliveries (exactly-once [deliver]) and by the
    single-use mailbox for values.  The id table is pruned as soon as a
    message's ack has landed and its last in-flight copy has been
    filtered, so it holds only in-flight messages.  A message still
    unacknowledged after its retry budget ([Params.max_retransmits]
    transmissions, or the smaller [?retry_budget] given to {!notify}) makes
    the sender {e suspect} the peer: the event is traced
    ({!Tmk_trace.Event.Peer_suspect}) and reported through the
    {!on_suspect} callback so the DSM layer's failure detector can react.
    Without a registered callback the run is terminated cleanly
    ({!Engine.request_stop}) — never by an exception out of a timer
    callback, which would tear the simulation mid-event.

    Crash-stop failures ({!Fault_plan.with_crash}, injected via
    {!Engine.mark_crashed}) silence an endpoint: frames to or from a
    crashed processor are dropped by the medium, and a crashed sender
    neither retransmits nor suspects anyone.

    All fault draws come from the transport's seeded PRNG: a (seed, plan)
    pair reproduces the run bit-for-bit.

    Message payloads are OCaml closures/values; the [bytes] argument is
    the payload size used for costing and statistics, which the DSM layer
    computes from the protocol encoding it would use on the wire. *)

open Tmk_sim

type t

(** [create ~engine ~params ~prng] builds a transport over [engine]'s
    processors.  [prng] drives the fault draws.  [?plan] is the fault
    schedule (default {!Fault_plan.none}, an ideal network).

    [?batching] (default [true]) controls how multi-part messages (the
    [?parts] argument of the send functions) reach the wire: a batching
    transport coalesces all parts into one frame and counts the saved
    frames in {!frames_coalesced}; an unbatched transport fragments the
    payload into [parts] back-to-back frames, each paying the per-frame
    header and minimum-size overhead plus the fixed kernel send cost.
    Either way the burst shares a single fate (one loss/duplication/
    reordering draw, one delivery) so the two modes consume identical
    PRNG streams and each is bit-deterministic for a given seed. *)
val create :
  ?plan:Fault_plan.t ->
  ?batching:bool ->
  engine:Engine.t ->
  params:Params.t ->
  prng:Tmk_util.Prng.t ->
  unit ->
  t

(** [on_suspect t f] registers the suspicion callback: [f] fires (from a
    timer callback — no process context, no CPU charges) each time a
    message from [src] to [dst] exhausts its retry budget.  One callback;
    a later registration replaces the earlier. *)
val on_suspect :
  t -> (src:int -> dst:int -> label:string -> attempts:int -> unit) -> unit

(** [send t ~src ~dst ~bytes ~deliver] — one-way message from the
    application process currently running on [src].  Charges send CPU via
    {!Engine.advance}, so it must be called from process context.
    [deliver] runs in a handler context on [dst] (exactly once, even
    under faults).

    [?parts] (default 1, every send function) declares how many logical
    protocol units the message carries; see {!create} for how batched and
    unbatched transports put them on the wire. *)
val send :
  ?label:string ->
  ?parts:int ->
  t ->
  src:Engine.pid ->
  dst:Engine.pid ->
  bytes:int ->
  deliver:(Engine.hctx -> unit) ->
  unit

(** [hsend t h ~dst ~bytes ~deliver] — one-way message sent from handler
    context [h]; departs at [hnow h] after the send CPU charge. *)
val hsend :
  ?label:string ->
  ?parts:int ->
  t ->
  Engine.hctx ->
  dst:Engine.pid ->
  bytes:int ->
  deliver:(Engine.hctx -> unit) ->
  unit

(** [notify t ~src ~dst ~bytes ~deliver] — context-free one-way message
    departing at the current simulation instant.  Callable from scheduled
    thunks and recovery code where neither process nor handler context
    exists; sender CPU is not charged (delivery still charges the
    receiver).  [?retry_budget] caps this message's transmissions below
    [Params.max_retransmits] — the failure detector's probes use a small
    budget to detect silence quickly. *)
val notify :
  ?label:string ->
  ?parts:int ->
  ?retry_budget:int ->
  t ->
  src:Engine.pid ->
  dst:Engine.pid ->
  bytes:int ->
  deliver:(Engine.hctx -> unit) ->
  unit

(** Mailbox for messages that wake a blocked process (replies, lock
    grants, barrier releases). *)
type 'a mailbox

(** [mailbox ()] makes an empty mailbox. *)
val mailbox : unit -> 'a mailbox

(** [mailbox_filled mb] — whether a value has already landed in [mb]
    (recovery uses this to tell settled operations from stuck ones). *)
val mailbox_filled : 'a mailbox -> bool

(** [send_value t ~src ~dst ~bytes mb v] — one-way message carrying [v]
    into [mb] on [dst]; application-context variant. *)
val send_value :
  ?label:string ->
  ?parts:int ->
  t ->
  src:Engine.pid ->
  dst:Engine.pid ->
  bytes:int ->
  'a mailbox ->
  'a ->
  unit

(** [hsend_value t h ~dst ~bytes mb v] — handler-context variant. *)
val hsend_value :
  ?label:string ->
  ?parts:int ->
  t ->
  Engine.hctx ->
  dst:Engine.pid ->
  bytes:int ->
  'a mailbox ->
  'a ->
  unit

(** [await_value t mb] — process context: block until a value lands in
    [mb], charge the blocked-receive delivery CPU, and return it.  A
    mailbox delivers exactly one value. *)
val await_value : t -> 'a mailbox -> 'a

(** {2 Statistics}

    Sender counters cover every frame handed to the medium, including
    retransmissions and acknowledgements; bytes are on-wire frame sizes
    (payload + protocol header, padded to the minimum frame).  Extra
    copies injected by a duplicating medium are counted separately (they
    are not sender traffic).  Each is kept once, per message label: the
    totals below are sums over the {!message_mix} rows. *)

val messages_sent : t -> int
val bytes_sent : t -> int

(** [messages_handled_of t pid] — frames delivered {e at} [pid] (the
    receive-side load of acting as a manager).  Dropped frames are not
    counted; duplicated copies are counted once per delivery. *)
val messages_handled_of : t -> Engine.pid -> int

(** [retransmissions t] — frames re-sent by the reliability protocol. *)
val retransmissions : t -> int

(** [frames_coalesced t] — frames saved by batching: the sum of
    [parts − 1] over every multi-part message a batching transport put on
    the wire as a single frame.  For identical protocol activity,
    [unbatched.messages = batched.messages + batched.frames_coalesced].
    Always zero on an unbatched transport. *)
val frames_coalesced : t -> int

(** [dedup_entries t] — live entries in the duplicate-suppression table;
    zero once a run has quiesced (every message acked and its copies
    accounted for). *)
val dedup_entries : t -> int

(** One row of {!message_mix}: per-label frame/byte totals plus how many
    of the frames were retransmissions and how many extra copies the
    medium injected for that label. *)
type mix_entry = {
  mix_label : string;
  mix_msgs : int;
  mix_bytes : int;
  mix_retrans : int;
  mix_dups : int;
}

(** [message_mix t] — traffic per message label (the [?label] given at
    each send, by convention ["<request>-reply"] for a reply; transport
    acknowledgements get ["ack"], unlabelled traffic ["other"]), most
    frequent first. *)
val message_mix : t -> mix_entry list
