(** Deterministic discrete-event simulation of a workstation cluster.

    The engine substitutes for the paper's 8 DECstation-5000/240s.  Each
    simulated processor hosts:

    - one {e application process}, a cooperative coroutine implemented with
      OCaml effect handlers.  Application code runs instantaneously in real
      time and advances its processor's virtual clock explicitly with
      {!advance}; it blocks on {!await} (lock grants, barrier releases,
      remote page data) exactly where the real system would block in a Unix
      [sigsuspend]/receive;
    - a FIFO of {e request handlers}, modelling TreadMarks' SIGIO handler:
      an incoming request interrupts whatever the application is doing,
      consumes CPU, and delays the application's current computation chunk
      by the stolen time.  Handlers on one processor serialise with each
      other.

    All CPU consumption is charged to a {!Category.t}, reproducing the
    paper's execution-time decomposition (computation / Unix / TreadMarks /
    idle).  Events at equal times fire in schedule order, so a run is a
    pure function of its inputs — replaying a seed reproduces the event
    stream bit-for-bit. *)

type t

(** Processor identifier, in [0, nprocs). *)
type pid = int

(** Write-once cells used to block an application process until a handler
    (possibly on another processor) supplies a value. *)
module Ivar : sig
  type 'a t

  (** [create ()] makes an empty ivar. *)
  val create : unit -> 'a t

  (** [is_filled iv] tests whether a value has been supplied. *)
  val is_filled : 'a t -> bool
end

(** [create ~nprocs] builds a cluster of [nprocs] processors. *)
val create : nprocs:int -> t

(** [nprocs t] is the cluster size. *)
val nprocs : t -> int

(** [now t] is the current virtual time.  Inside application code this is
    the application's own clock position. *)
val now : t -> Vtime.t

(** [schedule t ~at f] runs [f] at virtual time [at] (which must not be in
    the past). *)
val schedule : t -> at:Vtime.t -> (unit -> unit) -> unit

(** [schedule_cancellable t ~at f] is {!schedule} returning a thunk that
    prevents [f] from running if called before [at] (retransmission
    timers).  A cancelled event is skipped entirely: it neither advances
    the clock nor counts toward {!end_time}, so dead timers cannot
    stretch a run's makespan.  Called after [f] ran, or a second time,
    the thunk does nothing. *)
val schedule_cancellable : t -> at:Vtime.t -> (unit -> unit) -> (unit -> unit)

(** [pending_events t] is the number of events still queued (including
    cancelled ones not yet reaped); zero after {!run} returns. *)
val pending_events : t -> int

(** [spawn t pid main] installs the application process of processor
    [pid]; it starts at time zero when {!run} is called.  At most one
    process per processor.  Within [main], the functions below marked
    "process context" may be used. *)
val spawn : t -> pid -> (unit -> unit) -> unit

(** Process context: [advance cat dt] advances the calling process's
    virtual clock by [dt], charging the time to [cat].  If request handlers
    interrupt during the span, completion is pushed back by the stolen
    CPU. *)
val advance : Category.t -> Vtime.t -> unit

(** Process context: [section t f] runs [f charge] with no scheduling
    point, then advances the calling process by every [charge cat dt] that
    [f] made, in order: each charge is one chunk, which request handlers
    can stretch, exactly as the same sequence of {!advance} calls.  The
    process suspends once for the whole sequence: [charge] only appends to
    a buffer the engine keeps per processor, and the engine starts each
    next chunk itself when the previous one ends.  A section with no
    charges does not suspend.
    @raise Invalid_argument outside process context, when sections nest,
    or when [f] calls {!advance} or {!await}. *)
val section : t -> ((Category.t -> Vtime.t -> unit) -> 'a) -> 'a

(** Process context: [await iv] suspends until [iv] is filled and returns
    its value.  Returns immediately if already filled. *)
val await : 'a Ivar.t -> 'a

(** [fill t iv ~at v] fills [iv] at time [at], waking any waiter.
    Usable from handlers and scheduled thunks.
    @raise Invalid_argument if [iv] is already filled. *)
val fill : t -> 'a Ivar.t -> at:Vtime.t -> 'a -> unit

(** Handler context passed to request handlers. *)
type hctx

(** [post_handler t ~pid ~at f] delivers a request to processor [pid] at
    time [at]: [f] runs when the processor's handler slot is free (handlers
    FIFO per processor), charging CPU via {!hcharge}.  [f] must not perform
    process-context effects. *)
val post_handler : t -> pid:pid -> at:Vtime.t -> (hctx -> unit) -> unit

(** [hcharge h cat dt] consumes [dt] of handler CPU, charged to [cat].
    [hcharge h] alone is a callback the engine builds once per processor,
    so passing it on allocates nothing.  It charges whichever handler
    runs on [h]'s processor, so it must not be kept past [h]'s handler.
    @raise Invalid_argument if [h]'s handler has returned, or if the
    callback is called while no handler runs on the processor. *)
val hcharge : hctx -> Category.t -> Vtime.t -> unit

(** [hnow h] is the handler's current virtual time (service start plus CPU
    charged so far) — the departure time for messages it sends. *)
val hnow : hctx -> Vtime.t

(** [hpid h] is the processor the handler runs on. *)
val hpid : hctx -> pid

(** [hfresh h] is [true] when this handler began with the processor's
    handler slot idle — a real system would pay a full signal dispatch.
    [false] means it ran back-to-back after another handler (the SIGIO
    handler loop drains queued messages without re-entering the kernel), so
    callers should charge the cheaper amortised delivery cost. *)
val hfresh : hctx -> bool

(** [run t] executes events until quiescence, or until {!request_stop} is
    called.
    @raise Deadlock if the queue empties while some live (non-crashed)
    process is blocked. *)
val run : t -> unit

(** {2 Crash-stop failures and clean termination} *)

(** [mark_crashed t pid] fails processor [pid] at the current instant:
    its pending handler queue is discarded and no further code (process
    resume, handler, chunk completion) ever runs on it.  Frames already
    on the wire are unaffected — a crash-stop node simply goes silent.
    Idempotent. *)
val mark_crashed : t -> pid -> unit

(** [crashed t pid] holds once {!mark_crashed} was applied to [pid]. *)
val crashed : t -> pid -> bool

(** [crash_time t pid] is when [pid] crashed, if it did. *)
val crash_time : t -> pid -> Vtime.t option

(** [request_stop t reason] makes {!run} return at the next event
    boundary instead of raising from wherever the caller happens to be
    (e.g. a retransmission-timer callback).  Stats, busy times and the
    trace stream all remain intact and renderable.  The first reason
    wins; later requests are ignored. *)
val request_stop : t -> string -> unit

(** [stop_reason t] is the reason passed to {!request_stop}, if any. *)
val stop_reason : t -> string option

(** The payload lists exactly the processes suspended on an ivar when the
    event queue ran dry — the real culprits, not merely every unfinished
    process. *)
exception Deadlock of pid list

(** [finished t pid] holds once [pid]'s application process returned. *)
val finished : t -> pid -> bool

(** [finish_time t pid] is when the process returned.
    @raise Invalid_argument if it has not finished. *)
val finish_time : t -> pid -> Vtime.t

(** [busy t pid cat] is the CPU time processor [pid] charged to [cat]. *)
val busy : t -> pid -> Category.t -> Vtime.t

(** [busy_total t pid] sums {!busy} over all categories. *)
val busy_total : t -> pid -> Vtime.t

(** [end_time t] is the time of the last executed event (the run's
    makespan). *)
val end_time : t -> Vtime.t

(** {2 Typed event tracing}

    The engine owns at most one {!Tmk_trace.Sink.t}; every layer of the
    system (transport, DSM protocol, applications) emits structured
    events through it.  When no sink is installed, emission is a single
    [option] test — instrumented code guards event construction with
    {!tracing} so a disabled trace allocates nothing and perturbs
    nothing. *)

(** [set_sink t s] installs the typed event sink. *)
val set_sink : t -> Tmk_trace.Sink.t -> unit

(** [tracing t] is [true] iff a sink is installed.  Emitting code should
    test this before building an event value. *)
val tracing : t -> bool

(** [emit t ~pid ev] records [ev] at the current virtual time on behalf
    of processor [pid] (use [-1] for engine-level events).  No-op
    without a sink. *)
val emit : t -> pid:pid -> Tmk_trace.Event.t -> unit

(** [hemit h ev] records [ev] from handler context, stamped with the
    handler's own clock ({!hnow}) and pid. *)
val hemit : hctx -> Tmk_trace.Event.t -> unit

(** [htracing h] is {!tracing} reached through a handler context. *)
val htracing : hctx -> bool
