(** The checker a run carries through [Config.check]: a race detector, an
    invariant oracle, generic event observers ({!Hooks}), trace-attach
    callbacks — any combination.

    [hooks] observe the access and sync events; the race detector, when
    given, is the first of them ({!Race.hooks}).  [attach] callbacks
    receive the run's trace sink before the run starts (the DSM creates a
    private sink when the caller did not request tracing).  Both exist so
    that the DSM depends on no particular analyzer: it dispatches to
    whatever the run carries, and the caller chooses the analyzers (the
    [lib/lint] sanitizer suite, say, which [tmk_run --lint] attaches). *)

type t

val create :
  ?race:Race.t ->
  ?oracle:Oracle.t ->
  ?hooks:Hooks.t list ->
  ?attach:(Tmk_trace.Sink.t -> unit) list ->
  unit ->
  t

val race : t -> Race.t option
val oracle : t -> Oracle.t option

(** [hooks t] — the race detector's hooks, when it rides along, then the
    [hooks] given to {!create}. *)
val hooks : t -> Hooks.t list

val attach : t -> (Tmk_trace.Sink.t -> unit) list
