(** The sanitizer-suite driver: lockset race detection, sharing-pattern
    lints and sync-discipline lints over one unified findings model.

    One [Lint.t] rides along on one run, observing it through the generic
    checker hooks ({!Tmk_check.Hooks}) and the trace stream; at the end
    the enabled analyzers' findings merge into one severity-ranked list
    ({!Findings}), with the lockset analyzer's potential races
    deduplicated against the happens-before detector's confirmed ones.

    {[
      let lint = Lint.create ~nprocs () in
      let check =
        Tmk_check.Checker.create ~race ~hooks:[ Lint.hooks lint ]
          ~attach:[ Lint.attach lint ] ()
      in
      (* ... run with { cfg with check = Some check } ... *)
      print_string (Lint.report ~race lint)
    ]} *)

type analyzer = Lockset | Sharing | Discipline


(** [analyzers_of_string s] parses a comma-separated analyzer list; [""]
    and ["all"] mean every analyzer.  Raises [Invalid_argument] on an
    unknown name. *)
val analyzers_of_string : string -> analyzer list

type t

val create : ?analyzers:analyzer list -> nprocs:int -> unit -> t

(** [hooks t] — the observer to pass to [Checker.create ~hooks]. *)
val hooks : t -> Tmk_check.Hooks.t

(** [attach t] — the trace-attach callback for [Checker.create ~attach]
    (the sharing analyzer's event listener). *)
val attach : t -> Tmk_trace.Sink.t -> unit

(** [findings ?race t] — every enabled analyzer's findings plus the HB
    detector's (analyzer "hb"), sorted and deduplicated.  Lockset rows
    that overlap a confirmed HB race are dropped. *)
val findings : ?race:Tmk_check.Race.t -> t -> Findings.t list

(** [report ?race t] — the findings table plus the sharing
    classification. *)
val report : ?race:Tmk_check.Race.t -> t -> string
