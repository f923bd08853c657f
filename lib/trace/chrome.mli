(** Chrome [trace_event] export (catapult JSON, Perfetto-loadable).

    The stream is rendered as one process with one named track (thread)
    per simulated processor, plus an ["engine"] track for records with
    no processor.  Wait intervals that have a begin/end event pair —
    lock waits ([Lock_acquire]/[Lock_acquired]), barrier waits
    ([Barrier_arrive]/[Barrier_release]), page faults
    ([Page_fault]/[Page_fault_done]) and GC runs ([Gc_begin]/[Gc_end])
    — become complete ([ph:"X"]) slices with a duration; every other
    event becomes a thread-scoped instant ([ph:"i"]).  Cumulative
    counter tracks ([ph:"C"]) are kept for frames and bytes on the wire,
    diff bytes created, and page faults, so traffic can be eyeballed
    against the timeline.  Timestamps are virtual-time microseconds.

    Load the resulting file at https://ui.perfetto.dev or
    chrome://tracing. *)

(** [write oc sink] — write a complete JSON document
    [{"traceEvents": [...], "displayTimeUnit": "ms"}] to a channel.
    Unmatched begin events are closed at the time of the last record.
    Deterministic: same stream, same bytes. *)
val write : out_channel -> Sink.t -> unit
