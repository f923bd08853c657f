(** JSONL export: one JSON object per line, in stream order.

    The shape of a line is

    {v {"t":12345,"pid":2,"ev":"lock-acquire","lock":1,"local":false} v}

    — [t] is virtual time in nanoseconds, [pid] the emitting processor
    ([-1] for engine-level events), [ev] the stable event name, and the
    remaining fields the event's arguments in declaration order.  The
    encoding is deterministic, so byte-comparing two files is a valid
    equality test on event streams (the determinism tests rely on
    this). *)

(** [write oc sink] — stream the sink to a channel, one record per line,
    each line newline-terminated. *)
val write : out_channel -> Sink.t -> unit

(** {2 Reading recorded streams back}

    Each line is read with {!Tmk_util.Json.of_string} and rebuilt with
    {!Event.of_args}, so re-encoding what was read reproduces the file
    byte for byte.  A pid must be -1 or a processor below 1024, the
    simulator's ceiling. *)

exception Parse_error of string

(** [read_file path] — decode a whole stream into a fresh sink, skipping
    blank lines.
    @raise Parse_error ["line N: ..."] on malformed JSON (naming the byte
    offset), a missing or mistyped field, an unknown event or an
    out-of-range pid. *)
val read_file : string -> Sink.t
