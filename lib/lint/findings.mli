(** The unified findings model every lint analyzer reports through.

    One record shape, one severity scale, one canonical order — the human
    table, the JSONL stream and the SARIF file are all views of the same
    sorted list, and "lint-clean" has a single meaning (no error-severity
    findings) across analyzers, backends and [--jobs] settings. *)

type severity = Info | Warning | Error

type t = {
  analyzer : string;  (** "lockset", "sharing", "discipline" or "hb" *)
  rule : string;  (** stable rule id, e.g. "lockset-race" *)
  severity : severity;
  page : int;  (** -1 when the finding is not page-scoped (a lock, say) *)
  lo : int;  (** byte range within the page; -1 when not byte-scoped *)
  hi : int;
  pids : int list;  (** processors involved, sorted ascending *)
  message : string;
  hint : string;  (** concrete remediation *)
}

(** Total canonical order: severity (errors first), then page/byte
    location, then analyzer, rule, pids and text. *)
val compare_findings : t -> t -> int

(** [sort_dedup fs] — canonical order with exact duplicates removed.
    Every reporter consumes the result of this, never a raw list. *)
val sort_dedup : t list -> t list

(** [has_errors fs] — any error-severity finding present (the exit-2 and
    CI-failure condition). *)
val has_errors : t list -> bool

(** [table fs] — the findings as a deterministic Tablefmt table, or a
    one-line all-clear. *)
val table : t list -> string

(** JSONL: one finding object per line, each line newline-terminated,
    byte-stable; each line reads back with {!Tmk_util.Json.of_string}. *)
val to_jsonl : t list -> string

(** [to_sarif ?uri fs] — a SARIF 2.1.0 document (driver "tmk-lint") for
    CI code-scanning annotations.  [uri] is the repository artifact the
    annotations attach to (findings describe simulated DSM pages, so the
    page/byte location is carried in each result's message). *)
val to_sarif : ?uri:string -> t list -> string
