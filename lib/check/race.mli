(** Happens-before data-race detector.

    TreadMarks guarantees sequential consistency only for data-race-free
    programs (§2): every pair of conflicting accesses from different
    processors must be ordered by the locks and barriers the protocol
    sees.  This module checks that promise against the accesses the
    software MMU observes.

    The detector keeps its own segment clocks — one segment per
    sync-to-sync span of each processor — rather than reusing the
    protocol's vector timestamps, which advance lazily (only when an
    interval is dirty) and therefore under-count synchronization.  Races
    are detected online against a per-word frontier: for each 8-byte word,
    the last writer segment and the most recent reader segment per
    processor.  Detection is scheduling-independent: a conflict is flagged
    whenever no chain of sync edges orders the two accesses, whether or
    not they were adjacent in the simulated interleaving.

    Limitations (see PROTOCOL.md, "Data-race freedom and the checker"):
    granularity is the 8-byte word, so two byte accesses inside one word
    can be flagged together; accesses wrapped in [Api.unsynchronized] are
    invisible by design. *)

type t

type kind = Hooks.access_kind = Read | Write

(** [create ~nprocs ~pages ()] sizes the detector for one cluster; a
    detector instance must not be shared across runs (its clocks carry
    over). *)
val create : nprocs:int -> pages:int -> unit -> t

val nprocs : t -> int
val pages : t -> int

(** [hooks t] — the detector's only input, under the event contracts
    {!Hooks} states: [h_access] records one load or store, the sync
    edges close and open segments, and an access made while
    [h_suppress] spans nest on its processor is not recorded at all. *)
val hooks : t -> Hooks.t

type finding = {
  f_page : int;
  mutable f_lo : int;  (** byte range within the page, word-granular *)
  mutable f_hi : int;
  f_first_pid : int;
  f_first_kind : kind;
  f_first_ctx : string;  (** sync context, e.g. "after barrier 0" *)
  f_second_pid : int;
  f_second_kind : kind;
  f_second_ctx : string;
  f_hint : string;  (** the synchronization that would have ordered them *)
  mutable f_pairs : int;  (** access pairs merged into this finding *)
}

(** [findings t] in canonical order — sorted by (page, byte range, pids,
    kinds) rather than discovery order, so equal finding sets render
    byte-identically whatever schedule, backend or [--jobs] setting found
    them.  One finding per (page, pids, kinds), with the byte range
    widened over all conflicting words. *)
val findings : t -> finding list

val has_findings : t -> bool

(** [report t] renders the findings as a Tablefmt table, or a one-line
    all-clear. *)
val report : t -> string
