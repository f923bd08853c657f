(** Regeneration of every table and figure in the paper's evaluation
    (§4–§5), and the studies past it.  Each experiment is a value: it runs
    the necessary simulations and renders plain-text tables or charts,
    quoting the paper's own numbers alongside for shape comparison.  The
    per-experiment index lives in DESIGN.md §3; measured-vs-paper records
    live in EXPERIMENTS.md. *)

(** What an experiment's body returns. *)
type result = {
  tables : string;  (** the rendered report *)
  gates : (string * bool option) list;
      (** claims the experiment checks on its own numbers: [Some true]
          holds, [Some false] fails, [None] the run cannot decide (an
          E14 sweep narrower than 4x) *)
  ledger : (string * Tmk_util.Json.t) option;
      (** the file the raw measurements go to, and its contents (see
          {!ledger}) *)
}

type t = {
  name : string;  (** lowercase, as given on bench's command line: ["e3"], ["a2"] *)
  describe : string;  (** one line *)
  body : unit -> result;
}

(** [all] — E1–E14 in paper order.  E1–E9 regenerate the paper's
    artefacts and are reports only; E10 (loss robustness), E11 (2–64
    processors, batched vs unbatched traffic, [BENCH_3.json]), E12 (crash
    survival, [BENCH_5.json]), E13 (coherence backends, [BENCH_7.json])
    and E14 (64–1024 processors, flat vs sharded metadata plane,
    [BENCH_10.json]) sweep independent arms and check gates. *)
val all : t list

(** [report name describe tables] — an entry with no gates and no
    ledger. *)
val report : string -> string -> (unit -> string) -> t

(** [find registry name] — the entry called [name], ignoring case. *)
val find : t list -> string -> t option

(** [run e] — execute [e], write its ledger to the working directory, and
    return its report (a [=== NAME: describe ===] header, the tables, one
    [claim: yes | NO - REGRESSION | not swept] line per gate and the
    ledger's file name) and whether no gate failed. *)
val run : t -> string * bool

(** [ledger experiment config rows] — the one shape of every measurement
    file: [{"experiment", "config", "metrics"}], where [config] holds
    what every arm shares (network, processor count, per-app workloads)
    and each row of [metrics] is [{"arm": {<its keys>}, <its raw
    measurements>}], with [digest] when the arm ran checked, and
    [degraded_pid] and [reason] instead of measurements when a crash
    degraded it.  Derived ratios are left to readers ([bench/delta.py]
    compares two ledgers arm by arm). *)
val ledger :
  string -> (string * Tmk_util.Json.t) list -> Tmk_util.Json.t list -> Tmk_util.Json.t

(** [set_jobs n] — run the independent arms of the sweeps (E10–E14) on up
    to [n] OCaml domains via {!Harness.parallel_map}.  The default is 1
    (sequential); reports and ledgers are byte-identical at any value. *)
val set_jobs : int -> unit

(** [set_e14_procs l] — override E14's processor-count sweep (default
    [[64; 256; 1024]]); the CI smoke arm runs a single cheap point.
    Empty lists are ignored.  The O(nprocs) scaling gates need at least a
    4x range and report "not swept" otherwise. *)
val set_e14_procs : int list -> unit
