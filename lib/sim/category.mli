(** CPU-time accounting categories.

    These mirror the decomposition the paper reports in Figures 5–7:
    application computation; Unix kernel time split into communication and
    memory management; TreadMarks user-level time split into memory
    management (twin/diff work), consistency (interval and write-notice
    bookkeeping), and other (protocol message handling and
    synchronization).  Idle time is not a category — the engine derives it
    as elapsed time minus busy time. *)

type t =
  | Computation  (** application code *)
  | Unix_comm  (** kernel communication: send/receive/select/signal dispatch *)
  | Unix_mem  (** kernel memory management: mprotect, SIGSEGV generation *)
  | Tmk_mem  (** user-level change detection: twin copy, diff create/apply *)
  | Tmk_consistency  (** interval/write-notice/vector-timestamp bookkeeping *)
  | Tmk_other  (** remaining DSM code: request marshalling, sync handling *)

(** [all] lists every category, in report order. *)
val all : t list

(** [count] is [List.length all]. *)
val count : int

(** [index t] is a dense index for array-based accumulators. *)
val index : t -> int
