(** Ablations of the design decisions the paper argues for (§2).

    Where experiments E1–E9 regenerate the paper's published artefacts,
    these isolate the mechanisms:

    - {b A1} protocol zoo: the five applications under LRC, ERC and the
      sequentially-consistent single-writer baseline — quantifying §1's
      claim that early SC-based DSM designs performed poorly;
    - {b A2} false sharing: concurrent writers inside one page under the
      multiple-writer protocol versus single-writer page ping-pong (§2.3);
    - {b A3} lazy versus eager diff creation within LRC (§2.4; the paper
      reports 25% fewer diffs for Jacobi at their scale);
    - {b A4} garbage-collection threshold sweep (§3.6): reclaimed records
      versus time overhead;
    - {b A5} frame loss: the user-level reliability protocol under an
      increasingly lossy medium (robustness check; the paper's networks
      are assumed mostly loss-free);
    - {b A6} invalidate versus hybrid-update write-notice propagation
      within LRC (§2.2 names both options; TreadMarks ships the
      invalidate protocol). *)

type id = A1 | A2 | A3 | A4 | A5 | A6

val id_name : id -> string

(** @raise Invalid_argument on unknown names. *)
val id_of_name : string -> id

val describe : id -> string

(** [run id] — execute and render. *)
val run : id -> string

val run_all : unit -> string
