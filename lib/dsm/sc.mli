(** Sequentially consistent, single-writer DSM — the "early DSM design"
    baseline (§1, §2.3).

    This is the Li–Hudak-style shared-virtual-memory protocol that
    TreadMarks was built to improve on: every page has exactly one writer
    at a time, reads replicate the page, and a write invalidates every
    other copy.  Under false sharing (two processors touching different
    variables on one page) the page ping-pongs across the network in its
    entirety — the behaviour the multiple-writer protocol eliminates.

    Implementation: each page has a statically assigned {e manager}
    (page mod nprocs) holding the page's ownership record (current owner,
    copyset) and a FIFO of outstanding requests; requests are processed
    one at a time per page, entirely by request handlers:

    - read miss: request → manager → forward to owner → owner downgrades
      itself to read-only and sends the page → requester installs,
      notifies the manager, joins the copyset;
    - write miss: request → manager → manager invalidates every other
      copy (acknowledged) → ownership (and the page, if the writer has no
      current copy) transfers → writer upgrades to read-write.

    Synchronization (locks, barriers) carries no consistency payload:
    memory is kept consistent at every write, which is exactly why this
    protocol communicates so much more.

    Used through {!Protocol} with [Config.protocol = Sc]. *)

val caps : Backend.caps

(** [make cl] builds the single-writer state over [cl]'s nodes and
    returns the backend hook table (all synchronization hooks are
    plain: consistency lives entirely in the fault path). *)
val make : Cluster.t -> Backend.t
