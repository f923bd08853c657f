(** Tardis-style timestamp coherence, packaged as a {!Backend}.

    Pages carry (write, read) logical timestamp counters; reads lease
    the current value forward, writes pick a timestamp past every
    outstanding lease, so no invalidation messages exist.  Each
    synchronization message carries one 8-byte scalar clock
    instead of a vector timestamp, and the acquirer expires stale leases
    with a purely local sweep — nothing on the wire grows with the
    processor count. *)

val caps : Backend.caps
val make : Cluster.t -> Backend.t
