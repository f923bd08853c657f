(** Consistent-hash ownership ring for the sharded metadata plane.

    Maps pages and locks to owner processors the way a DHT maps keys to
    nodes: every processor contributes [vnodes] = 16 virtual points on a
    64-bit ring, and a key's owner is the first live point clockwise from
    the key's hash.  Two properties make this the right structure for
    256-1024-processor clusters:

    - {b balance}: with enough virtual points, shards spread evenly, so
      no processor is the manager of a constant fraction of all pages or
      locks the way [barrier_manager = 0] and [lock mod nprocs] make it;
    - {b minimal migration}: when a processor dies (membership epoch
      bump), lookups simply skip its points — exactly the dead owner's
      shards move (to their ring successors), every other key keeps its
      owner.  Nothing is rehashed, no state is stored per key.

    Placement is a pure function of [(nprocs, seed)]: every
    processor computes the same ring without communication, and a
    recovering cluster agrees on the new owners the moment it agrees on
    the membership epoch (PR 5's epochs).  Lookup is a binary search,
    O(log(nprocs * vnodes)), plus a walk past dead points bounded by the
    number of deaths. *)

type t

(** [create ~nprocs ~seed ()] — build the ring. *)
val create : nprocs:int -> seed:int64 -> unit -> t

(** [owner t ~live key] — the live processor owning [key]: the first
    point at or clockwise from [hash key] whose processor satisfies
    [live].  @raise Invalid_argument when no processor is live. *)
val owner : t -> live:(int -> bool) -> int -> int

(** Key namespaces: pages and locks hash into disjoint key spaces so a
    page and a lock with the same index need not share an owner. *)
val page_key : int -> int

val lock_key : int -> int
