(** Fixed-capacity bitsets.

    Used for page copysets (the set of processors believed to cache a page,
    paper §3.1), copyset directories, GC keep bitmaps and the live-processor
    set.  Capacity is fixed at creation; membership operations are O(1).

    A set is either built in place ({!add}, {!remove}, {!clear}) or treated
    as an immutable value and updated with {!with_member},
    {!without_member} and {!union}, which never mutate their arguments and
    return an argument itself when membership does not change.  A value
    updated that way can be shared by any number of holders. *)

type t

(** [create n] makes a set over the universe [0, n). *)
val create : int -> t

(** [add t i] inserts [i]. *)
val add : t -> int -> unit

(** [remove t i] deletes [i]. *)
val remove : t -> int -> unit

(** [mem t i] tests membership. *)
val mem : t -> int -> bool

(** [cardinal t] is the number of members. *)
val cardinal : t -> int

(** [is_empty t] holds when no element is present. *)
val is_empty : t -> bool

(** [clear t] removes every element. *)
val clear : t -> unit

(** [iter f t] applies [f] to members in increasing order. *)
val iter : (int -> unit) -> t -> unit

(** [fold f t init] folds over members in increasing order. *)
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** [to_list t] lists members in increasing order. *)
val to_list : t -> int list

(** [next_member t i] is the smallest member [>= i], or [None] when no
    member remains at or above [i].  Seeks a byte at a time, so cyclic
    "next live processor" probes over a big sparse universe cost far
    fewer loads than a per-bit scan. *)
val next_member : t -> int -> int option

(** [with_member t i] is [t] with [i] added: [t] itself when [i] is a
    member, else a new set. *)
val with_member : t -> int -> t

(** [without_member t i] is [t] with [i] removed: [t] itself when [i] is
    not a member, else a new set. *)
val without_member : t -> int -> t

(** [union a b] holds the members of both: [a] itself when [b]'s members
    are all in [a], else [b] itself when [a]'s are all in [b], else a new
    set.  The two sets must have the same capacity. *)
val union : t -> t -> t
