(** Fixed-capacity mutable bitsets.

    Used for page copysets (the set of processors believed to cache a page,
    paper §3.1) and for per-interval page sets.  Capacity is fixed at
    creation; membership operations are O(1). *)

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

(** [copy t] is an independent duplicate. *)
val copy : t -> t

(** [union_into ~src ~dst] adds every member of [src] to [dst].  The two
    sets must have the same capacity. *)
val union_into : src:t -> dst:t -> unit
