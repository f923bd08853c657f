(** Growable array buffer (amortized O(1) [push]).

    OCaml 5.1 predates [Dynarray]; the simulator's hot paths (trace
    listeners, consistency-record accumulation, diff-fetch assembly) need
    an append-in-order container without the reverse-and-copy or quadratic
    [(@)] costs of list accumulation.  Elements pushed stay reachable
    until the vector itself is collected ([clear] does not erase the
    backing array) — callers that buffer large values briefly should drop
    the whole vector instead of reusing it. *)

type 'a t

(** [create ()] — an empty vector; the backing array is allocated at the
    first push. *)
val create : unit -> 'a t

val length : 'a t -> int

(** [push t x] appends [x]; amortized O(1), doubling growth. *)
val push : 'a t -> 'a -> unit

(** [iter f t] — visit elements in push order. *)
val iter : ('a -> unit) -> 'a t -> unit

val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

(** [to_list t] — elements in push order. *)
val to_list : 'a t -> 'a list

(** [clear t] — forget the elements (keeps the backing array). *)
val clear : 'a t -> unit
