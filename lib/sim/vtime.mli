(** Virtual time: integer nanoseconds since simulation start.

    Integer time keeps the simulation exactly deterministic (no
    floating-point drift between runs or platforms).  One [int] holds
    ~292 years of nanoseconds on a 64-bit OCaml, far beyond any run. *)

type t = int

(** [zero] is the simulation epoch. *)
val zero : t

(** [ns n], [us n], [ms n], [s n] build durations from the given unit. *)
val ns : int -> t

val us : int -> t
val ms : int -> t
val s : int -> t

(** [to_us t], [to_ms t], [to_s t] convert to floating-point units for
    reporting. *)
val to_us : t -> float

val to_ms : t -> float
val to_s : t -> float

(** [add], [sub], [max], [min] — arithmetic, for readability at call
    sites. *)
val add : t -> t -> t

val sub : t -> t -> t
val max : t -> t -> t
val min : t -> t -> t

(** [scale t k] multiplies a duration by an integer factor. *)
val scale : t -> int -> t

(** [pp] prints adaptively ([ns], [µs], [ms] or [s]). *)
val pp : Format.formatter -> t -> unit
