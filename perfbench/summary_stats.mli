(** Summary statistics for benchmark samples.

    Two shapes of data pass through the benchmark:

    - {e run metrics}: a handful of per-run values (wall seconds, set-up
      seconds), summarised by their median and quartiles.  The quartiles
      follow Python's [statistics.quantiles(values, n=4)] (the
      "exclusive" method), so a spread computed here matches one computed
      from the printed values with the Python standard library;
    - {e distributions}: many per-event values (lock waits, fault service
      times, GC pauses), summarised by the median, the highest percentile
      that still has at least ten samples beyond it, and the sample count.
      Percentiles use the nearest-rank rule, so every reported value is one
      of the samples. *)

type runs = { n : int; median : float; q1 : float; q3 : float }

(** [runs xs] — [None] for an empty list.  One sample gives
    [median = q1 = q3] equal to it. *)
val runs : float list -> runs option

(** [spread r] — the interquartile distance as a share of the median
    ([0.] when the median is [0.]). *)
val spread : runs -> float

type dist = {
  count : int;
  p50 : float;
  tail_pct : float;
      (** the highest percentile of the ladder 90, 99, 99.9, ... with at
          least ten samples beyond it; [50.] when fewer than twenty samples
          leave no such percentile, and [0.] for an empty distribution *)
  tail : float;  (** the value at [tail_pct] *)
}

(** [dist xs] — summary of a distribution; all fields are [0] for an empty
    array.  [xs] is not modified. *)
val dist : float array -> dist
