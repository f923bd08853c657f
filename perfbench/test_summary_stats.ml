(* Tests for the benchmark's summary-statistics helper: empty input, one
   sample, ties, and agreement with Python's statistics.quantiles. *)

module S = Summary_stats

let failures = ref 0

let expect name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-12

let runs_empty () = expect "runs of [] is None" (S.runs [] = None)

let runs_one () =
  match S.runs [ 2.5 ] with
  | Some r -> expect "one sample: all quartiles equal it" (r.S.n = 1 && r.median = 2.5 && r.q1 = 2.5 && r.q3 = 2.5)
  | None -> expect "one sample gives a summary" false

let runs_python () =
  (* statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
     == [2.75, 5.5, 8.25] *)
  match S.runs [ 10.; 1.; 9.; 2.; 8.; 3.; 7.; 4.; 6.; 5. ] with
  | Some r ->
    expect "ten samples: median" (close r.S.median 5.5);
    expect "ten samples: q1" (close r.q1 2.75);
    expect "ten samples: q3" (close r.q3 8.25);
    expect "ten samples: spread" (close (S.spread r) (5.5 /. 5.5))
  | None -> expect "ten samples give a summary" false

let runs_two () =
  (* statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] *)
  match S.runs [ 2.; 1. ] with
  | Some r -> expect "two samples extrapolate like Python" (close r.S.q1 0.75 && close r.q3 2.25 && close r.median 1.5)
  | None -> expect "two samples give a summary" false

let runs_ties () =
  match S.runs [ 3.; 3.; 3.; 3. ] with
  | Some r -> expect "ties: zero spread" (r.S.median = 3. && r.q1 = 3. && r.q3 = 3. && S.spread r = 0.)
  | None -> expect "ties give a summary" false

let dist_empty () =
  let d = S.dist [||] in
  expect "empty distribution is all zero" (d.S.count = 0 && d.p50 = 0. && d.tail = 0. && d.tail_pct = 0.)

let dist_one () =
  let d = S.dist [| 7. |] in
  expect "one sample: p50 is the sample, no tail rung" (d.S.count = 1 && d.p50 = 7. && d.tail_pct = 50. && d.tail = 7.)

let dist_ties () =
  let d = S.dist (Array.make 500 4.) in
  expect "ties: every percentile is the tied value" (d.S.p50 = 4. && d.tail = 4.);
  expect "500 samples: p90 leaves 50 beyond, p99 only 5" (d.tail_pct = 90.);
  expect "1000 samples: p99 leaves exactly ten beyond" ((S.dist (Array.make 1000 1.)).S.tail_pct = 99.)

let dist_ladder () =
  let ramp n = Array.init n (fun i -> float_of_int (n - i)) in
  expect "19 samples: no rung above p50" ((S.dist (ramp 19)).S.tail_pct = 50.);
  expect "100 samples: p90" ((S.dist (ramp 100)).S.tail_pct = 90.);
  let d = S.dist (ramp 100) in
  expect "100 samples: nearest-rank p50 and p90" (d.S.p50 = 50. && d.tail = 90.);
  expect "10000 samples: p99.9" (close (S.dist (ramp 10_000)).S.tail_pct 99.9);
  let xs = ramp 100 in
  ignore (S.dist xs);
  expect "input left unsorted" (xs.(0) = 100.)

let () =
  runs_empty ();
  runs_one ();
  runs_python ();
  runs_two ();
  runs_ties ();
  dist_empty ();
  dist_one ();
  dist_ties ();
  dist_ladder ();
  if !failures > 0 then exit 1 else print_endline "summary_stats: all tests passed"
