(* Order statistics shared by the runner and the comparison tool. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ms_since t0 = float_of_int (now_ns () - t0) /. 1e6

let sorted xs = List.sort Float.compare xs

(* nearest rank: the smallest sample with at least [p] of the samples at
   or below it *)
let percentile p xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's [statistics.quantiles(xs, n=4)] (the default "exclusive"
   method), so the first and third quartiles printed here are the ones
   a reviewer recomputes from the same run files. *)
let quartiles xs =
  match sorted xs with
  | [] | [ _ ] -> None
  | s ->
    let a = Array.of_list s in
    let ld = Array.length a in
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    Some (q 1, q 2, q 3)
