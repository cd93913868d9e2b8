(* Compare benchmark runs of a parent commit and a change.

     dune exec --root . benchmark/compare.exe -- PARENT_RUNS... -- CHANGE_RUNS...

   Each argument is a run file written by main.exe --out. Untraced runs
   are judged per workload and end-to-end metric against the
   BENCHMARK.json of the current directory:
   a change whose median is worse than the parent's by more than the
   metric's bound is a regression; a metric whose run-to-run spread
   (quartile distance over median) exceeds its bound is unresolved
   unless every change run beats every parent run; a gain needs the
   change to win at least 9 of 10 pairs (runs paired in the order given)
   and the medians to differ by more than the parent's quartile
   distance. Traced runs print the per-layer medians and their deltas.
   Exits 1 on any regression, 2 on unusable input. *)

module J = Report.Json
module Spec = Kbench.Spec
module Stats = Kbench.Stats

type run = {
  workload : string;
  traced : bool;
  values : (string * float) list;
}

let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt

let load path =
  match J.of_file path with
  | Error m -> die "%s" m
  | Ok j -> (
    let str k = Option.bind (J.member k j) J.to_str in
    let metrics =
      Option.bind (J.member "result" j) (J.member "metrics")
    in
    match (str "workload", J.member "trace" j, metrics) with
    | Some workload, Some (J.Bool traced), Some (J.Obj ms) ->
      let values =
        List.filter_map
          (fun (k, m) ->
            Option.map (fun v -> (k, v))
              (Option.bind (J.member "value" m) J.to_float))
          ms
      in
      { workload; traced; values }
    | _ -> die "%s: not a run file (main.exe --out)" path)

let values runs ~workload ~traced name =
  List.filter_map
    (fun r ->
      if String.equal r.workload workload && r.traced = traced then
        List.assoc_opt name r.values
      else None)
    runs

let spread xs =
  match Stats.quartiles xs with
  | Some (q1, m, q3) when m <> 0. -> Some ((q3 -. q1) /. Float.abs m)
  | _ -> None

type verdict = Same | Gain | Regression | Unresolved | Missing

let verdict_name = function
  | Same -> "same"
  | Gain -> "gain"
  | Regression -> "REGRESSION"
  | Unresolved -> "unresolved"
  | Missing -> "missing"

(* [better a b]: does value [a] read better than [b]? *)
let judge (m : Spec.metric) parent change =
  let better a b = if m.higher_is_better then a > b else a < b in
  match (parent, change) with
  | [], _ | _, [] -> Missing
  | _ ->
    let pm = Stats.median parent and cm = Stats.median change in
    let bound = Option.value ~default:0. m.bound in
    let worse_by =
      if pm = 0. then 0.
      else (if m.higher_is_better then pm -. cm else cm -. pm) /. Float.abs pm
    in
    let all_better =
      List.for_all (fun c -> List.for_all (fun p -> better c p) parent) change
    in
    let wide =
      List.exists
        (fun xs -> match spread xs with Some s -> s > bound | None -> false)
        [ parent; change ]
    in
    let rec zip a b =
      match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> []
    in
    let pairs = zip parent change in
    let wins = List.length (List.filter (fun (p, c) -> better c p) pairs) in
    let parent_iqr =
      match Stats.quartiles parent with Some (q1, _, q3) -> q3 -. q1 | None -> 0.
    in
    if wide && not all_better then Unresolved
    else if worse_by > bound then Regression
    else if
      better cm pm
      && 10 * wins >= 9 * List.length pairs
      && Float.abs (cm -. pm) > parent_iqr
    then Gain
    else Same

let pp_side xs =
  match Stats.quartiles xs with
  | Some (q1, m, q3) -> Printf.sprintf "%12.5g [%.5g, %.5g]" m q1 q3
  | None -> Printf.sprintf "%12.5g" (Stats.median xs)

let () =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> die "usage: compare.exe PARENT_RUNS... -- CHANGE_RUNS..."
  in
  let parent_files, change_files = split [] (List.tl (Array.to_list Sys.argv)) in
  let spec =
    match Spec.load "BENCHMARK.json" with Ok s -> s | Error m -> die "%s" m
  in
  let parent = List.map load parent_files and change = List.map load change_files in
  let regressions = ref 0 in
  List.iter
    (fun workload ->
      Printf.printf "== %s\n%-26s %-38s %-38s %s\n" workload "metric"
        "parent median [q1, q3]" "change median [q1, q3]" "verdict";
      List.iter
        (fun (m : Spec.metric) ->
          let p = values parent ~workload ~traced:false m.name
          and c = values change ~workload ~traced:false m.name in
          let v = judge m p c in
          if v = Regression then incr regressions;
          Printf.printf "%-26s %-38s %-38s %s\n" m.name (pp_side p) (pp_side c)
            (verdict_name v))
        spec.end_to_end;
      let layer_rows =
        List.filter_map
          (fun (m : Spec.metric) ->
            match
              ( values parent ~workload ~traced:true m.name,
                values change ~workload ~traced:true m.name )
            with
            | [], _ | _, [] -> None
            | p, c -> Some (m.name, Stats.median p, Stats.median c))
          spec.per_layer
      in
      if layer_rows <> [] then begin
        Printf.printf "-- per layer (traced medians)\n";
        List.iter
          (fun (name, p, c) ->
            Printf.printf "%-26s %12.5g %12.5g %+8.1f%%\n" name p c
              (if p = 0. then 0. else 100. *. (c -. p) /. Float.abs p))
          layer_rows
      end)
    spec.workloads;
  exit (if !regressions > 0 then 1 else 0)
