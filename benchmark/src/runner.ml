(* The closed-loop driver: set a workload up several times, run its ops
   until the time is up, check, and turn the samples into the metrics of
   BENCHMARK.json. *)

module J = Report.Json

(* Cold set-ups per untraced run; [setup_s] is their median. The host's
   speed changes in stretches of a few hundred ms, so the repetitions
   must span more than one stretch: 21 of them take about a second. *)
let setup_reps = 21

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  failures : string list;  (** the first few, for the log *)
  metrics : (string * string * float) list;  (** name, unit, value *)
  ops : int;
}

type loop = {
  passed : (int * float * float) list;
      (** per op that passed: its start (ns since the loop began), the
          latency of its timed part (ms) and its whole duration (s) *)
  l_attempted : int;
  l_failed : int;
  l_notes : string list;
}

(* [J.to_string] pretty-prints; every newline it emits is structural
   (strings escape theirs), so dropping newlines and indentation leaves
   the same document on one line *)
let compact s =
  String.split_on_char '\n' s |> List.map String.trim |> String.concat ""

let note_of = function
  | Workloads.Op_failed m -> m
  | e -> Printexc.to_string e

(* Run [inst]'s ops in one closed loop until [seconds] pass or [max_ops]
   ops were attempted. [each] wraps every op. *)
let loop ?(each = fun f -> f ()) ~seconds ~max_ops inst =
  let t0 = Stats.now_ns () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let passed = ref [] and failed = ref 0 and notes = ref [] and n = ref 0 in
  while Stats.now_ns () < deadline && !n < max_ops do
    incr n;
    let start = Stats.now_ns () in
    match each inst.Workloads.op with
    | ms -> passed := (start - t0, ms, Stats.ms_since start /. 1e3) :: !passed
    | exception e ->
      incr failed;
      notes := note_of e :: !notes
  done;
  { passed = !passed; l_attempted = !n; l_failed = !failed; l_notes = List.rev !notes }

(* The machine this runs on is shared, and its speed wanders: a fixed
   loop timed in 40 ms slices took anywhere from 34 to 60 ms. So every
   end-to-end timing is computed per one-second window of the loop (by
   op start) and reported as the median over the windows: a slow stretch
   covering less than half the run barely moves it. [f] summarises one
   window's ops. *)
let windowed ~seconds (lp : loop) f =
  let n = max 1 (int_of_float seconds) in
  let len = seconds *. 1e9 /. float_of_int n in
  let windows = Array.make n [] in
  List.iter
    (fun ((at, _, _) as op) ->
      let w = min (n - 1) (int_of_float (float_of_int at /. len)) in
      windows.(w) <- op :: windows.(w))
    lp.passed;
  Array.to_list windows
  |> List.filter_map (function [] -> None | ops -> Some (f ops))
  |> Stats.median

let latency q ops = Stats.percentile q (List.map (fun (_, ms, _) -> ms) ops)

(* ops per second of the time they took, untimed parts included *)
let throughput ops =
  float_of_int (List.length ops) /. List.fold_left (fun a (_, _, s) -> a +. s) 0. ops

let finish inst =
  match inst.Workloads.finish () with
  | notes -> notes
  | exception e -> [ note_of e ]

let summarize ~lp ~notes ~metrics =
  let failures = lp.l_notes @ notes in
  {
    correct = lp.l_failed = 0 && notes = [];
    attempted = max 1 lp.l_attempted;
    failed = lp.l_failed;
    failures = List.filteri (fun i _ -> i < 10) failures;
    metrics;
    ops = lp.l_attempted;
  }

(* The untraced run: the end-to-end metrics. *)
let run_untraced (w : Workloads.t) ~seed ~seconds ~max_ops =
  (* keep only the last set-up alive: earlier ones are garbage *)
  let times = ref [] and last = ref None in
  for _ = 1 to setup_reps do
    last := None;
    let t0 = Stats.now_ns () in
    let inst = w.setup ~seed in
    times := (Stats.ms_since t0 /. 1e3) :: !times;
    last := Some inst
  done;
  let inst = Option.get !last and times = !times in
  let lp = loop ~seconds ~max_ops inst in
  let notes = finish inst in
  let metrics =
    [
      ("setup_s", "s", Stats.median times);
      ("op_ms.p50", "ms", windowed ~seconds lp (latency 0.50));
      ("op_ms.p90", "ms", windowed ~seconds lp (latency 0.90));
      ("ops_per_s", "1/s", windowed ~seconds lp throughput);
    ]
  in
  summarize ~lp ~notes ~metrics

(* The traced run: the same seed's ops twice from a fresh set-up, first
   untraced for half the time, then exactly as many traced, each op
   drained into the per-layer accumulator (and, with [trace_out], written
   as one ksplice-trace/1 document per line). Both halves split the
   builds out of create, so they differ only in tracing. *)
let run_traced (w : Workloads.t) ~seed ~seconds ~max_ops ~trace_out =
  Workloads.split_builds := true;
  Fun.protect ~finally:(fun () -> Workloads.split_builds := false) @@ fun () ->
  let plain = loop ~seconds:(seconds /. 2.) ~max_ops (w.setup ~seed) in
  let inst = w.setup ~seed in
  let acc = Layers.create () in
  let out = Option.map open_out trace_out in
  let each f =
    Trace.reset ();
    Trace.set_clock Stats.now_ns;
    let kb = Kbuild.cache_stats () in
    Fun.protect
      ~finally:(fun () ->
        let kb' = Kbuild.cache_stats () in
        Trace.count "kbuild.hits" (kb'.hits - kb.hits);
        Trace.count "kbuild.misses" (kb'.misses - kb.misses);
        Layers.drain acc;
        Option.iter
          (fun oc ->
            output_string oc (J.to_string (Trace.export ()) |> compact);
            output_char oc '\n')
          out)
      (fun () -> Trace.with_span Layers.root f)
  in
  Trace.set_capacity (1 lsl 20);
  Trace.set_enabled true;
  let traced =
    Fun.protect
      ~finally:(fun () -> Trace.set_enabled false; Option.iter close_out out)
      (fun () ->
        (* the op count bounds the replay; the time limit only guards it *)
        loop ~each ~seconds:(60. *. seconds)
          ~max_ops:(min max_ops plain.l_attempted) inst)
  in
  let notes = finish inst in
  let metrics =
    Layers.metrics acc
      ~untraced_p50:(latency 0.50 plain.passed)
      ~traced_p50:(latency 0.50 traced.passed)
  in
  summarize
    ~lp:{ traced with l_notes = plain.l_notes @ traced.l_notes;
                      l_failed = plain.l_failed + traced.l_failed }
    ~notes ~metrics

let run ?(max_ops = max_int) ?trace_out (w : Workloads.t) ~seed ~seconds ~trace =
  if trace then run_traced w ~seed ~seconds ~max_ops ~trace_out
  else run_untraced w ~seed ~seconds ~max_ops

(* The result line: exactly the keys the benchmark contract names. *)
let result_json r =
  J.Obj
    [
      ("correct", J.Bool r.correct);
      ("attempted", J.Num (float_of_int r.attempted));
      ("failed", J.Num (float_of_int r.failed));
      ( "metrics",
        J.Obj
          (List.map
             (fun (name, unit, v) ->
               (name, J.Obj [ ("value", J.Num v); ("unit", J.Str unit) ]))
             r.metrics) );
    ]

(* A run file: the result line plus what the run was, for
   benchmark/compare.exe and the committed baselines. *)
let run_json ~workload ~seed ~seconds ~trace r =
  let n i = J.Num (float_of_int i) in
  J.Obj
    [
      ("schema", J.Str "ksplice-benchmark-run/1");
      ("workload", J.Str workload);
      ("seed", n seed);
      ("seconds", n seconds);
      ("trace", J.Bool trace);
      ("nproc", n (Parallel.available_domains ()));
      ("domains", n (Parallel.default_domains ()));
      ("ops", n r.ops);
      ("failures", J.Arr (List.map (fun m -> J.Str m) r.failures));
      ("result", result_json r);
    ]
