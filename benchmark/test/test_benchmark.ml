(* Two ops per workload through the benchmark's own entry point: every
   metric BENCHMARK.json names comes out with its unit, every check
   passes, the traced run writes one trace document per op, and the
   counts that depend only on the seed repeat exactly. *)

module Runner = Kbench.Runner
module Spec = Kbench.Spec

let spec =
  lazy
    (match Spec.load "../../BENCHMARK.json" with
     | Ok s -> s
     | Error m -> failwith m)

let run ?trace_out w ~trace =
  Runner.run ?trace_out ~max_ops:2 w ~seed:7 ~seconds:30. ~trace

let check_run what (r : Runner.result) (expected : Spec.metric list) =
  Alcotest.(check (list string)) (what ^ ": failures") [] r.failures;
  Alcotest.(check bool) (what ^ ": correct") true r.correct;
  Alcotest.(check int) (what ^ ": attempted") 2 r.attempted;
  Alcotest.(check (list (pair string string)))
    (what ^ ": metric names and units")
    (List.map (fun (m : Spec.metric) -> (m.name, m.unit)) expected)
    (List.map (fun (name, unit, _) -> (name, unit)) r.metrics)

(* seed-determined, so equal on every run of the same ops *)
let deterministic =
  [ "transition.pause_ns_max"; "fleet.wire_bytes_per_sync"; "update.bytes";
    "kbuild.units_compiled"; "runpre.match_attempts" ]

let values (r : Runner.result) =
  List.filter_map
    (fun (name, _, v) -> if List.mem name deterministic then Some (name, v) else None)
    r.metrics

let workload_case (w : Kbench.Workloads.t) =
  Alcotest.test_case w.name `Quick (fun () ->
      let spec = Lazy.force spec in
      check_run (w.name ^ " untraced") (run w ~trace:false) spec.end_to_end;
      let trace_out = w.name ^ ".trace.jsonl" in
      let a = run ~trace_out w ~trace:true in
      check_run (w.name ^ " traced") a spec.per_layer;
      (* one ksplice-trace/1 document per traced op *)
      let docs =
        In_channel.with_open_text trace_out In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (( <> ) "")
        |> List.map (fun line ->
               match Report.Json.parse line with
               | Ok j -> Option.bind (Report.Json.member "schema" j) Report.Json.to_str
               | Error m -> Some m)
      in
      Alcotest.(check (list (option string)))
        (w.name ^ ": trace documents")
        [ Some "ksplice-trace/1"; Some "ksplice-trace/1" ]
        docs;
      let b = run w ~trace:true in
      Alcotest.(check (list (pair string (float 0.))))
        (w.name ^ ": same seed, same counts") (values a) (values b))

let spec_case =
  Alcotest.test_case "workloads match BENCHMARK.json" `Quick (fun () ->
      Alcotest.(check (list string))
        "workload names" (Lazy.force spec).workloads
        (List.map (fun (w : Kbench.Workloads.t) -> w.name) Kbench.Workloads.all))

let () =
  Alcotest.run "benchmark"
    [ ("benchmark", spec_case :: List.map workload_case Kbench.Workloads.all) ]
