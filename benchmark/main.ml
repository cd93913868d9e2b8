(* The repository benchmark: one seeded closed-loop workload per run.

     benchmark/run.sh --workload cve-e2e --seed 0 --seconds 20 --trace 0 \
       [--out FILE] [--trace-out FILE]

   The last line of standard output is the result: {"correct",
   "attempted", "failed", "metrics"}, with the end-to-end metrics of
   BENCHMARK.json when --trace is 0 and its per-layer metrics when it is
   1. --out also writes the result with the run's settings (the file
   benchmark/compare.exe reads); --trace-out writes the traced run's
   records, one ksplice-trace/1 document per op. The exit code is 1
   when any check failed. *)

module J = Report.Json

let () =
  (* Domain-parallel creation made the same run's times swing by a fifth
     on a 2-core machine; with one domain the numbers measure the
     pipeline rather than the scheduler. *)
  Unix.putenv "KSPLICE_DOMAINS" "1";
  let workload = ref "" and seed = ref 0 and seconds = ref 20 and trace = ref 0 in
  let out = ref None and trace_out = ref None in
  let names = List.map (fun (w : Kbench.Workloads.t) -> w.name) Kbench.Workloads.all in
  Arg.parse
    [
      ("--workload", Arg.Symbol (names, ( := ) workload), " the workload to run");
      ("--seed", Arg.Set_int seed, "N seed for the op order and inputs (default 0)");
      ("--seconds", Arg.Set_int seconds, "N how long the op loop runs (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 1 = the traced run: per-layer metrics");
      ("--out", Arg.String (fun f -> out := Some f), "FILE also write the result and settings here");
      ("--trace-out", Arg.String (fun f -> trace_out := Some f), "FILE write the traced records here");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--seconds N] [--trace 0|1]";
  let w =
    match Kbench.Workloads.find !workload with
    | Some w -> w
    | None ->
      prerr_endline "--workload is required";
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  let r =
    Kbench.Runner.run ?trace_out:!trace_out w ~seed:!seed ~seconds:(float_of_int !seconds)
      ~trace:(!trace = 1)
  in
  List.iter (fun m -> prerr_endline ("check failed: " ^ m)) r.failures;
  let doc = Kbench.Runner.result_json r in
  Option.iter
    (fun path ->
      match
        J.to_file path
          (Kbench.Runner.run_json ~workload:w.name ~seed:!seed
             ~seconds:!seconds ~trace:(!trace = 1) r)
      with
      | Ok () -> ()
      | Error m ->
        prerr_endline m;
        exit 1)
    !out;
  print_endline (Kbench.Runner.compact (J.to_string doc));
  exit (if r.correct then 0 else 1)
