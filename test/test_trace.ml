(* The structured tracing layer: span nesting, the bounded ring buffer,
   counters/histograms, and the determinism contract (identical runs
   export byte-identical traces — the property the whole layer is
   clocked by retired instructions to keep). *)

module Tree = Patchfmt.Source_tree
module Diff = Patchfmt.Diff
module Image = Klink.Image
module Machine = Kernel.Machine
module Create = Ksplice.Create
module Apply = Ksplice.Apply

open Fixture

let t name f = Alcotest.test_case name `Quick f

(* every test owns the global collector: start clean, leave clean
   (reset preserves capacity, so restore the default explicitly) *)
let with_trace f =
  Trace.reset ();
  Trace.set_capacity 16384;
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    f

let test_disabled_is_noop () =
  Trace.reset ();
  Trace.set_enabled false;
  let r =
    Trace.with_span "outer" (fun () ->
        Trace.instant "ev";
        Trace.count "c" 1;
        Trace.observe "h" 1.0;
        17)
  in
  Alcotest.(check int) "with_span passes the result through" 17 r;
  Alcotest.(check int) "no records" 0 (List.length (Trace.records ()));
  Alcotest.(check int) "no counter" 0 (Trace.counter_value "c");
  Alcotest.(check int) "no histograms" 0 (List.length (Trace.histograms ()))

let test_span_nesting () =
  with_trace @@ fun () ->
  Trace.with_span "outer" (fun () ->
      Trace.instant "ping";
      Trace.with_span "inner" (fun () -> Trace.instant "pong"));
  match Trace.records () with
  | [ ob; ping; ib; pong; ie; oe ] ->
    Alcotest.(check int) "ids are dense" 5 oe.Trace.id;
    Alcotest.(check int) "outer is a root" (-1) ob.Trace.parent;
    Alcotest.(check int) "instant under outer" ob.Trace.id ping.Trace.parent;
    Alcotest.(check int) "inner under outer" ob.Trace.id ib.Trace.parent;
    Alcotest.(check int) "instant under inner" ib.Trace.id pong.Trace.parent;
    Alcotest.(check int) "end names its begin" ib.Trace.id ie.Trace.parent;
    Alcotest.(check string) "end keeps the name" "outer" oe.Trace.name;
    Alcotest.(check bool) "kinds" true
      (ob.Trace.kind = Trace.Span_begin && oe.Trace.kind = Trace.Span_end
      && ping.Trace.kind = Trace.Instant)
  | l -> Alcotest.failf "expected 6 records, got %d" (List.length l)

let test_span_exception () =
  with_trace @@ fun () ->
  (try Trace.with_span "boom" (fun () -> failwith "nope")
   with Failure _ -> ());
  match Trace.records () with
  | [ _; e ] ->
    Alcotest.(check bool) "end record carries raised" true
      (List.mem_assoc "raised" e.Trace.fields)
  | l -> Alcotest.failf "expected 2 records, got %d" (List.length l)

let test_ring_drop_oldest () =
  with_trace @@ fun () ->
  Trace.set_capacity 16;
  Alcotest.(check int) "capacity clamps" 16 (Trace.capacity ());
  for i = 0 to 19 do
    Trace.instant (Printf.sprintf "ev%d" i)
  done;
  let rs = Trace.records () in
  Alcotest.(check int) "ring is bounded" 16 (List.length rs);
  Alcotest.(check int) "dropped counted" 4 (Trace.dropped ());
  Alcotest.(check int) "oldest survivor first" 4 (List.hd rs).Trace.id;
  Alcotest.(check int) "newest last" 19
    (List.nth rs 15).Trace.id;
  match Trace.export () with
  | Report.Json.Obj fields ->
    Alcotest.(check (option int)) "export reports dropped" (Some 4)
      (Option.bind (List.assoc_opt "dropped" fields) Report.Json.to_int)
  | _ -> Alcotest.fail "export is not an object"

let test_counters_and_histograms () =
  with_trace @@ fun () ->
  Trace.count "c.a" 2;
  Trace.count "c.a" 3;
  Trace.count "c.b" 1;
  Trace.observe "h" 2.0;
  Trace.observe "h" 100.0;
  Trace.observe "h" 5e6;
  Alcotest.(check int) "counter accumulates" 5 (Trace.counter_value "c.a");
  Alcotest.(check int) "absent counter is 0" 0 (Trace.counter_value "c.z");
  (match Trace.histograms () with
   | [ ("h", h) ] ->
     Alcotest.(check int) "count" 3 h.Trace.h_count;
     Alcotest.(check bool) "min/max" true
       (h.Trace.h_min = 2.0 && h.Trace.h_max = 5e6);
     let in_bucket le =
       match List.assoc_opt le h.Trace.h_buckets with
       | Some n -> n
       | None -> Alcotest.failf "no bucket <= %f" le
     in
     Alcotest.(check int) "2.0 lands in (1,4]" 1 (in_bucket 4.);
     Alcotest.(check int) "100.0 lands in (64,256]" 1 (in_bucket 256.);
     Alcotest.(check int) "5e6 lands in the overflow bucket" 1
       (in_bucket infinity)
   | l -> Alcotest.failf "expected 1 histogram, got %d" (List.length l));
  (* the metrics document parses and round-trips (infinite bucket bound
     included) *)
  let text = Report.Json.to_string (Trace.metrics ()) in
  match Report.Json.parse text with
  | Error m -> Alcotest.failf "metrics does not parse: %s" m
  | Ok v ->
    Alcotest.(check string) "metrics round-trips" text
      (Report.Json.to_string v)

(* --- the instrumented pipeline, on the tiny two-function kernel --- *)

let base_src =
  {|
int fares = 7;
int fare(int z) {
  int acc = 0;
  int i;
  for (i = 0; i < z; i = i + 1)
    acc = acc + fares;
  return acc;
}
int churn(int n) {
  int acc = 0;
  int i;
  for (i = 0; i < n; i = i + 1)
    acc = acc + fare(3);
  return acc;
}
|}

let test_apply_spans () =
  with_trace @@ fun () ->
  let tree, _img, m = boot base_src in
  Trace.set_clock (fun () -> Machine.instructions_retired m);
  let u = mk_update ~id:"fare" tree (patched_fare tree) in
  let ap = Apply.init m in
  (match Apply.apply ap u with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "apply: %a" Apply.pp_error e);
  let names =
    List.filter_map
      (fun r ->
        if r.Trace.kind = Trace.Span_begin then Some r.Trace.name else None)
      (Trace.records ())
  in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " span present") true (List.mem n names))
    [ "create"; "create.unit"; "runpre.match_helper"; "apply";
      "apply.step.allocate"; "apply.step.link"; "apply.step.quiesce";
      "apply.step.trampoline"; "apply.step.commit" ];
  (* every apply.step span is a child of the apply span *)
  let apply_begin =
    List.find (fun r -> r.Trace.name = "apply") (Trace.records ())
  in
  List.iter
    (fun r ->
      if
        r.Trace.kind = Trace.Span_begin
        && String.starts_with ~prefix:"apply.step." r.Trace.name
      then
        Alcotest.(check int)
          (r.Trace.name ^ " under apply")
          apply_begin.Trace.id r.Trace.parent)
    (Trace.records ());
  Alcotest.(check int) "trampoline counted" 1
    (Trace.counter_value "apply.trampolines");
  Alcotest.(check bool) "match attempts counted" true
    (Trace.counter_value "runpre.match_attempts" > 0)

(* an export alone recomputes per-op counts: it carries every counter *)
let test_export_carries_counters () =
  with_trace @@ fun () ->
  let tree, _img, m = boot base_src in
  Trace.set_clock (fun () -> Machine.instructions_retired m);
  let u = mk_update ~id:"fare" tree (patched_fare tree) in
  (match Apply.apply (Apply.init m) u with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "apply: %a" Apply.pp_error e);
  let exported =
    match Report.Json.member "counters" (Trace.export ()) with
    | Some (Report.Json.Obj fields) ->
      List.map
        (fun (k, v) -> (k, Option.value ~default:(-1) (Report.Json.to_int v)))
        fields
    | _ -> Alcotest.fail "export has no counters object"
  in
  Alcotest.(check bool) "the apply counted something" true
    (Trace.counters () <> []);
  Alcotest.(check (list (pair string int)))
    "exported counters" (Trace.counters ()) exported

(* tracing observes and never steers: for a few corpus CVEs, Table-1
   hook-bearing ones included, a traced apply lands the footprint of an
   untraced one *)
let test_traced_footprint_parity () =
  let base = Corpus.Base_kernel.tree () in
  List.iter
    (fun id ->
      let cve = Option.get (Corpus.Cve.find id) in
      let created =
        ok (id ^ ": create") Create.pp_error
          (Create.create
             { source = base; patch = Corpus.Cve.hot_patch cve base;
               update_id = id; description = cve.desc })
      in
      let footprint () =
        let b = Corpus.Boot.boot () in
        Trace.set_clock (fun () -> Machine.instructions_retired b.machine);
        let ap = Apply.init b.machine in
        ignore
          (ok (id ^ ": apply") Apply.pp_error (Apply.apply ap created.update)
            : Apply.applied);
        Apply.footprint ap
      in
      let untraced = footprint () in
      let traced = with_trace footprint in
      Alcotest.(check string) (id ^ " footprint") untraced traced)
    [ "CVE-2006-2451"; "CVE-2008-0600"; "CVE-2005-3179"; "CVE-2005-2709" ]

let test_runpre_reject_trace () =
  (* corrupt one byte of fare's running code: run-pre matching must
     reject the candidate and the trace must carry the §4 diagnostic —
     the candidate address and the byte offset of first divergence *)
  with_trace @@ fun () ->
  let tree, img, m = boot base_src in
  Trace.set_clock (fun () -> Machine.instructions_retired m);
  let u = mk_update ~id:"fare" tree (patched_fare tree) in
  let entry = (Option.get (Image.lookup_global img "fare")).Image.addr in
  let byte = Machine.read_u8 m entry in
  Machine.write_bytes m entry (Bytes.make 1 (Char.chr (byte lxor 0x01)));
  let ap = Apply.init m in
  (match Apply.apply ap u with
   | Error (Apply.Code_mismatch _) -> ()
   | Ok _ -> Alcotest.fail "corrupted code was accepted"
   | Error e -> Alcotest.failf "unexpected error: %a" Apply.pp_error e);
  let rejected =
    List.filter
      (fun r ->
        r.Trace.name = "runpre.candidate"
        && List.assoc_opt "accepted" r.Trace.fields = Some (Trace.Bool false))
      (Trace.records ())
  in
  Alcotest.(check bool) "a rejection was traced" true (rejected <> []);
  List.iter
    (fun r ->
      Alcotest.(check bool) "names the candidate address" true
        (List.mem_assoc "addr" r.Trace.fields);
      Alcotest.(check bool) "carries the divergence offset" true
        (List.mem_assoc "pre_off" r.Trace.fields
        && List.mem_assoc "run_addr" r.Trace.fields
        && List.mem_assoc "reason" r.Trace.fields))
    rejected;
  let rejects =
    List.filter
      (fun (name, _) ->
        String.starts_with ~prefix:"runpre.reject." name)
      (Trace.counters ())
  in
  Alcotest.(check bool) "rejection reason classified" true (rejects <> [])

(* one manager run over the two-function kernel, traced; returns the
   exported trace text *)
let traced_manager_run () =
  Trace.reset ();
  Trace.set_capacity 16384;
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    (fun () ->
      let tree, _img, m = boot base_src in
      Trace.set_clock (fun () -> Machine.instructions_retired m);
      let u = mk_update ~id:"fare" tree (patched_fare tree) in
      let mgr = Manager.create ~seed:0 (Apply.init m) in
      Manager.submit mgr u;
      Manager.run mgr;
      Report.Json.to_string (Trace.export ()))

let test_trace_deterministic () =
  (* no wall clocks, no Random: two identical manager runs must export
     byte-identical traces, like the event log they mirror *)
  let a = traced_manager_run () in
  let b = traced_manager_run () in
  Alcotest.(check string) "replayable trace" a b;
  (* and the export itself is well-formed JSON that round-trips *)
  match Report.Json.parse a with
  | Error m -> Alcotest.failf "trace export does not parse: %s" m
  | Ok v -> Alcotest.(check string) "export round-trips" a
              (Report.Json.to_string v)

let test_manager_events_mirrored () =
  with_trace @@ fun () ->
  let tree, _img, m = boot base_src in
  Trace.set_clock (fun () -> Machine.instructions_retired m);
  let u = mk_update ~id:"fare" tree (patched_fare tree) in
  let mgr = Manager.create ~seed:0 (Apply.init m) in
  Manager.submit mgr u;
  Manager.run mgr;
  let trace_names =
    List.filter_map
      (fun r ->
        if String.starts_with ~prefix:"manager." r.Trace.name then
          Some r.Trace.name
        else None)
      (Trace.records ())
  in
  (* every typed event has a mirrored trace instant, same serializer *)
  List.iter
    (fun (e : Manager.Event.t) ->
      let name = "manager." ^ Manager.Event.kind_name e.kind in
      Alcotest.(check bool) (name ^ " mirrored") true
        (List.mem name trace_names))
    (Manager.events mgr);
  List.iter
    (fun (e : Manager.Event.t) ->
      match Manager.event_json e with
      | Report.Json.Obj fields ->
        Alcotest.(check bool) "event_json uses the record shape" true
          (List.mem_assoc "clock" fields && List.mem_assoc "name" fields
          && List.mem_assoc "fields" fields)
      | _ -> Alcotest.fail "event_json is not an object")
    (Manager.events mgr)

let suite =
  [
    ( "trace",
      [
        t "disabled tracing is a no-op" test_disabled_is_noop;
        t "span nesting and parent ids" test_span_nesting;
        t "raising spans are recorded" test_span_exception;
        t "ring buffer drops oldest" test_ring_drop_oldest;
        t "counters and histograms" test_counters_and_histograms;
        t "apply pipeline is instrumented" test_apply_spans;
        t "trace export carries the counters" test_export_carries_counters;
        t "traced apply lands the untraced footprint"
          test_traced_footprint_parity;
        t "run-pre rejection carries the diagnostic"
          test_runpre_reject_trace;
        t "trace export is deterministic" test_trace_deterministic;
        t "manager events are mirrored" test_manager_events_mirrored;
      ] );
  ]
