(* Per-layer numbers from the traced run.

   Every op of a traced run is one root span ([bench.op]); the benchmark
   wraps each public call it makes in a ["<layer>.<function>"] span and
   the library's own spans ([create.unit], [apply.step.*], [undo],
   [runpre.match_helper], ...) nest beneath. After each op the ring is
   drained into an accumulator: self time per span name (duration minus
   the union of its children's intervals), span counts, and the trace
   counters and histogram maxima. [metrics] turns the accumulator into
   the per-layer metrics of BENCHMARK.json, as means per op. *)

type span = {
  name : string;
  id : int;
  parent : int;
  t0 : int;
  t1 : int;
}

let spans (records : Trace.record list) =
  let begins = Hashtbl.create 256 in
  List.iter
    (fun (r : Trace.record) ->
      if r.kind = Trace.Span_begin then Hashtbl.replace begins r.id r)
    records;
  List.filter_map
    (fun (r : Trace.record) ->
      match r.kind with
      | Trace.Span_end -> (
        match Hashtbl.find_opt begins r.parent with
        | Some (b : Trace.record) ->
          Some { name = b.name; id = b.id; parent = b.parent; t0 = b.clock;
                 t1 = r.clock }
        | None -> None)
      | _ -> None)
    records

(* length of the union of [ivs], each clipped to [lo, hi] *)
let covered ~lo ~hi ivs =
  let ivs =
    List.filter_map
      (fun (a, b) ->
        let a = max lo a and b = min hi b in
        if b > a then Some (a, b) else None)
      ivs
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, max cb b))
        | Some (ca, cb) -> (total + (cb - ca), Some (a, b)))
      (0, None) ivs
  in
  match last with None -> total | Some (a, b) -> total + (b - a)

(* (span, self ns) for every closed span *)
let self_times ss =
  let kids = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.add kids s.parent (s.t0, s.t1)) ss;
  List.map
    (fun s ->
      let c = covered ~lo:s.t0 ~hi:s.t1 (Hashtbl.find_all kids s.id) in
      (s, s.t1 - s.t0 - c))
    ss

type acc = {
  self_ns : (string, int) Hashtbl.t;  (** by span name *)
  total_ns : (string, int) Hashtbl.t;
  count : (string, int) Hashtbl.t;  (** spans by name *)
  counters : (string, int) Hashtbl.t;
  hist_max : (string, float) Hashtbl.t;
  mutable ops : int;
  mutable records : int;
  mutable dropped : int;
}

let create () =
  {
    self_ns = Hashtbl.create 64;
    total_ns = Hashtbl.create 64;
    count = Hashtbl.create 64;
    counters = Hashtbl.create 64;
    hist_max = Hashtbl.create 8;
    ops = 0;
    records = 0;
    dropped = 0;
  }

let add tbl k v =
  Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let root = "bench.op"

(* Drain the ring into [acc] (one op's worth). *)
let drain acc =
  let records = Trace.records () in
  acc.ops <- acc.ops + 1;
  acc.records <- acc.records + List.length records;
  acc.dropped <- acc.dropped + Trace.dropped ();
  List.iter
    (fun (s, self) ->
      add acc.self_ns s.name self;
      add acc.total_ns s.name (s.t1 - s.t0);
      add acc.count s.name 1)
    (self_times (spans records));
  List.iter (fun (k, v) -> add acc.counters k v) (Trace.counters ());
  List.iter
    (fun (k, (h : Trace.histogram)) ->
      if h.h_count > 0 then
        Hashtbl.replace acc.hist_max k
          (Float.max h.h_max
             (Option.value ~default:0. (Hashtbl.find_opt acc.hist_max k))))
    (Trace.histograms ())

let get tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k)

(* The engagement's steps: where a transition migrates threads and
   lands trampolines. *)
let transition_steps =
  List.concat_map
    (fun p -> List.map (fun s -> p ^ ".step." ^ s)
                [ "capture"; "transition"; "quiesce"; "trampoline" ])
    [ "apply"; "apply_cumulative" ]

(* [name, unit, value] for every per-layer metric: means per op.
   [untraced_p50]/[traced_p50] give the tracing overhead. *)
let metrics acc ~untraced_p50 ~traced_p50 =
  let ops = float_of_int (max 1 acc.ops) in
  let per_op n = float_of_int n /. ops in
  let ms n = float_of_int n /. 1e6 /. ops in
  let self names = ms (List.fold_left (fun a n -> a + get acc.self_ns n) 0 names) in
  let total names = ms (List.fold_left (fun a n -> a + get acc.total_ns n) 0 names) in
  let ctr n = get acc.counters n in
  let per_sync n = float_of_int n /. float_of_int (max 1 (get acc.count "fleet.sync")) in
  let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b) in
  let op_ns = get acc.total_ns root in
  let apply_steps =
    List.map (fun s -> "apply.step." ^ s) [ "allocate"; "hook-pre"; "commit" ]
  in
  let cumulative_steps =
    List.map (fun s -> "apply_cumulative.step." ^ s)
      [ "allocate"; "link"; "relocate"; "hook-pre"; "commit" ]
  in
  let guest_insns = ctr "kernel.guest_insns" in
  let run_ns = get acc.total_ns "kernel.run" in
  (* the pipeline's share of op time: all of it but the benchmark's own
     input preparation *)
  let system_ns = op_ns - get acc.total_ns "bench.prep" in
  [
    ("op.ms", "ms", ms op_ns);
    ("patchfmt.parse_ms", "ms", self [ "patchfmt.parse" ]);
    ("patchfmt.apply_ms", "ms", self [ "patchfmt.apply" ]);
    ("kbuild.build_ms", "ms", self [ "kbuild.build_tree" ]);
    ("kbuild.units_compiled", "count", per_op (ctr "kbuild.misses"));
    ( "kbuild.cache_hit_ratio", "ratio",
      ratio (ctr "kbuild.hits") (ctr "kbuild.misses") );
    ("create.self_ms", "ms", self [ "create"; "create.create"; "create.unit" ]);
    ("create.diff_ms", "ms", self [ "create.unit" ]);
    ("create.carve_ms", "ms", self [ "create"; "create.create" ]);
    ("create.units_differenced", "count", per_op (get acc.count "create.unit"));
    ("update.bytes", "bytes", per_op (ctr "update.bytes"));
    ("repository.open_ms", "ms", self [ "repository.open_dir" ]);
    ("repository.publish_ms", "ms", self [ "repository.publish" ]);
    ( "store.io_ops_per_publish", "count",
      float_of_int (ctr "store.io_ops")
      /. float_of_int (max 1 (get acc.count "repository.publish")) );
    ("repository.pending_ms", "ms", self [ "repository.pending" ]);
    ( "repository.cumulative_ms", "ms",
      self [ "repository.publish_cumulative"; "repository.read_cumulative" ] );
    ("repository.fsck_ms", "ms", self [ "repository.fsck" ]);
    ("fleet.sync_ms", "ms", total [ "fleet.sync" ]);
    ("fleet.server_ms", "ms", self [ "fleet.server" ]);
    ("fleet.client_ms", "ms", self [ "fleet.sync" ]);
    ("fleet.frames_per_sync", "count", per_sync (ctr "fleet.frames"));
    ("fleet.wire_bytes_per_sync", "bytes", per_sync (ctr "fleet.wire_bytes"));
    ("fleet.attempts_per_sync", "count", per_sync (ctr "fleet.attempts"));
    ("fleet.redundant_blobs", "count", per_sync (ctr "fleet.redundant_blobs"));
    ("apply.ms", "ms", self ([ "apply.apply"; "apply" ] @ apply_steps));
    ("apply.link_ms", "ms", self [ "apply.step.link" ]);
    ("runpre.ms", "ms", self [ "runpre.match_helper" ]);
    ("runpre.match_attempts", "count", per_op (ctr "runpre.match_attempts"));
    ("apply.relocate_ms", "ms", self [ "apply.step.relocate" ]);
    ("kallsyms.lookups", "count", per_op (ctr "kallsyms.lookups"));
    ( "kallsyms.hit_ratio", "ratio",
      ratio (ctr "kallsyms.hits") (ctr "kallsyms.lookups" - ctr "kallsyms.hits") );
    ("apply.verify_ms", "ms", self [ "apply.verify" ]);
    ("apply.undo_ms", "ms", self [ "apply.undo"; "undo" ]);
    ( "apply.cumulative_ms", "ms",
      self ([ "apply.apply_cumulative"; "apply_cumulative" ] @ cumulative_steps) );
    ("apply.transition_ms", "ms", self transition_steps);
    ("transition.rounds", "count", per_op (ctr "transition.rounds"));
    ("transition.sched_steps", "insns", per_op (ctr "transition.sched_steps"));
    ("transition.fallbacks", "count", per_op (ctr "transition.fallbacks"));
    ( "transition.pause_ns_max", "ns",
      Option.value ~default:0. (Hashtbl.find_opt acc.hist_max "transition.pause_ns") );
    ("kernel.run_ms", "ms", self [ "kernel.run" ]);
    ( "kernel.guest_mips", "Minsn/s",
      if run_ns = 0 then 0. else float_of_int guest_insns /. (float_of_int run_ns /. 1e3) );
    ("kernel.boot_ms", "ms", self [ "kernel.boot" ]);
    ( "trace.coverage", "ratio",
      if system_ns <= 0 then 0.
      else 1. -. (float_of_int (get acc.self_ns root) /. float_of_int system_ns) );
    ( "trace.overhead", "ratio",
      if untraced_p50 > 0. then traced_p50 /. untraced_p50 else 0. );
    ("trace.dropped", "count", float_of_int acc.dropped);
    ("trace.records_per_op", "count", per_op acc.records);
  ]
