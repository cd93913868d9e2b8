(* Evaluation harness: regenerates every table and figure of the paper's
   evaluation (§6) against the synthetic corpus, and runs the corpus
   sweeps. Timings of the pipeline's layers live in the repository
   benchmark (benchmark/); the two kept here have no counterpart there
   yet: tracing overhead against its budget, and crash recovery.

   Per-CVE corpus work (each CVE boots its own machine) fans out across
   the {!Parallel} domain pool. Every run writes BENCH.json: per-section
   wall-clock, compile-cache and kallsyms-index hit rates, every sweep's
   report, the tracing-overhead check and the recovery time. `--quick`
   runs a small subset (< 30 s) for CI; `ksplice-tool report` renders the
   file. The bench exits 1 when that document records a failed verdict.

   Experiments (see DESIGN.md's index):
     F3 — Figure 3, patches by patch length
     T1 — Table 1, patches requiring custom code
     H  — headline: 56/64 with no new code, 64/64 with custom code
     S1 — §6.3 ambiguous-symbol statistics
     S2 — §6.3 inlining statistics
     X  — §6.3 exploit verification
     R  — §4.3 robustness across build modes
     B  — §6.3/§7.1 source-level baseline
     V  — §6.2 kernel release matrix
     A  — §4.3 ablation of matcher capabilities
     FS / MS / DF / CR / TN / FL / CU — the seven corpus sweeps
     TR — tracing overhead and traced/untraced byte identity *)

module Tree = Patchfmt.Source_tree
module Diff = Patchfmt.Diff
module Image = Klink.Image
module Machine = Kernel.Machine
module Create = Ksplice.Create
module Apply = Ksplice.Apply
module Update = Ksplice.Update

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let quick = ref false
let out_path = ref "BENCH.json"
let now () = Unix.gettimeofday ()
let section_times : (string * float) list ref = ref []

let timed name f =
  let t0 = now () in
  let r = f () in
  section_times := (name, now () -. t0) :: !section_times;
  r

let base = Corpus.Base_kernel.tree ()

(* the bench aborts on any pipeline failure *)
let get what pp = function
  | Ok v -> v
  | Error e -> Format.kasprintf failwith "%s: %a" what pp e

(* Every row of a fan-out builds the tree it patches: pre (in create)
   and run (in boot). Built first, serially, that tree's units are in
   the compile cache before the fan-out, so two domains never both miss
   on one of them and compile it twice, and the kbuild_cache counts come
   out the same on every run. *)
let warm_compile_cache tree =
  List.iter
    (fun options ->
      ignore (get "warm build" Kbuild.pp_error (Kbuild.build_tree ~options tree)))
    [ Minic.Driver.pre_build; Minic.Driver.run_build ]

let created (cve : Corpus.Cve.t) =
  get (cve.id ^ ": create failed") Create.pp_error
    (Create.create
       { source = base; patch = Corpus.Cve.hot_patch cve base;
         update_id = cve.id; description = cve.desc })

(* ---------- F3: Figure 3 ---------- *)

let figure3 () =
  section "Figure 3: number of patches by patch length (lines in patch)";
  let sizes =
    List.map
      (fun (c : Corpus.Cve.t) ->
        (Diff.stats (Corpus.Cve.mainline_patch c base)).changed)
      Corpus.Cve.all
  in
  let bucket_count lo hi =
    List.length (List.filter (fun s -> s > lo && s <= hi) sizes)
  in
  Printf.printf "%-12s %s\n" "lines" "patches";
  for b = 0 to 15 do
    let lo = b * 5 and hi = (b + 1) * 5 in
    let n = bucket_count lo hi in
    Printf.printf "%3d-%-3d      %2d %s\n" lo hi n (String.make n '#')
  done;
  let inf = List.length (List.filter (fun s -> s > 80) sizes) in
  Printf.printf "%-12s %2d %s\n" "  >80 (inf)" inf (String.make inf '#');
  let le n = List.length (List.filter (fun s -> s <= n) sizes) in
  Printf.printf
    "\nShape check vs paper: <=5 lines: %d (paper: 35); <=15 lines: %d \
     (paper: 53); total %d (paper: 64)\n"
    (le 5) (le 15) (List.length sizes)

(* ---------- T1: Table 1 ---------- *)

let paper_table1 =
  [ ("CVE-2008-0007", 34); ("CVE-2007-4571", 10); ("CVE-2007-3851", 1);
    ("CVE-2006-5753", 1); ("CVE-2006-2071", 14); ("CVE-2006-1056", 4);
    ("CVE-2005-3179", 20); ("CVE-2005-2709", 48) ]

let table1 () =
  section "Table 1: patches that cannot be applied without new code";
  Printf.printf "%-16s %-22s %10s %10s\n" "CVE ID" "reason" "new code"
    "(paper)";
  let total = ref 0 in
  List.iter
    (fun (c : Corpus.Cve.t) ->
      match c.custom with
      | None -> ()
      | Some (reason, _) ->
        let lines = Corpus.Cve.custom_code_lines c in
        total := !total + lines;
        let paper =
          match List.assoc_opt c.id paper_table1 with
          | Some n -> Printf.sprintf "%d lines" n
          | None -> "-"
        in
        Printf.printf "%-16s %-22s %6d lines %10s\n" c.id
          (Corpus.Cve.reason_to_string reason)
          lines paper)
    Corpus.Cve.all;
  let n =
    List.length
      (List.filter (fun (c : Corpus.Cve.t) -> c.custom <> None) Corpus.Cve.all)
  in
  Printf.printf "\naverage custom code: %.1f lines per patch (paper: ~17)\n"
    (float_of_int !total /. float_of_int n)

(* ---------- H: headline result ---------- *)

let headline () =
  section "Headline: applying all 64 security patches as hot updates";
  (* each CVE boots its own machine, so the per-CVE work is independent
     and fans out across the domain pool; the fold below is sequential *)
  let results =
    Parallel.map
      (fun (cve : Corpus.Cve.t) ->
        let c = created cve in
        let b = Corpus.Boot.boot () in
        let mgr = Apply.init b.machine in
        match Apply.apply mgr c.update with
        | Error e -> Error (Format.asprintf "%s: %a" cve.id Apply.pp_error e)
        | Ok a ->
          let stress = Corpus.Stress.run b ~threads:2 ~iterations:10 in
          if not stress.ok then
            Error (Printf.sprintf "%s: stress failed after apply" cve.id)
          else
            Ok
              ( cve.custom = None,
                a.pause_ns,
                List.fold_left
                  (fun acc (lo, hi) -> acc + hi - lo)
                  0 a.module_ranges ))
      Corpus.Cve.all
  in
  let no_code_ok = ref 0 in
  let custom_ok = ref 0 in
  let failures = ref [] in
  let pauses = ref [] in
  let module_bytes = ref [] in
  List.iter
    (function
      | Error f -> failures := f :: !failures
      | Ok (no_custom, pause, bytes) ->
        pauses := pause :: !pauses;
        module_bytes := bytes :: !module_bytes;
        if no_custom then incr no_code_ok else incr custom_ok)
    results;
  Printf.printf "applied without writing new code: %2d / 64  (paper: 56)\n"
    !no_code_ok;
  Printf.printf "applied with custom update code:  %2d      (paper:  8)\n"
    !custom_ok;
  Printf.printf "total applied:                    %2d / 64  (paper: 64)\n"
    (!no_code_ok + !custom_ok);
  (match !failures with
   | [] -> ()
   | l ->
     Printf.printf "FAILURES:\n";
     List.iter (fun f -> Printf.printf "  %s\n" f) l);
  (match !pauses with
   | [] -> ()
   | l ->
     let n = List.length l in
     let avg = List.fold_left ( + ) 0 l / n in
     Printf.printf
       "simulated stop_machine pause: avg %.3f ms (paper: ~0.7 ms)\n"
       (float_of_int avg /. 1e6));
  match !module_bytes with
  | [] -> ()
  | l ->
    let n = List.length l in
    Printf.printf
      "replacement-code memory: avg %d bytes, max %d bytes per update\n"
      (List.fold_left ( + ) 0 l / n)
      (List.fold_left max 0 l)

(* ---------- S1: ambiguous symbols ---------- *)

let symbol_stats () =
  section
    "Symbol statistics (paper 6.3: 6,164 ambiguous = 7.9%; 21.1% of units)";
  let b = Corpus.Boot.boot () in
  let total, ambiguous = Image.symbol_census b.image in
  Printf.printf "kallsyms symbols: %d; sharing a name: %d (%.1f%%)\n" total
    ambiguous
    (100.0 *. float_of_int ambiguous /. float_of_int total);
  let units =
    List.length
      (List.sort_uniq compare
         (List.map (fun (s : Image.syminfo) -> s.unit_name) b.image.kallsyms))
  in
  let amb_units = List.length (Image.units_with_ambiguous_symbol b.image) in
  Printf.printf
    "compilation units with an ambiguous symbol: %d / %d (%.1f%%)\n" amb_units
    units
    (100.0 *. float_of_int amb_units /. float_of_int units);
  (* patches whose replaced code references an ambiguous symbol *)
  let counts = Hashtbl.create 256 in
  List.iter
    (fun (s : Image.syminfo) ->
      if not (String.length s.name >= 2 && s.name.[0] = '.') then
        Hashtbl.replace counts s.name
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts s.name)))
    b.image.kallsyms;
  let is_ambiguous n =
    match Hashtbl.find_opt counts n with Some k -> k > 1 | None -> false
  in
  let cves_with_ambiguous =
    List.filter
      (fun (cve : Corpus.Cve.t) ->
        let c = created cve in
        List.exists
          (fun (s : Objfile.Section.t) ->
            s.kind = Objfile.Section.Text
            && List.exists
                 (fun (r : Objfile.Reloc.t) ->
                   let raw, _ = Update.split_canonical r.sym in
                   is_ambiguous raw)
                 s.relocs)
          c.update.primary.sections)
      Corpus.Cve.all
  in
  Printf.printf
    "patches touching a function that references an ambiguous symbol: %d \
     (paper: 5)\n"
    (List.length cves_with_ambiguous);
  List.iter
    (fun (c : Corpus.Cve.t) -> Printf.printf "  %s (%s)\n" c.id c.file)
    cves_with_ambiguous

(* ---------- S2: inlining ---------- *)

let inline_stats () =
  section "Inlining statistics (paper 6.3: 20/64 inlined, 4/64 explicit)";
  let run_build =
    get "run build" Kbuild.pp_error
      (Kbuild.build_tree ~options:Minic.Driver.run_build base)
  in
  let inlined = Kbuild.inlined_callees run_build in
  let inlined_in unit f =
    List.exists (fun (u, _, callee) -> u = unit && callee = f) inlined
  in
  let explicitly_inline unit f =
    match Tree.find base unit with
    | None -> false
    | Some src ->
      let probe = "inline int " ^ f ^ "(" in
      let rec search i =
        i + String.length probe <= String.length src
        && (String.sub src i (String.length probe) = probe || search (i + 1))
      in
      search 0
  in
  let count_pred pred =
    List.filter
      (fun (cve : Corpus.Cve.t) ->
        let c = created cve in
        List.exists
          (fun (d : Ksplice.Prepost.unit_diff) ->
            List.exists (pred d.unit_name)
              (d.changed_functions @ d.new_functions))
          c.diffs)
      Corpus.Cve.all
  in
  let with_inlined = count_pred inlined_in in
  let with_explicit = count_pred explicitly_inline in
  Printf.printf
    "patches replacing a function inlined somewhere in the run kernel: %d \
     (paper: 20)\n"
    (List.length with_inlined);
  Printf.printf
    "patches replacing an explicitly-'inline' function: %d (paper: 4)\n"
    (List.length with_explicit);
  Printf.printf "inlining decisions in the run kernel build: %d\n"
    (List.length inlined)

(* ---------- X: exploits ---------- *)

let exploits () =
  section "Exploit verification (paper 6.3: works before, fails after)";
  Printf.printf "%-16s %-34s %-8s %-8s\n" "CVE ID" "exploit" "before" "after";
  let rows =
    Parallel.map
      (fun (e : Corpus.Exploits.t) ->
        let cve = Option.get (Corpus.Cve.find e.cve_id) in
        let b1 = Corpus.Boot.boot () in
        let before = (e.run b1).succeeded in
        let b2 = Corpus.Boot.boot () in
        let c = created cve in
        let mgr = Apply.init b2.machine in
        (match Apply.apply mgr c.update with
         | Ok _ -> ()
         | Error err ->
           Format.kasprintf failwith "%s: apply: %a" cve.id Apply.pp_error err);
        let after = (e.run b2).succeeded in
        (e.cve_id, e.name, before, after))
      Corpus.Exploits.all
  in
  List.iter
    (fun (cve_id, name, before, after) ->
      Printf.printf "%-16s %-34s %-8s %-8s\n" cve_id name
        (if before then "works" else "FAILS")
        (if after then "WORKS" else "blocked"))
    rows

(* ---------- R: run-pre robustness across build modes ---------- *)

let runpre_robustness () =
  section "Run-pre matching across build modes (paper 4.3)";
  (* the run kernel is built without function sections (aligned loops,
     resolved intra-unit calls); every pre object is built with them; all
     64 updates must still match *)
  let results =
    Parallel.map
      (fun (cve : Corpus.Cve.t) ->
        let c = created cve in
        let b = Corpus.Boot.boot () in
        let mgr = Apply.init b.machine in
        match Apply.apply mgr c.update with
        | Ok _ ->
          Some
            (List.fold_left
               (fun acc (h : Objfile.t) ->
                 acc
                 + List.length
                     (List.filter
                        (fun (s : Objfile.Section.t) ->
                          s.kind = Objfile.Section.Text)
                        h.sections))
               0 c.update.helpers)
        | Error _ -> None)
      Corpus.Cve.all
  in
  let matched = List.length (List.filter Option.is_some results) in
  let total_sections =
    List.fold_left
      (fun acc -> function Some n -> acc + n | None -> acc)
      0 results
  in
  Printf.printf
    "updates whose pre code (function-sections build) matched the running \
     kernel (distro-style build): %d / 64\n"
    matched;
  Printf.printf
    "pre text sections byte-matched against run memory in total: %d\n"
    total_sections

(* ---------- consequences (§6.1) ---------- *)

let consequences () =
  section
    "Vulnerability consequences (paper 6.1: ~2/3 escalation, ~1/3 disclosure)";
  let priv, info =
    List.partition
      (fun (c : Corpus.Cve.t) -> c.consequence = Corpus.Cve.Priv_escalation)
      Corpus.Cve.all
  in
  Printf.printf "privilege escalation:   %2d / 64 (%.0f%%)
"
    (List.length priv)
    (100.0 *. float_of_int (List.length priv) /. 64.0);
  Printf.printf "information disclosure: %2d / 64 (%.0f%%)
"
    (List.length info)
    (100.0 *. float_of_int (List.length info) /. 64.0)

(* ---------- appendix: per-patch detail ---------- *)

let appendix () =
  section "Appendix: per-patch detail";
  Printf.printf "%-16s %-6s %6s %9s %7s %s
" "CVE ID" "kind" "lines"
    "replaced" "custom" "unit";
  List.iter
    (fun (cve : Corpus.Cve.t) ->
      let c = created cve in
      let lines =
        (Diff.stats (Corpus.Cve.mainline_patch cve base)).changed
      in
      Printf.printf "%-16s %-6s %6d %9d %7d %s
" cve.id
        (match cve.consequence with
         | Corpus.Cve.Priv_escalation -> "priv"
         | Corpus.Cve.Info_disclosure -> "info")
        lines
        (List.length c.update.replaced_functions)
        (Corpus.Cve.custom_code_lines cve)
        cve.file)
    Corpus.Cve.all

(* ---------- B: source-level baseline comparison (§6.3/§7.1) ---------- *)

let baseline () =
  section
    "Source-level baseline (OPUS/LUCOS/DynAMOS-style) vs Ksplice (6.3)";
  let b = Corpus.Boot.boot () in
  let per_cve =
    Parallel.map
      (fun (cve : Corpus.Cve.t) ->
        let patch = Corpus.Cve.hot_patch cve base in
        match
          Ksplice.Source_level.evaluate ~source:base ~patch ~image:b.image
        with
        | Error m -> failwith (cve.id ^ ": baseline evaluation failed: " ^ m)
        | Ok v -> (cve.id, v.failures))
      Corpus.Cve.all
  in
  let missed = ref 0 and inl = ref 0 and amb = ref 0 in
  let statics = ref 0 and asm = ref 0 in
  let unsafe = ref [] in
  List.iter
    (fun (id, failures) ->
      if failures <> [] then unsafe := id :: !unsafe;
      List.iter
        (function
          | Ksplice.Source_level.Missed_object_changes _ -> incr missed
          | Ksplice.Source_level.Inline_sites_missed _ -> incr inl
          | Ksplice.Source_level.Ambiguous_symbol _ -> incr amb
          | Ksplice.Source_level.Static_local_lost _ -> incr statics
          | Ksplice.Source_level.Assembly_file _ -> incr asm)
        failures)
    per_cve;
  let n_unsafe = List.length !unsafe in
  Printf.printf "patches a source-level system handles safely: %2d / 64\n"
    (64 - n_unsafe);
  Printf.printf "patches Ksplice handles safely:               64 / 64\n\n";
  Printf.printf "source-level failure reasons (a patch may have several):\n";
  Printf.printf "  object code changed without source change:  %2d\n" !missed;
  Printf.printf "  stale inlined copies left running:          %2d  (paper: 20 patches touch inlined fns)\n" !inl;
  Printf.printf "  unresolvable/ambiguous symbols:             %2d  (paper: 5)\n" !amb;
  Printf.printf "  static-local state lost:                    %2d\n" !statics;
  Printf.printf "  pure assembly files:                        %2d  (paper: CVE-2007-4573)\n" !asm

(* ---------- V: kernel release matrix (§6.2 methodology) ---------- *)

let kernel_matrix () =
  section "Kernel release matrix (paper 6.2: 14 kernels, no one needs all 64)";
  Printf.printf "%-22s %12s %12s %12s\n" "release" "incorporated"
    "applicable" "applied";
  List.iter
    (fun (v : Corpus.Versions.t) ->
      let apps = Corpus.Versions.applicable v in
      warm_compile_cache v.tree;
      let applied_flags =
        Parallel.map
          (fun (cve : Corpus.Cve.t) ->
            match Corpus.Versions.hot_patch cve v with
            | None -> false
            | Some patch -> (
              match
                Create.create
                  { source = v.tree; patch; update_id = cve.id;
                    description = cve.desc }
              with
              | Error _ -> false
              | Ok { update; _ } -> (
                let b = Corpus.Boot.boot ~tree:v.tree () in
                let mgr = Apply.init b.machine in
                match Apply.apply mgr update with
                | Ok _ -> true
                | Error _ -> false)))
          apps
      in
      let applied = List.length (List.filter Fun.id applied_flags) in
      Printf.printf "%-22s %12d %12d %12d\n" v.name
        (List.length v.incorporated)
        (List.length apps) applied)
    (Corpus.Versions.all ());
  Printf.printf
    "\n(Each release already ships the previous eras' fixes, so later \
     releases need fewer of the 64 patches — every applicable patch hot-\
     applies on its release.)\n"

(* ---------- A: ablation of matcher capabilities (§4.3) ---------- *)

let ablation () =
  section "Ablation: why run-pre matching needs architecture knowledge";
  let attempt tolerance (cve : Corpus.Cve.t) =
    let c = created cve in
    let b = Corpus.Boot.boot () in
    let mgr = Apply.init b.machine in
    match Apply.apply ~tolerance mgr c.update with
    | Ok _ -> true
    | Error _ -> false
  in
  let count tolerance =
    List.length
      (List.filter Fun.id
         (Parallel.map (attempt tolerance) Corpus.Cve.all))
  in
  let full = Ksplice.Runpre.full_tolerance in
  Printf.printf "%-52s %2d / 64\n" "full matcher (nop skip + jump equivalence):"
    (count full);
  Printf.printf "%-52s %2d / 64\n" "without no-op recognition:"
    (count { full with skip_nops = false });
  Printf.printf "%-52s %2d / 64\n" "without short/long jump equivalence:"
    (count { full with jump_equivalence = false });
  Printf.printf
    "\n(The paper's §4.3: the matcher \"needs some architecture-specific \
     pieces of information\" — no-op sequences and relative-jump \
     equivalence. A byte-exact matcher rejects safe updates whenever the \
     distro build aligned a loop head that the pre build did not.)\n"

(* ---------- the corpus sweeps ---------- *)

(* every sweep's report, in run order: BENCH.json's "sweeps" object *)
let sweep_reports : (string * Report.Json.t) list ref = ref []

let run_sweep title ?rows s =
  section title;
  let r = Corpus.Sweep.run ?rows s in
  print_string (Format.asprintf "%a" Corpus.Sweep.pp r);
  sweep_reports :=
    (r.Corpus.Sweep.sweep, Corpus.Sweep.to_json r) :: !sweep_reports

let fault_sweep () =
  run_sweep "Fault-injection sweep: transactional apply under induced failure"
    Corpus.Sweep.fault

let manager_sweep ?rows () =
  run_sweep
    "Supervised manager sweep: watchdog, retry queue, health-gated revert"
    ?rows Corpus.Sweep.manager

let differencing_sweep ?rows () =
  run_sweep "Differencing sweep: minimal vs whole-unit updates" ?rows
    Corpus.Sweep.diffmin

let transition_sweep ?rows () =
  run_sweep
    "Transition sweep: per-thread engagement vs stop_machine under load" ?rows
    Corpus.Sweep.transition

let fleet_sweep () =
  run_sweep "Fleet sweep: delta sync under every wire fault at every frame"
    Corpus.Sweep.fleet

let cumulative_sweep () =
  run_sweep "Cumulative sweep: atomic replace of a stacked chain at depth"
    Corpus.Sweep.cumulative

(* ---------- TR: tracing overhead and byte identity ---------- *)

(* (cves, untraced wall s, traced wall s, identical, records) *)
let trace_result :
    (int * float * float * bool * int) option ref =
  ref None

let trace_overhead_budget = 1.5

let trace_overhead ?(cves = Corpus.Cve.all) () =
  section "Tracing overhead: traced vs untraced apply sweep";
  let ups = List.map (fun cve -> (cve, (created cve).update)) cves in
  (* what "applied bytes" means here: the module image the update landed
     plus the trampoline bytes read back from the running kernel — the
     sum of everything apply wrote that stays live *)
  let apply_one traced ((cve : Corpus.Cve.t), update) =
    let b = Corpus.Boot.boot () in
    if traced then
      Trace.set_clock (fun () -> Machine.instructions_retired b.machine);
    let ap = Apply.init b.machine in
    match Apply.apply ap update with
    | Error e ->
      Format.kasprintf failwith "%s: trace-sweep apply failed: %a" cve.id
        Apply.pp_error e
    | Ok (a : Apply.applied) ->
      let image =
        List.map
          (fun (addr, bytes) -> (addr, Bytes.to_string bytes))
          a.module_image
      in
      let tramps =
        List.map
          (fun (r : Apply.replacement) ->
            Bytes.to_string (Machine.read_bytes b.machine r.r_old_addr 5))
          a.replacements
      in
      (cve.id, image, tramps)
  in
  let run traced =
    Trace.reset ();
    Trace.set_enabled traced;
    let t0 = now () in
    let applied = List.map (apply_one traced) ups in
    let t = now () -. t0 in
    Trace.set_enabled false;
    (applied, t, List.length (Trace.records ()) + Trace.dropped ())
  in
  Trace.set_capacity 65536;
  (* a boot costs about a millisecond, so one round over a few CVEs is
     too short to time alone: each side's wall is the best of five
     alternating rounds *)
  let rounds = List.init 5 (fun _ -> (run false, run true)) in
  let (untraced, _, _), (_, _, records) = List.hd rounds in
  let best side = List.fold_left (fun acc r -> min acc (side r)) infinity rounds in
  let untraced_t = best (fun ((_, t, _), _) -> t)
  and traced_t = best (fun (_, (_, t, _)) -> t) in
  Trace.reset ();
  let identical =
    List.for_all
      (fun ((u, _, _), (t, _, _)) -> u = untraced && t = untraced)
      rounds
  in
  let overhead = traced_t /. untraced_t in
  trace_result :=
    Some (List.length cves, untraced_t, traced_t, identical, records);
  Printf.printf "CVEs:                %d\n" (List.length cves);
  Printf.printf "untraced wall:       %8.3f s\n" untraced_t;
  Printf.printf "traced wall:         %8.3f s  (%d records)\n" traced_t
    records;
  Printf.printf "overhead:            %8.2fx  (budget %.2fx)\n" overhead
    trace_overhead_budget;
  Printf.printf "identical applied bytes from both runs: %b\n" identical;
  if not identical then
    print_endline "*** TRACED APPLY DIVERGED FROM UNTRACED ***";
  if overhead > trace_overhead_budget then
    Printf.printf "*** TRACING OVERHEAD %.2fx EXCEEDS %.2fx BUDGET ***\n"
      overhead trace_overhead_budget

(* ---------- CR: crash-recovery sweep ---------- *)

module Repo = Ksplice.Repository

(* wall seconds to reopen one mid-publish-crashed repository *)
let recovery_result : float option ref = ref None

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let crash_sweep ?rows () =
  run_sweep "Crash-recovery sweep: publish killed at every mutating I/O op"
    ?rows Corpus.Sweep.crash;
  (* clock one recovery: crash a publish partway through its blob puts,
     then time the reopen that sweeps the debris and reads the ref table *)
  let cve = List.hd Corpus.Cve.all in
  let dir = Filename.temp_file "kspl-bench-crash" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () ->
      let patch = Corpus.Cve.hot_patch cve base in
      let update = (created cve).update in
      let vfs, _ =
        Vfs.inject { Vfs.at = 12; kind = Vfs.Crash; seed = 0 } Vfs.real
      in
      (match Repo.open_dir ~vfs dir with
       | Error e ->
         Format.kasprintf failwith "crash bench open: %a" Repo.pp_error e
       | Ok repo -> (
         match Repo.publish repo ~source:base ~patch ~update with
         | exception Vfs.Crashed -> ()
         | Ok _ | Error _ -> ()));
      let t0 = now () in
      (match Repo.open_dir dir with
       | Ok _ -> ()
       | Error e ->
         Format.kasprintf failwith "crash bench reopen: %a" Repo.pp_error e);
      let recovery_t = now () -. t0 in
      recovery_result := Some recovery_t;
      Printf.printf "reopen+recover after a mid-publish crash: %.6f s\n"
        recovery_t)

(* ---------- BENCH.json ---------- *)

let bench_json ~mode () =
  let open Report.Json in
  let cs = Kbuild.cache_stats () in
  let is = Machine.kallsyms_index_stats () in
  let num n = Num (float_of_int n) in
  let rate hits total =
    if total = 0 then Null else Num (float_of_int hits /. float_of_int total)
  in
  Obj
    [
      ("schema", Str "ksplice-bench/1");
      ("mode", Str mode);
      ( "sections",
        Arr
          (List.rev_map
             (fun (name, wall) ->
               Obj [ ("name", Str name); ("wall_s", Num wall) ])
             !section_times) );
      ( "kbuild_cache",
        Obj
          [
            ("hits", num cs.hits);
            ("misses", num cs.misses);
            ("evictions", num cs.evictions);
            ("entries", num cs.entries);
            ("capacity", num cs.capacity);
            ("hit_rate", rate cs.hits (cs.hits + cs.misses));
          ] );
      ( "kallsyms_index",
        Obj
          [
            ("lookups", num is.lookups);
            ("hits", num is.hits);
            ("hit_rate", rate is.hits is.lookups);
          ] );
      ("sweeps", Obj (List.rev !sweep_reports));
      ( "trace",
        match !trace_result with
        | None -> Null
        | Some (cves, untraced_t, traced_t, identical, records) ->
          let overhead = traced_t /. untraced_t in
          Obj
            [
              ("cves", num cves);
              ("untraced_wall_s", Num untraced_t);
              ("traced_wall_s", Num traced_t);
              ("overhead", Num overhead);
              ("budget", Num trace_overhead_budget);
              ("within_budget", Bool (overhead <= trace_overhead_budget));
              ("identical", Bool identical);
              ("ok", Bool identical);
              ("records", num records);
            ] );
      ( "crash_recovery",
        match !recovery_result with
        | None -> Null
        | Some t -> Obj [ ("recovery_s", Num t) ] );
    ]

let () =
  let specs =
    [
      ("--quick", Arg.Set quick, " small subset for CI (finishes in < 30 s)");
      ( "--out",
        Arg.Set_string out_path,
        "FILE perf-baseline JSON path (default BENCH.json)" );
    ]
  in
  Arg.parse (Arg.align specs)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench [--quick] [--out FILE]";
  print_endline "Ksplice reproduction - evaluation benchmarks";
  print_endline "(paper: Arnold & Kaashoek, EuroSys 2009)";
  warm_compile_cache base;
  if !quick then begin
    let quick_cves = List.filteri (fun i _ -> i < 8) Corpus.Cve.all in
    timed "figure3" figure3;
    timed "table1" table1;
    timed "consequences" consequences;
    timed "differencing_sweep" (fun () ->
        differencing_sweep ~rows:(quick_cves @ Corpus.Cve.diff_extras) ());
    timed "manager_sweep" (fun () ->
        manager_sweep ~rows:(List.filteri (fun i _ -> i < 4) quick_cves) ());
    timed "trace_overhead" (fun () -> trace_overhead ~cves:quick_cves ());
    timed "crash_sweep" (fun () ->
        crash_sweep ~rows:(List.filteri (fun i _ -> i < 2) quick_cves) ());
    timed "transition_sweep" (fun () ->
        transition_sweep ~rows:(List.filteri (fun i _ -> i < 2) quick_cves) ());
    timed "fleet_sweep" fleet_sweep;
    timed "cumulative_sweep" cumulative_sweep
  end
  else begin
    timed "figure3" figure3;
    timed "table1" table1;
    timed "consequences" consequences;
    timed "headline" headline;
    timed "symbol_stats" symbol_stats;
    timed "inline_stats" inline_stats;
    timed "exploits" exploits;
    timed "runpre_robustness" runpre_robustness;
    timed "baseline" baseline;
    timed "kernel_matrix" kernel_matrix;
    timed "ablation" ablation;
    timed "fault_sweep" fault_sweep;
    timed "manager_sweep" (fun () -> manager_sweep ());
    timed "differencing_sweep" (fun () -> differencing_sweep ());
    timed "trace_overhead" (fun () -> trace_overhead ());
    timed "crash_sweep" (fun () -> crash_sweep ());
    timed "transition_sweep" (fun () -> transition_sweep ());
    timed "fleet_sweep" fleet_sweep;
    timed "cumulative_sweep" cumulative_sweep;
    timed "appendix" appendix
  end;
  let doc = bench_json ~mode:(if !quick then "quick" else "full") () in
  let oc = open_out !out_path in
  output_string oc (Report.Json.to_string doc);
  close_out oc;
  Printf.printf "\nperf baseline written to %s\n" !out_path;
  if not (Report.Render.verdict doc) then begin
    Printf.printf "*** %s RECORDS A FAILED VERDICT ***\n" !out_path;
    exit 1
  end;
  print_endline "\nAll experiments complete."
