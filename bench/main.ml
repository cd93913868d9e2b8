(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6) against the synthetic corpus, then runs Bechamel
   micro-benchmarks for the performance claims (§2/§5.2).

   Per-CVE corpus work (each CVE boots its own machine) fans out across
   the {!Parallel} domain pool, and every run writes a machine-readable
   perf baseline — BENCH.json: per-section wall-clock, Bechamel OLS
   estimates, compile-cache and kallsyms-index hit rates, and the
   serial-vs-parallel 64-CVE creation sweep. `--quick` runs a small
   subset (< 30 s) for CI; `ksplice-tool report` renders the file.

   Experiments (see DESIGN.md's index):
     F3 — Figure 3, patches by patch length
     T1 — Table 1, patches requiring custom code
     H  — headline: 56/64 with no new code, 64/64 with custom code
     S1 — §6.3 ambiguous-symbol statistics
     S2 — §6.3 inlining statistics
     X  — §6.3 exploit verification
     R  — §4.3 robustness across build modes
     CS — creation sweep: serial vs domain-parallel update creation
     ST — store sweep: cold vs warm creation through the artifact store
     CR — crash sweep: publish killed at every I/O op, recovery verified
     P  — Bechamel: apply pause, trampoline overhead, run-pre matching,
          update creation *)

module Tree = Patchfmt.Source_tree
module Diff = Patchfmt.Diff
module Image = Klink.Image
module Machine = Kernel.Machine
module Create = Ksplice.Create
module Apply = Ksplice.Apply
module Update = Ksplice.Update

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* --- perf-baseline instrumentation --- *)

let quick = ref false
let out_path = ref "BENCH.json"
let domains_flag = ref 0

(* domain budget for the parallel legs: at least 2 so the pool machinery
   is exercised even on a single-core host (where the speedup is ~1x) *)
let par_domains () =
  if !domains_flag > 0 then !domains_flag
  else max 2 (Parallel.default_domains ())

let now () = Unix.gettimeofday ()
let section_times : (string * float) list ref = ref []
let bech_estimates : (string * float) list ref = ref []

(* (cves, serial wall s, parallel wall s, identical) *)
let creation_result : (int * float * float * bool) option ref = ref None

let timed name f =
  let t0 = now () in
  let r = f () in
  section_times := (name, now () -. t0) :: !section_times;
  r

let base = Corpus.Base_kernel.tree ()

let create_cve ?(hot = true) ?domains (cve : Corpus.Cve.t) =
  let patch =
    if hot then Corpus.Cve.hot_patch cve base
    else Corpus.Cve.mainline_patch cve base
  in
  Create.create ?domains
    { source = base; patch; update_id = cve.id; description = cve.desc }

(* the bench aborts on any pipeline failure *)
let get what pp = function
  | Ok v -> v
  | Error e -> Format.kasprintf failwith "%s: %a" what pp e

let created ?domains (cve : Corpus.Cve.t) =
  get (cve.id ^ ": create failed") Create.pp_error (create_cve ?domains cve)

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
    Parallel.map ~domains:(par_domains ())
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
    Parallel.map ~domains:(par_domains ())
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
    Parallel.map ~domains:(par_domains ())
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
    Parallel.map ~domains:(par_domains ())
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
      let applied_flags =
        Parallel.map ~domains:(par_domains ())
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
         (Parallel.map ~domains:(par_domains ()) (attempt tolerance)
            Corpus.Cve.all))
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

(* ---------- FS / MS / DF / TN: the corpus sweeps ---------- *)

(* every sweep's report, in run order: BENCH.json's "sweeps" object *)
let sweep_reports : (string * Report.Json.t) list ref = ref []

let run_sweep title ?rows s =
  section title;
  let r = Corpus.Sweep.run ?rows ~domains:(par_domains ()) s in
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

(* ---------- CS: serial vs domain-parallel update creation ---------- *)

let creation_sweep ?(cves = Corpus.Cve.all) () =
  section "Creation sweep: update creation, serial vs domain-parallel";
  let nd = par_domains () in
  let serialize (c : Create.created) =
    Bytes.to_string (Update.to_bytes c.update)
  in
  Kbuild.reset_cache ();
  let t0 = now () in
  let serial_ups =
    List.map (fun cve -> serialize (created ~domains:1 cve)) cves
  in
  let serial_t = now () -. t0 in
  Kbuild.reset_cache ();
  let t0 = now () in
  (* warm the shared pre build once so the concurrent creates hit the
     compile cache instead of racing to rebuild the same units *)
  ignore
    (get "pre build" Kbuild.pp_error
       (Kbuild.build_tree ~domains:nd ~options:Minic.Driver.pre_build base)
      : Kbuild.build);
  let par_ups =
    Parallel.map ~domains:nd
      (fun cve -> serialize (created ~domains:nd cve))
      cves
  in
  let par_t = now () -. t0 in
  let identical = serial_ups = par_ups in
  creation_result := Some (List.length cves, serial_t, par_t, identical);
  Printf.printf "CVEs:                %d\n" (List.length cves);
  Printf.printf "serial wall:         %8.3f s\n" serial_t;
  Printf.printf "parallel wall:       %8.3f s  (%d domains)\n" par_t nd;
  Printf.printf "speedup:             %8.2fx\n" (serial_t /. par_t);
  Printf.printf "identical updates from both paths: %b\n" identical;
  if not identical then
    print_endline "*** PARALLEL CREATION DIVERGED FROM SERIAL ***"

(* ---------- ST: artifact store, cold vs warm creation ---------- *)

type store_outcome = {
  st_cves : int;
  st_cold_s : float;
  st_warm_s : float;
  st_identical : bool;
  st_skipped : int;
  st_dedup_ratio : float;
  st_bytes_saved : int;
  st_diff_bytes_saved : int;
      (* update bytes the minimal differencing avoids shipping,
         vs the whole-unit baseline over the same CVEs *)
  st_skipped_syms : int;
      (* defined primary symbols the whole-unit baseline would ship
         that the minimal updates leave home *)
}

let store_result : store_outcome option ref = ref None

let store_sweep ?(cves = Corpus.Cve.all) () =
  section "Store sweep: cold vs warm creation through one shared store";
  let shared = Store.create ~name:"bench" ~capacity:16384 () in
  let create_updates ?minimal () =
    List.map
      (fun (cve : Corpus.Cve.t) ->
        match
          Create.create ?minimal ~store:shared
            { source = base; patch = Corpus.Cve.hot_patch cve base;
              update_id = cve.id; description = cve.desc }
        with
        | Ok c -> c.Create.update
        | Error e ->
          Format.kasprintf failwith "%s: store sweep create failed: %a" cve.id
            Create.pp_error e)
      cves
  in
  let create_all () =
    List.map
      (fun u -> Bytes.to_string (Update.to_bytes u))
      (create_updates ())
  in
  (* cold: empty compile cache, empty store — every unit compiles and
     every patched unit is differenced *)
  Kbuild.reset_cache ();
  Create.reset_creation_stats ();
  let t0 = now () in
  let cold_ups = create_all () in
  let cold_t = now () -. t0 in
  (* warm: same store — compiles hit the kbuild store, differencing
     resolves from interned (pre, post) digest pairs *)
  Create.reset_creation_stats ();
  let t0 = now () in
  let warm_ups = create_all () in
  let warm_t = now () -. t0 in
  let skipped = Create.skipped_units () in
  let identical = cold_ups = warm_ups in
  (* the minimal-differencing dividend over the same store: what the
     whole-unit baseline would have shipped beyond the minimal carve *)
  let minimal_ups = create_updates () in
  let whole_ups = create_updates ~minimal:false () in
  let usize (u : Update.t) = Bytes.length (Update.to_bytes u) in
  let defined (u : Update.t) =
    List.length
      (List.filter Objfile.Symbol.is_defined u.primary.Objfile.symbols)
  in
  let sum f l = List.fold_left (fun a u -> a + f u) 0 l in
  let diff_bytes_saved = sum usize whole_ups - sum usize minimal_ups in
  let skipped_syms = sum defined whole_ups - sum defined minimal_ups in
  let st = Store.stats shared in
  let dedup_ratio =
    if st.Store.puts = 0 then 0.0
    else float_of_int st.Store.dedup_hits /. float_of_int st.Store.puts
  in
  store_result :=
    Some
      { st_cves = List.length cves; st_cold_s = cold_t; st_warm_s = warm_t;
        st_identical = identical; st_skipped = skipped;
        st_dedup_ratio = dedup_ratio;
        st_bytes_saved = st.Store.bytes_deduped;
        st_diff_bytes_saved = diff_bytes_saved;
        st_skipped_syms = skipped_syms };
  Printf.printf "CVEs:                %d\n" (List.length cves);
  Printf.printf "cold wall:           %8.3f s\n" cold_t;
  Printf.printf "warm wall:           %8.3f s\n" warm_t;
  Printf.printf "speedup:             %8.2fx\n" (cold_t /. warm_t);
  Printf.printf "units skipped (warm):%6d\n" skipped;
  Printf.printf "store puts:          %6d  (dedup hits: %d, ratio %.2f)\n"
    st.Store.puts st.Store.dedup_hits dedup_ratio;
  Printf.printf "bytes interned:      %8d  (saved by dedup: %d)\n"
    st.Store.bytes_put st.Store.bytes_deduped;
  Printf.printf "minimal diffs:       %8d update bytes saved, %d symbols \
                 left home (vs whole-unit)\n"
    diff_bytes_saved skipped_syms;
  Printf.printf "identical updates from both passes: %b\n" identical;
  if not identical then
    print_endline "*** WARM CREATION DIVERGED FROM COLD ***";
  if skipped = 0 then
    print_endline "*** WARM PASS SKIPPED NO UNITS: incremental path dead ***"

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
  Trace.reset ();
  Trace.set_enabled false;
  let t0 = now () in
  let untraced = List.map (apply_one false) ups in
  let untraced_t = now () -. t0 in
  Trace.set_capacity 65536;
  Trace.set_enabled true;
  let t0 = now () in
  let traced = List.map (apply_one true) ups in
  let traced_t = now () -. t0 in
  Trace.set_enabled false;
  let records = List.length (Trace.records ()) + Trace.dropped () in
  Trace.reset ();
  let identical = untraced = traced in
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
     then time the reopen that replays the journal and sweeps the debris *)
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

(* ---------- FL: simulated fleet distribution ---------- *)

type fleet_outcome = {
  fb_subscribers : int;
  fb_depth : int;  (** server chain entries *)
  fb_synced : int;
  fb_wall_s : float;
  fb_subs_per_s : float;
  fb_p50_s : float;
  fb_p99_s : float;
  fb_chain_bytes : int;  (** blob bytes of one full cold mirror *)
  fb_bytes_fetched : int;
  fb_bytes_saved : int;  (** bytes not transferred vs all-cold mirrors *)
}

let fleet_result : fleet_outcome option ref = ref None

let fleet_bench ?(subscribers = 512) () =
  section
    (Printf.sprintf "Fleet distribution: %d subscribers mirroring one server"
       subscribers);
  let module Transport = Fleet.Transport in
  let module Server = Fleet.Server in
  let module Subscriber = Fleet.Subscriber in
  (* a server chain stacked like the fleet sweep's: successive corpus
     CVEs applied to the successively patched tree *)
  let repo = Repo.of_store (Store.create ~name:"fleet-bench-server" ()) in
  let depth =
    List.length
      (get "fleet bench chain" Format.pp_print_string
         (Corpus.Sweep.publish_chain repo base ~depth:4))
  in
  let base_digest = Tree.digest base in
  let manifest =
    match Repo.manifest repo ~digest:base_digest with
    | Ok m -> m
    | Error e -> Format.kasprintf failwith "fleet manifest: %a" Repo.pp_error e
  in
  let chain_bytes =
    List.fold_left
      (fun acc (e : Repo.manifest_entry) ->
        acc + e.me_size
        + List.fold_left (fun a (_, s) -> a + s) 0 e.me_objects)
      0 manifest
  in
  let server_store = Repo.store repo in
  (* pre-seed a subscriber to chain position [k]: exactly the refs and
     blobs a prior sync committed, so the timed sync fetches the delta *)
  let preseed sub k =
    List.iteri
      (fun i (e : Repo.manifest_entry) ->
        if i < k then begin
          List.iter
            (fun d ->
              match Store.get server_store d with
              | Some b -> ignore (Store.put sub b)
              | None -> failwith "fleet bench: server blob missing")
            (e.me_blob :: List.map fst e.me_objects);
          let hd = Store.put sub e.me_next in
          Store.commit_refs sub
            [ (Repo.entry_ref e.me_base, e.me_blob); ("fleet:head", hd) ]
        end)
      manifest
  in
  let t0 = now () in
  let reports =
    Parallel.map ~domains:(par_domains ())
      (fun i ->
        let sub = Store.create ~name:(Printf.sprintf "sub-%d" i) () in
        preseed sub (i mod (depth + 1));
        let connect _ =
          let tr, _ =
            Transport.sim ~serve:(Server.handle (Server.session repo)) ()
          in
          Some tr
        in
        let s0 = now () in
        let r =
          Subscriber.sync ~id:(Printf.sprintf "sub-%d" i) ~store:sub
            ~base:base_digest ~connect ()
        in
        (now () -. s0, r))
      (List.init subscribers (fun i -> i))
  in
  let wall = now () -. t0 in
  let lats = List.sort compare (List.map fst reports) in
  let pct p =
    let n = List.length lats in
    if n = 0 then 0.0
    else
      List.nth lats
        (max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))
  in
  let sum f =
    List.fold_left (fun acc (_, r) -> acc + f r) 0 reports
  in
  let synced = sum (fun (r : Subscriber.report) -> if r.r_synced then 1 else 0) in
  let outcome =
    {
      fb_subscribers = subscribers;
      fb_depth = depth;
      fb_synced = synced;
      fb_wall_s = wall;
      fb_subs_per_s = float_of_int subscribers /. wall;
      fb_p50_s = pct 0.50;
      fb_p99_s = pct 0.99;
      fb_chain_bytes = chain_bytes;
      fb_bytes_fetched = sum (fun (r : Subscriber.report) -> r.r_bytes_fetched);
      (* a cold mirror transfers [chain_bytes]; whatever the fleet did
         not fetch was saved by delta sync (head exchange skipping
         committed entries) plus CAS hits on shared object blobs *)
      fb_bytes_saved =
        max 0
          ((chain_bytes * subscribers)
          - sum (fun (r : Subscriber.report) -> r.r_bytes_fetched));
    }
  in
  fleet_result := Some outcome;
  Printf.printf "chain: %d entries, %d blob bytes per cold mirror\n" depth
    chain_bytes;
  Printf.printf "synced %d/%d subscribers in %.3f s  (%.1f subscribers/s)\n"
    synced subscribers wall outcome.fb_subs_per_s;
  Printf.printf "sync latency: p50 %.6f s   p99 %.6f s\n" outcome.fb_p50_s
    outcome.fb_p99_s;
  Printf.printf
    "delta sync: %d bytes fetched, %d bytes saved vs cold mirrors\n"
    outcome.fb_bytes_fetched outcome.fb_bytes_saved;
  if synced <> subscribers then
    print_endline "*** FLEET BENCH: not every subscriber synced ***"

(* ---------- CU: cumulative updates (atomic replace) ---------- *)

type cumulative_row = {
  cb_requested : int;
  cb_depth : int;  (** chain entries actually published *)
  cb_stacked_s : float;  (** applying the chain hop by hop *)
  cb_collapse_s : float;  (** one atomic replace of the whole stack *)
  cb_chain_bytes : int;  (** wire bytes of the per-update chain *)
  cb_cumulative_bytes : int;  (** wire bytes of the one cumulative hop *)
  cb_footprints_identical : bool;
}

let cumulative_result : cumulative_row list ref = ref []

let cumulative_bench ?(depths = [ 1; 8; 32 ]) () =
  section "Cumulative updates: atomic replace vs the stacked chain";
  let rows =
    List.map
      (fun requested ->
        (* a chain of corpus CVEs, each still applicable to the
           successively patched tree, published like the fleet bench's *)
        let repo =
          Repo.of_store
            (Store.create ~name:(Printf.sprintf "cum-bench-%d" requested) ())
        in
        let chain =
          List.map snd
            (get "cumulative bench chain" Format.pp_print_string
               (Corpus.Sweep.publish_chain repo base ~depth:requested))
        in
        let depth = List.length chain in
        let base_digest = Tree.digest base in
        (* the manifest advertises the cumulative hop once published, so
           measuring it before and after the collapse yields the wire
           bytes of the chain vs the single replacement hop *)
        let manifest_bytes () =
          match Repo.manifest repo ~digest:base_digest with
          | Ok m ->
            List.fold_left
              (fun acc (e : Repo.manifest_entry) ->
                acc + e.me_size
                + List.fold_left (fun a (_, s) -> a + s) 0 e.me_objects)
              0 m
          | Error e ->
            Format.kasprintf failwith "cumulative bench manifest: %a"
              Repo.pp_error e
        in
        let chain_bytes = manifest_bytes () in
        let cum =
          match
            Repo.publish_cumulative repo ~source:base
              ~update_id:(Printf.sprintf "cumulative-%d" depth)
              ~description:(Printf.sprintf "collapse of %d update(s)" depth)
          with
          | Ok e -> e.Repo.update
          | Error e ->
            Format.kasprintf failwith "cumulative bench collapse: %a"
              Repo.pp_error e
        in
        let cumulative_bytes = manifest_bytes () in
        let apply_ok mgr u =
          match Apply.apply mgr u with
          | Ok _ -> ()
          | Error e ->
            Format.kasprintf failwith "cumulative bench apply: %a"
              Apply.pp_error e
        in
        (* twin A: the stacked chain, timed hop by hop *)
        let ba = Corpus.Boot.boot () in
        let mgra = Apply.init ba.machine in
        let t0 = now () in
        List.iter (apply_ok mgra) chain;
        let stacked_s = now () -. t0 in
        (* twin B: the same stack, then one timed atomic replace *)
        let bb = Corpus.Boot.boot () in
        let mgrb = Apply.init bb.machine in
        List.iter (apply_ok mgrb) chain;
        let t1 = now () in
        (match Apply.apply_cumulative mgrb cum with
        | Ok _ -> ()
        | Error e ->
          Format.kasprintf failwith "cumulative bench replace: %a"
            Apply.pp_error e);
        let collapse_s = now () -. t1 in
        (* footprint parity: unwind twin A by hand, plain-apply, compare *)
        List.iter
          (fun (u : Update.t) ->
            match Apply.undo mgra u.update_id with
            | Ok () -> ()
            | Error e ->
              Format.kasprintf failwith "cumulative bench undo: %a"
                Apply.pp_error e)
          (List.rev chain);
        apply_ok mgra cum;
        let identical =
          String.equal (Apply.footprint mgra) (Apply.footprint mgrb)
        in
        Printf.printf
          "depth %2d: stacked apply %.3f s, atomic replace %.3f s; wire %d \
           -> %d bytes; footprints identical: %b\n"
          depth stacked_s collapse_s chain_bytes cumulative_bytes identical;
        { cb_requested = requested; cb_depth = depth;
          cb_stacked_s = stacked_s; cb_collapse_s = collapse_s;
          cb_chain_bytes = chain_bytes;
          cb_cumulative_bytes = cumulative_bytes;
          cb_footprints_identical = identical })
      depths
  in
  cumulative_result := rows;
  if List.exists (fun r -> not r.cb_footprints_identical) rows then
    print_endline "*** CUMULATIVE BENCH: footprint divergence ***"

(* ---------- P: Bechamel timing ---------- *)

let bechamel_benches ?(quick = false) () =
  section "Timing micro-benchmarks (Bechamel)";
  let open Bechamel in
  let open Toolkit in
  (* prepared state for the benches *)
  let cve = Option.get (Corpus.Cve.find "CVE-2006-2451") in
  let prepared = created cve in
  (* machine with the update applied, for trampoline-overhead probes *)
  let b_patched = Corpus.Boot.boot () in
  let mgr = Apply.init b_patched.machine in
  (match Apply.apply mgr prepared.update with
   | Ok _ -> ()
   | Error e -> Format.kasprintf failwith "bench apply: %a" Apply.pp_error e);
  let b_plain = Corpus.Boot.boot () in
  let addr_of (b : Corpus.Boot.booted) name =
    (Option.get (Image.lookup_global b.image name)).addr
  in
  let call_patched = addr_of b_patched "sys_prctl" in
  let call_plain = addr_of b_plain "sys_prctl" in
  let helper = List.hd prepared.update.helpers in
  let inference_bench () =
    let inference = Ksplice.Runpre.create_inference () in
    Ksplice.Runpre.match_helper
      ~read_run:(fun a -> Machine.read_u8 b_plain.machine a)
      ~candidates:(fun name ->
        Machine.lookup_name b_plain.machine name
        |> List.filter_map (fun (s : Image.syminfo) ->
             if s.kind = `Func then Some s.addr else None))
      ~already:(fun _ -> None)
      ~inference helper
  in
  let tests =
    [
      Test.make ~name:"call: unpatched function"
        (Staged.stage (fun () ->
             ignore
               (Machine.call_function b_plain.machine ~addr:call_plain
                  ~args:[ 3l; 0l ])));
      Test.make ~name:"call: patched function (trampoline)"
        (Staged.stage (fun () ->
             ignore
               (Machine.call_function b_patched.machine ~addr:call_patched
                  ~args:[ 3l; 0l ])));
      Test.make ~name:"run-pre matching (one helper unit)"
        (Staged.stage (fun () -> ignore (inference_bench ())));
      Test.make ~name:"ksplice-create (prctl patch)"
        (Staged.stage (fun () -> ignore (created cve)));
      Test.make ~name:"apply+undo on live kernel"
        (Staged.stage (fun () ->
             let b = Corpus.Boot.boot () in
             let mgr = Apply.init b.machine in
             (match Apply.apply mgr prepared.update with
              | Ok _ -> ()
              | Error _ -> failwith "bench apply failed");
             match Apply.undo mgr cve.id with
             | Ok () -> ()
             | Error _ -> failwith "bench undo failed"));
    ]
  in
  (* matcher cost scales with the optimization unit: one synthetic unit
     per size, measured separately *)
  let scaling_tests () =
    let mk_unit n =
      let b = Buffer.create 1024 in
      for i = 0 to n - 1 do
        Buffer.add_string b
          (Printf.sprintf
             "int sfn%d(int p) {\n  int a = p + %d;\n  int i;\n  for (i = 0; i < %d; i = i + 1)\n    a = a + i;\n  return a;\n}\n"
             i i (i + 2))
      done;
      Buffer.contents b
    in
    List.map
      (fun n ->
        let tree =
          Patchfmt.Source_tree.of_list [ ("kernel/s.c", mk_unit n) ]
        in
        let m = (Corpus.Boot.boot ~tree ()).machine in
        let pre =
          get "pre build" Kbuild.pp_error
            (Kbuild.build_tree ~options:Minic.Driver.pre_build tree)
        in
        let helper = List.hd (Kbuild.objects pre) in
        Test.make
          ~name:(Printf.sprintf "run-pre matching, %d-function unit" n)
          (Staged.stage (fun () ->
               let inference = Ksplice.Runpre.create_inference () in
               ignore
                 (Ksplice.Runpre.match_helper
                    ~read_run:(fun a -> Machine.read_u8 m a)
                    ~candidates:(fun name ->
                      Machine.lookup_name m name
                      |> List.filter_map (fun (s : Image.syminfo) ->
                           if s.kind = `Func then Some s.addr else None))
                    ~already:(fun _ -> None)
                    ~inference helper))))
      [ 4; 16; 64 ]
  in
  let tests =
    if quick then
      (* the cheap probes only — creation and apply are already wall-
         clocked by the sections, and --quick must stay under 30 s *)
      List.filteri (fun i _ -> i < 3) tests
    else tests @ scaling_tests ()
  in
  let grouped = Test.make_grouped ~name:"ksplice" ~fmt:"%s %s" tests in
  let cfg =
    if quick then
      Benchmark.cfg ~limit:100 ~quota:(Time.second 0.1) ~stabilize:false ()
    else Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (name, est) ->
      match Analyze.OLS.estimates est with
      | Some [ ns ] ->
        bech_estimates := (name, ns) :: !bech_estimates;
        if ns > 1e6 then Printf.printf "%-46s %10.3f ms/run\n" name (ns /. 1e6)
        else if ns > 1e3 then
          Printf.printf "%-46s %10.3f us/run\n" name (ns /. 1e3)
        else Printf.printf "%-46s %10.1f ns/run\n" name ns
      | _ -> Printf.printf "%-46s (no estimate)\n" name)
    (List.sort compare rows);
  (* instruction-level trampoline cost: the inserted jump is one extra
     5-byte instruction per call, the paper's "a few cycles" *)
  Printf.printf
    "\ntrampoline cost at ISA level: 1 extra jmp instruction (5 bytes) per \
     call to a replaced function\n"

(* ---------- BENCH.json emitter ---------- *)

let emit_bench_json ~mode () =
  let open Report.Json in
  let cs = Kbuild.cache_stats () in
  let is = Machine.kallsyms_index_stats () in
  let num n = Num (float_of_int n) in
  let rate hits total =
    if total = 0 then Null else Num (float_of_int hits /. float_of_int total)
  in
  let doc =
    Obj
      [
        ("schema", Str "ksplice-bench/1");
        ("mode", Str mode);
        ("domains", num (par_domains ()));
        ("available_domains", num (Parallel.available_domains ()));
        ( "sections",
          Arr
            (List.rev_map
               (fun (name, wall) ->
                 Obj [ ("name", Str name); ("wall_s", Num wall) ])
               !section_times) );
        ( "bechamel",
          Arr
            (List.rev_map
               (fun (name, ns) ->
                 Obj [ ("name", Str name); ("ns_per_run", Num ns) ])
               !bech_estimates) );
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
        ( "creation_sweep",
          match !creation_result with
          | None -> Null
          | Some (cves, serial_t, par_t, identical) ->
            Obj
              [
                ("cves", num cves);
                ("serial_wall_s", Num serial_t);
                ("parallel_wall_s", Num par_t);
                ("speedup", Num (serial_t /. par_t));
                ("identical", Bool identical);
              ] );
        ( "store",
          match !store_result with
          | None -> Null
          | Some s ->
            Obj
              [
                ("cves", num s.st_cves);
                ("cold_wall_s", Num s.st_cold_s);
                ("warm_wall_s", Num s.st_warm_s);
                ("speedup", Num (s.st_cold_s /. s.st_warm_s));
                ("identical", Bool s.st_identical);
                ("skipped_units", num s.st_skipped);
                ("dedup_ratio", Num s.st_dedup_ratio);
                ("bytes_saved", num s.st_bytes_saved);
                ("diff_bytes_saved", num s.st_diff_bytes_saved);
                ("skipped_symbols", num s.st_skipped_syms);
              ] );
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
                ("records", num records);
              ] );
        ( "crash_recovery",
          match !recovery_result with
          | None -> Null
          | Some t -> Obj [ ("recovery_s", Num t) ] );
        ( "fleet",
          match !fleet_result with
          | None -> Null
          | Some f ->
            Obj
              [
                ("subscribers", num f.fb_subscribers);
                ("chain_depth", num f.fb_depth);
                ("synced", num f.fb_synced);
                ("wall_s", Num f.fb_wall_s);
                ("subscribers_per_s", Num f.fb_subs_per_s);
                ("p50_sync_s", Num f.fb_p50_s);
                ("p99_sync_s", Num f.fb_p99_s);
                ("chain_bytes", num f.fb_chain_bytes);
                ("bytes_fetched", num f.fb_bytes_fetched);
                ("bytes_saved", num f.fb_bytes_saved);
                ("ok", Bool (f.fb_synced = f.fb_subscribers));
              ] );
        ( "cumulative",
          match !cumulative_result with
          | [] -> Null
          | rows ->
            Obj
              [
                ( "rows",
                  Arr
                    (List.map
                       (fun r ->
                         Obj
                           [
                             ("requested", num r.cb_requested);
                             ("depth", num r.cb_depth);
                             ("stacked_apply_s", Num r.cb_stacked_s);
                             ("collapse_s", Num r.cb_collapse_s);
                             ("chain_bytes", num r.cb_chain_bytes);
                             ("cumulative_bytes", num r.cb_cumulative_bytes);
                             ( "bytes_saved",
                               num
                                 (max 0
                                    (r.cb_chain_bytes
                                    - r.cb_cumulative_bytes)) );
                             ( "footprints_identical",
                               Bool r.cb_footprints_identical );
                           ])
                       rows) );
                ( "ok",
                  Bool
                    (List.for_all
                       (fun r -> r.cb_footprints_identical)
                       rows) );
              ] );
      ]
  in
  let oc = open_out !out_path in
  output_string oc (to_string doc);
  close_out oc;
  Printf.printf "\nperf baseline written to %s\n" !out_path

let () =
  let specs =
    [
      ("--quick", Arg.Set quick, " small subset for CI (finishes in < 30 s)");
      ( "--out",
        Arg.Set_string out_path,
        "FILE perf-baseline JSON path (default BENCH.json)" );
      ( "--domains",
        Arg.Set_int domains_flag,
        "N domain budget for the parallel legs (default: max 2 cores)" );
    ]
  in
  Arg.parse (Arg.align specs)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench [--quick] [--out FILE] [--domains N]";
  print_endline "Ksplice reproduction - evaluation benchmarks";
  print_endline "(paper: Arnold & Kaashoek, EuroSys 2009)";
  if !quick then begin
    let quick_cves = List.filteri (fun i _ -> i < 8) Corpus.Cve.all in
    timed "figure3" figure3;
    timed "table1" table1;
    timed "consequences" consequences;
    timed "creation_sweep" (fun () -> creation_sweep ~cves:quick_cves ());
    timed "store_sweep" (fun () -> store_sweep ~cves:quick_cves ());
    timed "differencing_sweep" (fun () ->
        differencing_sweep ~rows:(quick_cves @ Corpus.Cve.diff_extras) ());
    timed "manager_sweep" (fun () ->
        manager_sweep ~rows:(List.filteri (fun i _ -> i < 4) quick_cves) ());
    timed "trace_overhead" (fun () -> trace_overhead ~cves:quick_cves ());
    timed "crash_sweep" (fun () ->
        crash_sweep ~rows:(List.filteri (fun i _ -> i < 2) quick_cves) ());
    timed "transition_sweep" (fun () ->
        transition_sweep ~rows:(List.filteri (fun i _ -> i < 2) quick_cves) ());
    timed "fleet_bench" (fun () -> fleet_bench ());
    timed "cumulative_bench" (fun () -> cumulative_bench ~depths:[ 1; 4 ] ());
    timed "bechamel" (fun () -> bechamel_benches ~quick:true ())
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
    timed "creation_sweep" (fun () -> creation_sweep ());
    timed "store_sweep" (fun () -> store_sweep ());
    timed "differencing_sweep" (fun () -> differencing_sweep ());
    timed "trace_overhead" (fun () -> trace_overhead ());
    timed "crash_sweep" (fun () -> crash_sweep ());
    timed "transition_sweep" (fun () -> transition_sweep ());
    timed "fleet_bench" (fun () -> fleet_bench ~subscribers:1024 ());
    timed "cumulative_bench" (fun () -> cumulative_bench ());
    timed "appendix" appendix;
    timed "bechamel" (fun () -> bechamel_benches ())
  end;
  emit_bench_json ~mode:(if !quick then "quick" else "full") ();
  print_endline "\nAll experiments complete."
