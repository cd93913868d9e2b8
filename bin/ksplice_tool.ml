(* ksplice-tool: command-line front end mirroring the paper's §5 workflow:

     ksplice-tool create --source DIR --patch FILE -o UPDATE
     ksplice-tool inspect UPDATE
     ksplice-tool list-cves
     ksplice-tool demo --cve ID

   create/inspect operate on real files (source directories, unified
   diffs, binary update files); demo boots the evaluation kernel in-process
   and walks one corpus CVE end to end, since a live kernel cannot
   meaningfully live in a file. *)

module Tree = Patchfmt.Source_tree
module Diff = Patchfmt.Diff
module Update = Ksplice.Update
module Create = Ksplice.Create
module Apply = Ksplice.Apply

(* Whole-file I/O for the file-based commands. A failure is [Sys_error]'s
   own "PATH: reason" message, which [or_exit] reports. *)
let read_file path =
  try Ok (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error m -> Error m

let write_file path data =
  try Ok (Out_channel.with_open_bin path (fun oc -> output_string oc data))
  with Sys_error m -> Error m

let or_exit = function
  | Ok v -> v
  | Error m ->
    prerr_endline ("error: " ^ m);
    exit 1

(* load a source tree from a directory: every .c/.s file, with paths
   relative to the root *)
let read_tree root =
  let rec walk acc dir =
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        if Sys.is_directory path then walk acc path
        else if
          Filename.check_suffix entry ".c" || Filename.check_suffix entry ".s"
        then begin
          let rel =
            String.sub path
              (String.length root + 1)
              (String.length path - String.length root - 1)
          in
          (rel, or_exit (read_file path)) :: acc
        end
        else acc)
      acc (Sys.readdir dir)
  in
  Tree.of_list (walk [] root)

(* --explain: every shipped symbol of the primary, with the reason the
   differencing engine included it, grouped per patched unit and tied
   back to the unit's slice of the source patch *)
let print_explanation (c : Create.created) =
  print_string "why each symbol ships:\n";
  List.iter
    (fun (p : Create.provenance) ->
      Printf.printf "  %s: %d hunk%s, +%d/-%d lines\n" p.p_unit p.p_hunks
        (if p.p_hunks = 1 then "" else "s")
        p.p_patch.added p.p_patch.removed;
      if p.p_shipped = [] then
        print_string "    (no object code shipped from this unit)\n"
      else
        List.iter
          (fun (sym, reason) ->
            Printf.printf "    %-32s %s\n" sym
              (Ksplice.Prepost.reason_to_string reason))
          p.p_shipped)
    c.provenance

let cmd_create source patch_file output id desc explain =
  let tree = read_tree source in
  let patch_text = or_exit (read_file patch_file) in
  match Diff.parse patch_text with
  | Error e ->
    Printf.eprintf "error: cannot parse patch: %s\n" e;
    exit 1
  | Ok patch -> (
    match
      Create.create { source = tree; patch; update_id = id; description = desc }
    with
    | Error e ->
      Format.eprintf "error: %a@." Create.pp_error e;
      exit 1
    | Ok ({ update; diffs; _ } as created) ->
      or_exit (write_file output (Bytes.to_string (Update.to_bytes update)));
      Printf.printf "Ksplice update written to %s\n" output;
      List.iter
        (fun (d : Ksplice.Prepost.unit_diff) ->
          Format.printf "%a@." Ksplice.Prepost.pp_unit_diff d)
        diffs;
      if explain then print_explanation created)

let cmd_inspect path =
  let u =
    match Update.of_bytes (Bytes.of_string (or_exit (read_file path))) with
    | Ok u -> u
    | Error e ->
      Format.eprintf "error: %s: %a@." path Update.pp_decode_error e;
      exit 1
  in
  Printf.printf "update:      %s\n" u.update_id;
  Printf.printf "description: %s\n" u.description;
  Printf.printf "patched units (%d):\n" (List.length u.patched_units);
  List.iter (fun f -> Printf.printf "  %s\n" f) u.patched_units;
  Printf.printf "replaced functions (%d):\n"
    (List.length u.replaced_functions);
  List.iter
    (fun (unit_name, f) -> Printf.printf "  %-28s (%s)\n" f unit_name)
    u.replaced_functions;
  let section_bytes (o : Objfile.t) =
    List.fold_left
      (fun a (s : Objfile.Section.t) -> a + s.size)
      0 o.sections
  in
  Printf.printf "primary module: %d sections, %d bytes\n"
    (List.length u.primary.sections)
    (section_bytes u.primary);
  Printf.printf "helper modules: %d (%d bytes total)\n"
    (List.length u.helpers)
    (List.fold_left (fun a h -> a + section_bytes h) 0 u.helpers)

let cmd_objdump path =
  let data = Bytes.of_string (or_exit (read_file path)) in
  match Update.of_bytes data with
  | Ok u ->
    Printf.printf "update %s\n\n=== primary module ===\n" u.update_id;
    Format.printf "%a@." Objfile.Objdump.pp u.primary;
    List.iter
      (fun h ->
        Printf.printf "\n=== helper (pre) module: %s ===\n"
          h.Objfile.unit_name;
        Format.printf "%a@." Objfile.Objdump.pp h)
      u.helpers
  | Error (Update.Bad_magic _) -> (
    match Objfile.of_bytes data with
    | Ok o -> Format.printf "%a@." Objfile.Objdump.pp o
    | Error e ->
      Format.eprintf "error: %s: not an update or object file: %a@." path
        Codec.pp_error e;
      exit 1)
  | Error e ->
    Format.eprintf "error: %s: %a@." path Update.pp_decode_error e;
    exit 1

let cmd_export dir =
  (* write the evaluation kernel's source tree plus every CVE patch, so
     the file-based create workflow can be driven by hand:
       ksplice-tool export --dir /tmp/ws
       ksplice-tool create --source /tmp/ws/src \
         --patch /tmp/ws/patches/CVE-2006-2451.patch -o u.ksplice *)
  let base = Corpus.Base_kernel.tree () in
  let mkdir d =
    try if not (Sys.file_exists d) then Sys.mkdir d 0o755
    with Sys_error m -> or_exit (Error m)
  in
  mkdir dir;
  let src_dir = Filename.concat dir "src" in
  mkdir src_dir;
  mkdir (Filename.concat src_dir "kernel");
  List.iter
    (fun (path, contents) ->
      or_exit (write_file (Filename.concat src_dir path) contents))
    (Tree.bindings base);
  let patch_dir = Filename.concat dir "patches" in
  mkdir patch_dir;
  List.iter
    (fun (cve : Corpus.Cve.t) ->
      or_exit
        (write_file
           (Filename.concat patch_dir (cve.id ^ ".patch"))
           (Diff.to_string (Corpus.Cve.hot_patch cve base))))
    Corpus.Cve.all;
  Printf.printf "exported kernel source to %s and %d patches to %s\n"
    src_dir (List.length Corpus.Cve.all) patch_dir

let cmd_list_cves () =
  Printf.printf "%-16s %-6s %-20s %s\n" "CVE ID" "custom" "file" "description";
  List.iter
    (fun (c : Corpus.Cve.t) ->
      Printf.printf "%-16s %-6s %-20s %s\n" c.id
        (match c.custom with
         | Some _ -> "yes"
         | None -> "no")
        c.file
        (if String.length c.desc > 60 then String.sub c.desc 0 57 ^ "..."
         else c.desc))
    Corpus.Cve.all

let cmd_demo cve_id =
  match Corpus.Cve.find cve_id with
  | None ->
    Printf.eprintf "error: unknown CVE %s (try list-cves)\n" cve_id;
    exit 1
  | Some cve ->
    Printf.printf "== %s: %s\n\n" cve.id cve.desc;
    Printf.printf "[1] booting the kernel (distro-style build)...\n";
    let b = Corpus.Boot.boot () in
    let exploit = Corpus.Exploits.find cve.id in
    (match exploit with
     | Some e ->
       (* prove the vulnerability on a throwaway kernel: exploiting the
          real one first would leave corrupted state behind — a patch
          cannot un-compromise a kernel (§7.2) *)
       let sacrificial = Corpus.Boot.boot () in
       let r = e.run sacrificial in
       Printf.printf
         "[2] exploit '%s' on a sacrificial kernel: %s (%s)\n" e.name
         (if r.succeeded then "SUCCEEDS" else "fails")
         r.detail
     | None -> Printf.printf "[2] no exploit recorded for this CVE\n");
    Printf.printf "[3] ksplice-create: building pre and post, diffing...\n";
    let base = Corpus.Base_kernel.tree () in
    let patch = Corpus.Cve.hot_patch cve base in
    (match
       Create.create
         { source = base; patch; update_id = cve.id; description = cve.desc }
     with
     | Error e ->
       Format.eprintf "create failed: %a@." Create.pp_error e;
       exit 1
     | Ok { update; diffs; _ } ->
       List.iter
         (fun (d : Ksplice.Prepost.unit_diff) ->
           Printf.printf "    %s: replacing %s\n" d.unit_name
             (String.concat ", " d.changed_functions))
         diffs;
       Printf.printf "[4] ksplice-apply: run-pre matching, stop_machine, \
                      trampolines...\n";
       let mgr = Apply.init b.machine in
       (match Apply.apply mgr update with
        | Error e ->
          Format.eprintf "apply failed: %a@." Apply.pp_error e;
          exit 1
        | Ok a ->
          Printf.printf "    applied; simulated pause %.3f ms; %d \
                         trampoline(s)\n"
            (float_of_int a.pause_ns /. 1e6)
            (List.length a.saved));
       (match exploit with
        | Some e ->
          let r = e.run b in
          Printf.printf "[5] exploit against the patched kernel: %s (%s)\n"
            (if r.succeeded then "STILL WORKS - BUG" else "blocked")
            r.detail
        | None -> ());
       let stress = Corpus.Stress.run b ~threads:2 ~iterations:10 in
       Printf.printf "[6] stress test: %s\n"
         (if stress.ok then "passed" else "FAILED");
       (match Apply.undo mgr cve.id with
        | Ok () -> Printf.printf "[7] ksplice-undo: original code restored\n"
        | Error e -> Format.printf "[7] undo failed: %a@." Apply.pp_error e);
       (match exploit with
        | Some e ->
          let r = e.run b in
          Printf.printf "[8] exploit after undo: %s (the hole is back)\n"
            (if r.succeeded then "succeeds" else "fails")
        | None -> ());
       Printf.printf "\nDone.\n")

(* --- structured tracing: trace / metrics --- *)

(* Boot a kernel, create the update for one CVE, and apply it with
   tracing live (the caller has enabled the collector). With [sabotage],
   one byte of a replaced function's running code is corrupted first, so
   run-pre matching must reject the candidate — the exported trace then
   demonstrates the §4 diagnostic: which candidate was rejected and the
   byte offset of first divergence. *)
let traced_cve_run ~sabotage cve_id =
  match Corpus.Cve.find cve_id with
  | None ->
    Printf.eprintf "error: unknown CVE %s (try list-cves)\n" cve_id;
    exit 1
  | Some cve -> (
    let b = Corpus.Boot.boot () in
    Trace.set_clock (fun () ->
        Kernel.Machine.instructions_retired b.machine);
    let base = Corpus.Base_kernel.tree () in
    let patch = Corpus.Cve.hot_patch cve base in
    match
      Create.create
        { source = base; patch; update_id = cve.id; description = cve.desc }
    with
    | Error e ->
      Format.eprintf "error: create failed: %a@." Create.pp_error e;
      exit 1
    | Ok { update; _ } ->
      if sabotage then begin
        match update.Update.replaced_functions with
        | [] ->
          Printf.eprintf "error: %s replaces no functions\n" cve.id;
          exit 1
        | (_, cfn) :: _ -> (
          let raw, _ = Update.split_canonical cfn in
          match
            Kernel.Machine.lookup_name b.machine raw
            |> List.find_opt (fun (s : Klink.Image.syminfo) ->
                 s.kind = `Func)
          with
          | None ->
            Printf.eprintf "error: %s not in kallsyms\n" raw;
            exit 1
          | Some s ->
            let byte = Kernel.Machine.read_u8 b.machine s.addr in
            Kernel.Machine.write_bytes b.machine s.addr
              (Bytes.make 1 (Char.chr (byte lxor 0x01))))
      end;
      let ap = Apply.init b.machine in
      (match (Apply.apply ap update, sabotage) with
       | Ok a, false ->
         Printf.printf "applied %s: %d trampoline(s), pause %.3f ms\n"
           cve.id
           (List.length a.saved)
           (float_of_int a.pause_ns /. 1e6)
       | Error (Apply.Code_mismatch m), true ->
         Printf.printf
           "run-pre rejected %s %s at pre+%#x / run %#x: %s\n" m.unit_name
           m.section m.pre_off m.run_addr
           (Ksplice.Runpre.divergence_to_string m.reason)
       | Ok _, true ->
         Printf.eprintf
           "error: sabotage did not provoke a run-pre mismatch\n";
         exit 1
       | Error e, _ ->
         Format.eprintf "error: apply failed: %a@." Apply.pp_error e;
         exit 1))

let validate_roundtrip ~what doc =
  let module J = Report.Json in
  let text = J.to_string doc in
  (match J.parse text with
   | Error m ->
     Printf.eprintf "error: exported %s does not parse: %s\n" what m;
     exit 1
   | Ok v ->
     if not (String.equal (J.to_string v) text) then begin
       Printf.eprintf "error: exported %s does not round-trip\n" what;
       exit 1
     end);
  Printf.printf "%s: %d bytes, parses and round-trips\n" what
    (String.length text)

let write_json_or_die ~what out doc =
  match out with
  | None -> print_string (Report.Json.to_string doc)
  | Some path -> (
    match Report.Json.to_file path doc with
    | Ok () -> Printf.printf "%s written to %s\n" what path
    | Error m ->
      Printf.eprintf "error: cannot write %s: %s\n" path m;
      exit 1)

let cmd_trace cve_id sabotage capacity out check =
  Trace.reset ();
  Trace.set_capacity capacity;
  Trace.set_enabled true;
  traced_cve_run ~sabotage cve_id;
  Trace.set_enabled false;
  let doc = Trace.export () in
  Printf.printf "trace: %d record(s), %d dropped\n"
    (List.length (Trace.records ()))
    (Trace.dropped ());
  write_json_or_die ~what:"trace" out doc;
  if check then begin
    validate_roundtrip ~what:"trace export" doc;
    validate_roundtrip ~what:"metrics export" (Trace.metrics ())
  end

let cmd_metrics cve_id sabotage out =
  Trace.reset ();
  Trace.set_enabled true;
  traced_cve_run ~sabotage cve_id;
  Trace.set_enabled false;
  let module J = Report.Json in
  let num n = J.Num (float_of_int n) in
  (* fold the pre-existing process-wide counters into the document so
     one place answers "what did this run cost" *)
  let cs : Kbuild.cache_stats = Kbuild.cache_stats () in
  let is : Kernel.Machine.index_stats =
    Kernel.Machine.kallsyms_index_stats ()
  in
  let extra =
    [
      ( "kbuild_cache",
        J.Obj
          [
            ("hits", num cs.hits);
            ("misses", num cs.misses);
            ("evictions", num cs.evictions);
            ("entries", num cs.entries);
            ("capacity", num cs.capacity);
          ] );
      ( "kallsyms_index",
        J.Obj [ ("lookups", num is.lookups); ("hits", num is.hits) ] );
    ]
  in
  let doc =
    match Trace.metrics () with
    | J.Obj fields -> J.Obj (fields @ extra)
    | other -> other
  in
  write_json_or_die ~what:"metrics" out doc

(* --- corpus sweeps and their reports: sweep / report --- *)

(* Run one sweep — on the rows named by [ids] (resolved by the sweep
   itself), or on its default rows — print its report, and return its
   export and verdict. *)
let run_sweep ~seed ~jobs ids (Corpus.Sweep.Sweep (module M)) =
  let rows =
    if ids = [] then None
    else
      Some
        (List.map
           (fun id ->
             match M.key_of_string id with
             | Some k -> k
             | None ->
               Printf.eprintf "error: sweep %s has no row %s (try list-cves)\n"
                 M.name id;
               exit 1)
           ids)
  in
  Printf.printf "%s sweep, seed %d...\n%!" M.name seed;
  let r =
    Corpus.Sweep.run ?rows ~seed ?domains:jobs
      ~progress:(Printf.printf "  %s\n%!")
      (module M)
  in
  Format.printf "@.%a@." Corpus.Sweep.pp r;
  ((M.name, Corpus.Sweep.to_json r), Corpus.Sweep.ok r)

let cmd_sweep name ids seed jobs out =
  (* most cells abort an apply on purpose; the per-abort warnings are
     noise here (-v restores them) *)
  if Logs.level () = Some Logs.Warning then Logs.set_level (Some Logs.Error);
  let sweeps =
    match (Corpus.Sweep.find name, name) with
    | Some s, _ -> [ s ]
    | None, "gate" when ids = [] -> Corpus.Sweep.all
    | None, _ ->
      Printf.eprintf "error: unknown sweep %s (%s, or gate without --row)\n"
        name
        (String.concat ", "
           (List.map
              (fun (Corpus.Sweep.Sweep (module M)) -> M.name)
              Corpus.Sweep.all));
      exit 1
  in
  let results = List.map (run_sweep ~seed ~jobs ids) sweeps in
  if out <> None then
    write_json_or_die ~what:"sweep report" out
      (Report.Json.Obj
         [ ("schema", Report.Json.Str "ksplice-sweep/1");
           ("sweeps", Report.Json.Obj (List.map fst results)) ]);
  if not (List.for_all snd results) then exit 1

let cmd_report path section =
  let doc =
    match Report.Json.of_file path with
    | Ok doc -> doc
    | Error m ->
      Printf.eprintf
        "error: %s (regenerate with `sweep NAME --out` or bench/main.exe)\n" m;
      exit 1
  in
  let doc =
    match Option.map (fun name -> Report.Render.section name doc) section with
    | None -> doc
    | Some (Ok d) -> d
    | Some (Error e) ->
      Format.eprintf "error: %s: %a@." path Report.Render.pp_error e;
      exit 1
  in
  Format.printf "%a@?" Report.Render.pp doc;
  if Report.Render.verdict doc then print_endline "verdict: ok"
  else begin
    print_endline "verdict: FAILED";
    exit 1
  end

(* --- fsck / gc: on-disk repository maintenance --- *)

module Repo = Ksplice.Repository

let cannot_open dir e =
  Format.eprintf "error: cannot open %s: %a@." dir Repo.pp_error e;
  exit 2

(* gc, serve and collapse work on a repository that is already there: a
   read-only probe, which creates nothing, refuses a path that holds no
   store before the recovering open *)
let open_existing dir =
  Result.bind (Repo.open_dir ~recover:false dir) (fun _ -> Repo.open_dir dir)

let cmd_fsck dir =
  (* read-only: open without recovery so damage is reported, not repaired *)
  match Repo.open_dir ~recover:false dir with
  | Error e -> cannot_open dir e
  | Ok repo -> (
    match Repo.fsck repo with
    | Ok r ->
      Printf.printf
        "%s: clean — %d blob(s), %d ref(s), %d chain entr%s\n" dir
        r.store_report.f_blobs r.store_report.f_refs r.entries_checked
        (if r.entries_checked = 1 then "y" else "ies")
    | Error r ->
      Printf.printf "%s: DAMAGED — %d blob(s), %d ref(s) scanned\n" dir
        r.store_report.f_blobs r.store_report.f_refs;
      List.iter
        (fun issue -> Format.printf "  %a@." Store.pp_fsck_issue issue)
        r.store_report.f_issues;
      List.iter
        (fun (name, reason) ->
          Printf.printf "  corrupt chain entry %s: %s\n" name reason)
        r.corrupt_entries;
      exit 1)

let cmd_gc dir =
  match open_existing dir with
  | Error e -> cannot_open dir e
  | Ok repo ->
    (match Repo.recovery repo with
     | Some { Store.tmp_removed = n } when n > 0 ->
       Printf.printf "recovery: %d temp file(s) removed\n" n
     | _ -> ());
    (match Repo.gc repo with
     | Error e ->
       Format.eprintf "error: %a@." Repo.pp_error e;
       exit 1
     | Ok g ->
       Printf.printf
         "%s: %d live blob(s) kept (%d pinned), %d swept, %d byte(s) \
          reclaimed\n"
         dir g.gc_live g.gc_pinned g.gc_swept g.gc_bytes)

(* --- fleet: serve / sync --- *)

let cmd_serve dir socket max_sessions =
  match open_existing dir with
  | Error e -> cannot_open dir e
  | Ok repo -> (
    Printf.printf "serving %s on %s%s\n%!" dir socket
      (match max_sessions with
      | None -> ""
      | Some n -> Printf.sprintf " (up to %d session(s))" n);
    match Fleet.Server.listen ~socket_path:socket ?max_sessions repo with
    | Ok n -> Printf.printf "served %d session(s)\n" n
    | Error m ->
      Printf.eprintf "error: %s\n" m;
      exit 1)

let cmd_sync socket dir base =
  (* a mirror is created on first use *)
  match Repo.open_dir dir with
  | Error e -> cannot_open dir e
  | Ok mirror ->
    let connect _attempt =
      match Fleet.Transport.connect_unix socket with
      | tr -> Some tr
      | exception Unix.Unix_error _ -> None
    in
    let r =
      Fleet.Subscriber.sync
        ~sleep:(fun ticks -> Unix.sleepf (float_of_int ticks /. 1000.0))
        ~id:(Filename.basename dir) ~store:(Repo.store mirror) ~base ~connect
        ()
    in
    List.iter
      (fun line -> Printf.printf "  %s\n" line)
      r.Fleet.Subscriber.r_log;
    Printf.printf
      "%s: %d entr%s committed, %d blob(s) / %d byte(s) fetched, %d byte(s) \
       already local\n"
      dir r.r_committed
      (if r.r_committed = 1 then "y" else "ies")
      r.r_blobs_fetched r.r_bytes_fetched r.r_bytes_saved;
    if r.r_synced then
      Printf.printf "synced to chain head %s in %d attempt(s)\n" r.r_head
        r.r_attempts
    else begin
      Printf.printf
        "server unreachable after %d attempt(s); still serving head %s\n"
        r.r_attempts r.r_head;
      exit 1
    end

(* --- cumulative updates: collapse --- *)

let cmd_collapse dir source id desc =
  match open_existing dir with
  | Error e -> cannot_open dir e
  | Ok repo -> (
    let tree = read_tree source in
    match
      Repo.publish_cumulative repo ~source:tree ~update_id:id
        ~description:(if desc = "" then "cumulative replacement" else desc)
    with
    | Error e ->
      Format.eprintf "error: %a@." Repo.pp_error e;
      exit 1
    | Ok entry ->
      let u = entry.Repo.update in
      Printf.printf
        "published cumulative update %s: %s -> %s\n" u.Update.update_id
        (String.sub entry.base_digest 0 12)
        (String.sub entry.next_digest 0 12);
      Printf.printf "supersedes (%d, oldest first):\n"
        (List.length u.supersedes);
      List.iter (fun s -> Printf.printf "  %s\n" s) u.supersedes;
      Printf.printf
        "the per-update chain stays published for mid-chain subscribers\n")

(* --- cmdliner wiring --- *)

open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let verbose_t =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Enable debug logging.")

let create_cmd =
  let source =
    Arg.(
      required
      & opt (some dir) None
      & info [ "source" ] ~docv:"DIR" ~doc:"Source of the running kernel.")
  in
  let patch =
    Arg.(
      required
      & opt (some file) None
      & info [ "patch" ] ~docv:"FILE" ~doc:"Unified diff to convert.")
  in
  let output =
    Arg.(
      value & opt string "update.ksplice"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output update file.")
  in
  let id =
    Arg.(
      value & opt string "update"
      & info [ "id" ] ~docv:"ID" ~doc:"Update identifier.")
  in
  let desc =
    Arg.(
      value & opt string "" & info [ "m" ] ~docv:"TEXT" ~doc:"Description.")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Print, per patched unit, why every shipped symbol is in the \
             update (changed, new, dependency closure, or referenced \
             changed data).")
  in
  Cmd.v
    (Cmd.info "create" ~doc:"Construct a hot update from source and a patch")
    Term.(
      const (fun v a b c d e f -> setup_logs v; cmd_create a b c d e f)
      $ verbose_t $ source $ patch $ output $ id $ desc $ explain)

let inspect_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"UPDATE" ~doc:"Update file.")
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Show the contents of an update file")
    Term.(const cmd_inspect $ path)

let objdump_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"SELF object file or Ksplice update file.")
  in
  Cmd.v
    (Cmd.info "objdump" ~doc:"Disassemble an object file or update")
    Term.(const cmd_objdump $ path)

let export_cmd =
  let dir =
    Arg.(
      value & opt string "ksplice-workspace"
      & info [ "dir" ] ~docv:"DIR" ~doc:"Destination directory.")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Write the evaluation kernel source and all CVE patches to disk")
    Term.(const cmd_export $ dir)

let list_cves_cmd =
  Cmd.v
    (Cmd.info "list-cves" ~doc:"List the evaluation CVE corpus")
    Term.(const cmd_list_cves $ const ())

let demo_cmd =
  let cve =
    Arg.(
      value & opt string "CVE-2006-2451"
      & info [ "cve" ] ~docv:"ID" ~doc:"Corpus CVE to demonstrate.")
  in
  Cmd.v
    (Cmd.info "demo"
       ~doc:"Boot the evaluation kernel and hot-patch one CVE end to end")
    Term.(
      const (fun v c -> setup_logs v; cmd_demo c) $ verbose_t $ cve)

let sweep_cmd =
  let sweep_name =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NAME"
          ~doc:"The sweep to run, or $(b,gate) for every sweep on its \
                default rows.")
  in
  let rows =
    Arg.(
      value & opt_all string []
      & info [ "row" ] ~docv:"ID"
          ~doc:
            "Run only this row: a corpus CVE id, or for $(b,cumulative) a \
             chain depth or a shadow extra's id (repeatable; default: the \
             sweep's default rows).")
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N"
          ~doc:"Sweep seed (fault plans, torn writes, retry jitter).")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "domains" ] ~docv:"N"
          ~doc:
            "Run up to $(docv) rows concurrently (default: one per core; 1 \
             forces a serial sweep).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the report, rows included, as JSON to $(docv).")
  in
  let man =
    [ `S Manpage.s_description;
      `P "Every sweep holds each row to its oracle and exits nonzero on \
          any violation:";
      `I ("fault", "a fault at every apply step: byte-identical rollback, \
                    then a clean re-apply that survives stress and blocks \
                    the exploit (default: all 64 CVEs)");
      `I ("manager", "the supervised manager under an injected fault, an \
                      adversarial thread and a failing health probe: every \
                      update terminal, every rollback audited (all 64)");
      `I ("crash", "a publish killed at every mutating I/O op: fsck-clean, \
                    all-or-nothing recovery and a safe gc (every 8th CVE)");
      `I ("transition", "apply and undo under load through the per-thread \
                         model vs a stop_machine twin: zero pause, identical \
                         footprints, a bounded straggler fallback (every \
                         8th CVE)");
      `I ("fleet", "every transport fault at every wire frame of a chain \
                    sync: byte-identical convergence, fsck-clean mirrors, \
                    no redundant transfers (every 8th CVE)");
      `I ("cumulative", "chains collapsed into one atomic replace, faults at \
                         every step, plus the \u{00a7}5.3 shadow round trips \
                         (depths 1, 8, 32)");
      `I ("diffmin", "minimal vs whole-unit updates: complete, explained, \
                      and cheaper in bytes and run-pre trials (every row)") ]
  in
  Cmd.v
    (Cmd.info "sweep" ~man
       ~doc:"Run a corpus sweep and hold every row to its oracle")
    Term.(
      const (fun v n r s j o -> setup_logs v; cmd_sweep n r s j o)
      $ verbose_t $ sweep_name $ rows $ seed $ jobs $ out)

let report_cmd =
  let path =
    Arg.(
      value & pos 0 string "BENCH.json"
      & info [] ~docv:"FILE"
          ~doc:"A JSON report: $(b,sweep --out) or bench/main.exe output.")
  in
  let section =
    Arg.(
      value
      & opt (some string) None
      & info [ "section" ] ~docv:"NAME"
          ~doc:"Render just this top-level section; a missing section is \
                an error, not a crash.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render a JSON report: every section's scalars, numeric arrays as \
          n/p50/p99/max; nonzero exit when a recorded verdict failed")
    Term.(const cmd_report $ path $ section)

let trace_cve_t =
  Arg.(
    value & opt string "CVE-2006-2451"
    & info [ "cve" ] ~docv:"ID"
        ~doc:"CVE to create and apply under tracing (default: the prctl \
              patch).")

let trace_sabotage_t =
  Arg.(
    value & flag
    & info [ "sabotage" ]
        ~doc:
          "Corrupt one byte of the replaced function's running code \
           first, so the trace records a run-pre rejection with the byte \
           offset of first divergence (the \u{00a7}4 diagnostic).")

let trace_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:"Write the JSON document to $(docv) (default: stdout).")

let trace_cmd =
  let capacity =
    Arg.(
      value & opt int 16384
      & info [ "capacity" ] ~docv:"N"
          ~doc:"Trace ring-buffer capacity in records (drop-oldest).")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Validate that the exported trace and metrics JSON parse and \
             round-trip byte-identically; exit nonzero otherwise.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Apply one corpus CVE with structured tracing enabled and export \
          the span/event trace (ksplice-trace/1 JSON), clocked by retired \
          instructions for bit-identical replay")
    Term.(
      const (fun v c s cap o ck -> setup_logs v; cmd_trace c s cap o ck)
      $ verbose_t $ trace_cve_t $ trace_sabotage_t $ capacity $ trace_out_t
      $ check)

let metrics_cmd =
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Apply one corpus CVE with tracing enabled and export counters \
          and histograms (ksplice-metrics/1 JSON), including compile-cache \
          and kallsyms-index hit rates")
    Term.(
      const (fun v c s o -> setup_logs v; cmd_metrics c s o)
      $ verbose_t $ trace_cve_t $ trace_sabotage_t $ trace_out_t)

let repo_dir_t =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DIR" ~doc:"On-disk repository directory.")

let fsck_cmd =
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Check an on-disk repository read-only (the ref table, blob \
          digests, ref targets, chain entries); nonzero exit on damage")
    Term.(const cmd_fsck $ repo_dir_t)

let gc_cmd =
  Cmd.v
    (Cmd.info "gc"
       ~doc:
         "Open an existing on-disk repository (sweeping orphan temp \
          files), then sweep every blob unreachable from its refs and \
          chain entries")
    Term.(const cmd_gc $ repo_dir_t)

let serve_cmd =
  let dir =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"Repository directory to serve.")
  in
  let socket =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"SOCKET" ~doc:"Unix-domain socket path to listen on.")
  in
  let sessions =
    Arg.(
      value
      & opt (some int) None
      & info [ "sessions" ] ~docv:"N"
          ~doc:"Serve $(docv) subscriber session(s), then exit (default: \
                run forever).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a repository's update chains to subscribers over a \
          Unix-domain socket (the uptrack-style distribution daemon)")
    Term.(
      const (fun v d s n -> setup_logs v; cmd_serve d s n)
      $ verbose_t $ dir $ socket $ sessions)

let sync_cmd =
  let socket =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SOCKET" ~doc:"Server's Unix-domain socket path.")
  in
  let dir =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"DIR" ~doc:"Local mirror directory (created if absent).")
  in
  let base =
    Arg.(
      required
      & opt (some string) None
      & info [ "base" ] ~docv:"DIGEST"
          ~doc:"Source-tree digest this subscriber's kernel runs.")
  in
  Cmd.v
    (Cmd.info "sync"
       ~doc:
         "Mirror a served update chain into a local store: delta sync \
          (only missing blobs cross the wire), resumable after any \
          interruption, degrading to the old chain head when the server \
          is unreachable")
    Term.(
      const (fun v s d b -> setup_logs v; cmd_sync s d b)
      $ verbose_t $ socket $ dir $ base)

let collapse_cmd =
  let dir =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"On-disk repository directory.")
  in
  let source =
    Arg.(
      required
      & opt (some Arg.dir) None
      & info [ "source" ] ~docv:"SRCDIR"
          ~doc:
            "Source of the oldest kernel still in the fleet — the tree the \
             pending chain starts from.")
  in
  let id =
    Arg.(
      value & opt string "cumulative"
      & info [ "id" ] ~docv:"ID" ~doc:"Update identifier for the collapse.")
  in
  let desc =
    Arg.(
      value & opt string "" & info [ "m" ] ~docv:"TEXT" ~doc:"Description.")
  in
  Cmd.v
    (Cmd.info "collapse"
       ~doc:
         "Collapse a repository's pending chain into one cumulative update \
          (atomic replace): subscribers land the whole backlog in a single \
          transaction that supersedes their applied stack, while the \
          per-update chain stays published for mid-chain mirrors")
    Term.(
      const (fun v d s i m -> setup_logs v; cmd_collapse d s i m)
      $ verbose_t $ dir $ source $ id $ desc)

let () =
  let doc = "Ksplice reproduction: rebootless kernel updates" in
  let info = Cmd.info "ksplice-tool" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ create_cmd; inspect_cmd; objdump_cmd; export_cmd; list_cves_cmd;
            demo_cmd; sweep_cmd; report_cmd; collapse_cmd; serve_cmd;
            sync_cmd; fsck_cmd; gc_cmd; trace_cmd; metrics_cmd ]))
