(* CVE walkthrough: hot-patch a real(istic) vulnerability while an
   exploit and a stress workload run against the kernel.

     dune exec examples/cve_walkthrough.exe [CVE-ID]

   Defaults to CVE-2007-4573, the assembly-file CVE (the ia32entry.S
   analogue): a patch to a pure assembly unit is handled by exactly the
   same machinery as C patches (paper §6.3). *)

module Apply = Ksplice.Apply
module Create = Ksplice.Create

let () =
  let id = if Array.length Sys.argv > 1 then Sys.argv.(1) else "CVE-2007-4573" in
  let cve =
    match Corpus.Cve.find id with
    | Some c -> c
    | None -> failwith ("unknown CVE " ^ id ^ " (see ksplice-tool list-cves)")
  in
  Printf.printf "== %s ==\n%s\n\n" cve.id cve.desc;

  (* a sacrificial kernel proves the bug is real *)
  (match Corpus.Exploits.find cve.id with
   | Some e ->
     let victim = Corpus.Boot.boot () in
     let r = e.run victim in
     Printf.printf "exploit on an unpatched kernel: %s (%s)\n\n"
       (if r.succeeded then "succeeds" else "fails")
       r.detail
   | None -> Printf.printf "(no exploit bundled for this CVE)\n\n");

  (* the production kernel: boot, start background load *)
  let b = Corpus.Boot.boot () in
  Printf.printf "production kernel booted; console: %S\n"
    (Kernel.Machine.console b.machine);

  let base = Corpus.Base_kernel.tree () in
  let patch = Corpus.Cve.hot_patch cve base in
  Printf.printf "patch touches: %s (%d lines)\n"
    (String.concat ", " (Patchfmt.Diff.changed_files patch))
    (Patchfmt.Diff.stats patch).changed;

  let { Create.update; _ } =
    match
      Create.create
        { source = base; patch; update_id = cve.id; description = cve.desc }
    with
    | Ok c -> c
    | Error e -> Format.kasprintf failwith "create: %a" Create.pp_error e
  in
  Printf.printf "update built: %d replaced function(s), %d helper unit(s)\n"
    (List.length update.replaced_functions)
    (List.length update.helpers);

  (* apply while user threads hammer syscalls: the stress threads always
     have syscall_entry on their stacks, so a stop_machine apply could
     never find the kernel quiescent; the per-thread transition migrates
     each thread at its next safe point instead *)
  let mgr = Apply.init b.machine in
  let report =
    Corpus.Stress.run b ~threads:3 ~iterations:20 ~during:(fun () ->
        match Apply.apply ~engage:(Manager.Transition.engage ()) mgr update with
        | Ok a ->
          Printf.printf
            "update applied mid-workload (simulated pause %.3f ms)\n"
            (float_of_int a.pause_ns /. 1e6)
        | Error e -> Format.kasprintf failwith "apply: %a" Apply.pp_error e)
  in
  Printf.printf "stress workload across the update: %s\n"
    (if report.ok then "no corruption detected"
     else "FAILED: " ^ String.concat "; " report.failures);

  (match Corpus.Exploits.find cve.id with
   | Some e ->
     let r = e.run b in
     Printf.printf "exploit on the patched kernel: %s (%s)\n"
       (if r.succeeded then "STILL SUCCEEDS" else "blocked")
       r.detail
   | None -> ());
  print_endline "done."
