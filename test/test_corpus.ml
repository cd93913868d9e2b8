(* Corpus tests: the synthetic kernel boots and behaves, all 64 CVE
   patches compile and convert into updates, the four exploits work
   before and stop working after their updates, and the stress workload
   detects no corruption across applies. *)

module Tree = Patchfmt.Source_tree
module Diff = Patchfmt.Diff
module Machine = Kernel.Machine
module Create = Ksplice.Create
module Apply = Ksplice.Apply

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f
let base () = Corpus.Base_kernel.tree ()

let create_update ?(hot = true) (cve : Corpus.Cve.t) =
  let b = base () in
  let patch =
    if hot then Corpus.Cve.hot_patch cve b else Corpus.Cve.mainline_patch cve b
  in
  Create.create
    { source = b; patch; update_id = cve.id; description = cve.desc }

let created_update (cve : Corpus.Cve.t) =
  (Fixture.ok (cve.id ^ ": create failed") Create.pp_error (create_update cve))
    .update

let test_boot () =
  let b = Corpus.Boot.boot () in
  check Alcotest.int32 "boot token planted" Corpus.Boot.secret
    (Fixture.read_global b "boot_token");
  check Alcotest.int32 "boot_done" 1l (Fixture.read_global b "boot_done");
  match Corpus.Boot.syscall b ~uid:1000 0 [] with
  | Ok 1l -> ()
  | Ok v -> Alcotest.failf "getpid returned %ld" v
  | Error f -> Alcotest.failf "getpid faulted: %a" Machine.pp_fault f

let test_syscall_bounds () =
  let b = Corpus.Boot.boot () in
  (* out-of-range positive numbers are rejected by the entry path *)
  match Corpus.Boot.syscall b ~uid:1000 99 [] with
  | Ok (-1l) -> ()
  | Ok v -> Alcotest.failf "expected -1, got %ld" v
  | Error f -> Alcotest.failf "faulted: %a" Machine.pp_fault f

let test_corpus_size () =
  Alcotest.(check int) "64 CVEs" 64 (List.length Corpus.Cve.all);
  let customs =
    List.filter (fun (c : Corpus.Cve.t) -> c.custom <> None) Corpus.Cve.all
  in
  Alcotest.(check int) "8 custom-code CVEs" 8 (List.length customs);
  let field =
    List.filter
      (fun (c : Corpus.Cve.t) ->
        match c.custom with
        | Some (Corpus.Cve.Adds_struct_field, _) -> true
        | _ -> false)
      Corpus.Cve.all
  in
  Alcotest.(check int) "1 adds-struct-field CVE" 1 (List.length field);
  let ids = List.map (fun (c : Corpus.Cve.t) -> c.id) Corpus.Cve.all in
  Alcotest.(check int) "ids unique" 64 (List.length (List.sort_uniq compare ids))

let test_all_fixed_trees_compile () =
  let b = base () in
  List.iter
    (fun (cve : Corpus.Cve.t) ->
      match Diff.apply (Corpus.Cve.hot_patch cve b) b with
      | Error e -> Alcotest.failf "%s: hot patch does not apply: %s" cve.id e
      | Ok tree -> (
        match Kbuild.build_tree ~options:Minic.Driver.pre_build tree with
        | Ok _ -> ()
        | Error e ->
          Alcotest.failf "%s: fixed tree does not build: %a" cve.id
            Kbuild.pp_error e))
    Corpus.Cve.all

let test_all_patches_create () =
  List.iter
    (fun (cve : Corpus.Cve.t) ->
      match create_update cve with
      | Ok c ->
        Alcotest.(check bool)
          (cve.id ^ ": replaces at least one function")
          true
          (c.update.replaced_functions <> []
           || List.exists
                (fun (d : Ksplice.Prepost.unit_diff) -> d.new_functions <> [])
                c.diffs)
      | Error e ->
        Alcotest.failf "%s: create failed: %a" cve.id Create.pp_error e)
    Corpus.Cve.all

let test_data_gate_without_custom () =
  (* the declaration-initializer Table-1 entries must be refused when the
     custom code is stripped from the patch *)
  List.iter
    (fun id ->
      let cve = Option.get (Corpus.Cve.find id) in
      match create_update ~hot:false cve with
      | Error (Create.Data_semantics_changed _) -> ()
      | Ok _ -> Alcotest.failf "%s: expected the data-semantics gate" id
      | Error e -> Alcotest.failf "%s: unexpected error: %a" id Create.pp_error e)
    [ "CVE-2007-3851"; "CVE-2006-5753" ]

let apply_cve b (cve : Corpus.Cve.t) =
  let update = created_update cve in
  let mgr = Apply.init b.Corpus.Boot.machine in
  match Apply.apply mgr update with
  | Ok a -> (mgr, a)
  | Error e -> Alcotest.failf "%s: apply failed: %a" cve.id Apply.pp_error e

let test_exploits_before_after () =
  List.iter
    (fun (e : Corpus.Exploits.t) ->
      let cve =
        match Corpus.Cve.find e.cve_id with
        | Some c -> c
        | None -> Alcotest.failf "no CVE %s" e.cve_id
      in
      (* fresh kernel: exploit must succeed *)
      let b = Corpus.Boot.boot () in
      let before = e.run b in
      Alcotest.(check bool)
        (e.cve_id ^ " exploitable before update (" ^ before.detail ^ ")")
        true before.succeeded;
      (* separate fresh kernel: apply, then the exploit must fail *)
      let b2 = Corpus.Boot.boot () in
      let _mgr, _ = apply_cve b2 cve in
      let after = e.run b2 in
      Alcotest.(check bool)
        (e.cve_id ^ " blocked after update (" ^ after.detail ^ ")")
        false after.succeeded)
    Corpus.Exploits.all

let test_exploit_returns_after_undo () =
  let e = Option.get (Corpus.Exploits.find "CVE-2006-2451") in
  let cve = Option.get (Corpus.Cve.find "CVE-2006-2451") in
  let b = Corpus.Boot.boot () in
  let mgr, _ = apply_cve b cve in
  Alcotest.(check bool) "blocked while applied" false (e.run b).succeeded;
  (match Apply.undo mgr cve.id with
   | Ok () -> ()
   | Error err -> Alcotest.failf "undo failed: %a" Apply.pp_error err);
  Alcotest.(check bool) "exploitable again after undo" true (e.run b).succeeded

(* §2's "a few cycles" per call, counted: on twin patched kernels, a
   call entering the obsolete function retires exactly one instruction
   (the trampoline's jmp) more than the same call entering the
   replacement code directly *)
let test_trampoline_costs_one_instruction () =
  List.iter
    (fun id ->
      let cve = Option.get (Corpus.Cve.find id) in
      let calls entry =
        let b = Corpus.Boot.boot () in
        let _, a = apply_cve b cve in
        List.map
          (fun (r : Apply.replacement) ->
            let m = b.machine in
            let before = Machine.instructions_retired m in
            let ret =
              Fixture.ok (id ^ " " ^ r.r_fn) Machine.pp_fault
                (Machine.call_function m ~addr:(entry r) ~args:[ 0l; 0l ])
            in
            (r.r_fn, ret, Machine.instructions_retired m - before))
          a.replacements
      in
      let via_old = calls (fun r -> r.r_old_addr) in
      let via_new = calls (fun r -> r.r_new_addr) in
      check Alcotest.bool (id ^ " replaces a function") true (via_new <> []);
      List.iter2
        (fun (fn, ret_old, n_old) (_, ret_new, n_new) ->
          check Alcotest.int32 (id ^ " " ^ fn ^ " same result") ret_new ret_old;
          check Alcotest.int
            (id ^ " " ^ fn ^ " retires one more via the trampoline")
            (n_new + 1) n_old)
        via_old via_new)
    [ "CVE-2007-4573"; "CVE-2006-2451"; "CVE-2008-0600"; "CVE-2006-3626" ]

let test_stress_clean () =
  let b = Corpus.Boot.boot () in
  let r = Corpus.Stress.run b in
  if not r.ok then
    Alcotest.failf "stress failed: %s" (String.concat "; " r.failures)

let test_stress_across_update () =
  (* apply a hot update while the stress workload is mid-flight *)
  let b = Corpus.Boot.boot () in
  let cve = Option.get (Corpus.Cve.find "CVE-2006-2451") in
  let update = created_update cve in
  let mgr = Apply.init b.machine in
  let applied = ref false in
  let r =
    Corpus.Stress.run b ~during:(fun () ->
        match Apply.apply mgr update with
        | Ok _ -> applied := true
        | Error e -> Alcotest.failf "mid-flight apply failed: %a" Apply.pp_error e)
  in
  Alcotest.(check bool) "update applied under load" true !applied;
  if not r.ok then
    Alcotest.failf "stress failed across update: %s"
      (String.concat "; " r.failures)

let test_custom_quota_fixup () =
  let b = Corpus.Boot.boot () in
  let cve = Option.get (Corpus.Cve.find "CVE-2008-0007") in
  check Alcotest.int32 "uid0 quota before" 1024l
    (Fixture.read_global b "quota_table");
  let _ = apply_cve b cve in
  (* the ksplice_apply hook rewrote the live table entry *)
  check Alcotest.int32 "uid0 quota fixed by hook" 4096l
    (Fixture.read_global b "quota_table")

let test_custom_tz_fixup () =
  let b = Corpus.Boot.boot () in
  let cve = Option.get (Corpus.Cve.find "CVE-2007-3851") in
  check Alcotest.int32 "tz before" 0l (Fixture.read_global b "tz_minutes");
  let _ = apply_cve b cve in
  check Alcotest.int32 "tz fixed" 60l (Fixture.read_global b "tz_minutes")

let test_shadow_struct_field () =
  (* CVE-2005-2709: the peer-uid field added via shadow data structures *)
  let b = Corpus.Boot.boot () in
  let cve = Option.get (Corpus.Cve.find "CVE-2005-2709") in
  let mgr, _ = apply_cve b cve in
  (* set then read the shadow peer uid through the new socket options *)
  (match Corpus.Boot.syscall b ~uid:0 16 [ 2l; 4l; 42l ] with
   | Ok 0l -> ()
   | Ok v -> Alcotest.failf "set peer returned %ld" v
   | Error f -> Alcotest.failf "set peer faulted: %a" Machine.pp_fault f);
  (match Corpus.Boot.syscall b ~uid:0 16 [ 2l; 5l; 0l ] with
   | Ok 42l -> ()
   | Ok v -> Alcotest.failf "get peer returned %ld" v
   | Error f -> Alcotest.failf "get peer faulted: %a" Machine.pp_fault f);
  (* undo detaches the shadows and restores the old code *)
  (match Apply.undo mgr cve.id with
   | Ok () -> ()
   | Error e -> Alcotest.failf "undo failed: %a" Apply.pp_error e);
  match Corpus.Boot.syscall b ~uid:0 16 [ 2l; 4l; 7l ] with
  | Ok (-1l) -> ()
  | Ok v -> Alcotest.failf "old code should reject op 4, got %ld" v
  | Error f -> Alcotest.failf "faulted after undo: %a" Machine.pp_fault f

let test_patch_size_distribution () =
  let b = base () in
  let sizes =
    List.map
      (fun (cve : Corpus.Cve.t) ->
        (Diff.stats (Corpus.Cve.mainline_patch cve b)).changed)
      Corpus.Cve.all
  in
  let le n = List.length (List.filter (fun s -> s <= n) sizes) in
  (* Figure 3's shape: strongly left-skewed *)
  Alcotest.(check bool) "at least 30 patches <= 5 lines" true (le 5 >= 30);
  Alcotest.(check bool) "at least 48 patches <= 15 lines" true (le 15 >= 48);
  Alcotest.(check bool) "at least one patch > 80 lines" true
    (List.exists (fun s -> s > 80) sizes)

let test_custom_code_lines () =
  List.iter
    (fun (cve : Corpus.Cve.t) ->
      match cve.custom with
      | None ->
        Alcotest.(check int) (cve.id ^ " no custom code") 0
          (Corpus.Cve.custom_code_lines cve)
      | Some _ ->
        Alcotest.(check bool)
          (cve.id ^ " custom code measured")
          true
          (Corpus.Cve.custom_code_lines cve > 0))
    Corpus.Cve.all

let test_full_sweep () =
  (* the §6.3 headline: every CVE's hot patch applies to a freshly booted
     kernel and the stress workload still passes *)
  List.iter
    (fun (cve : Corpus.Cve.t) ->
      let b = Corpus.Boot.boot () in
      let mgr, _ = apply_cve b cve in
      let r = Corpus.Stress.run b ~threads:2 ~iterations:10 in
      if not r.ok then
        Alcotest.failf "%s: stress failed after apply: %s" cve.id
          (String.concat "; " r.failures);
      match Apply.verify mgr with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: verify: %a" cve.id Apply.pp_error e)
    Corpus.Cve.all

let test_cross_version_rejection () =
  (* §4.2's "original source that does not correspond to the running
     kernel": an update built against the 2005 base must refuse to apply
     on the 2008 release, whose code already incorporates that fix *)
  let versions = Corpus.Versions.all () in
  let newest = List.nth versions 3 in
  let b = Corpus.Boot.boot ~tree:newest.tree () in
  let rejected = ref 0 and accepted = ref [] in
  List.iter
    (fun id ->
      let cve = Option.get (Corpus.Cve.find id) in
      let update = created_update cve in
      let mgr = Apply.init b.machine in
      match Apply.apply mgr update with
      | Error (Apply.Code_mismatch _ | Apply.Ambiguous_symbol _) ->
        incr rejected
      | Error e ->
        Alcotest.failf "%s: unexpected error class: %a" id Apply.pp_error e
      | Ok _ -> accepted := id :: !accepted)
    [ "CVE-2005-3110"; "CVE-2005-3111"; "CVE-2006-2451"; "CVE-2006-3136";
      "CVE-2007-3139" ];
  Alcotest.(check (list string))
    "no base-built update silently applies to the newer kernel" []
    !accepted;
  Alcotest.(check int) "all rejected" 5 !rejected;
  (* and the kernel still works afterwards: the aborts were safe *)
  let r = Corpus.Stress.run b ~threads:2 ~iterations:8 in
  if not r.ok then
    Alcotest.failf "stress after rejected applies: %s"
      (String.concat "; " r.failures)

let test_release_line () =
  let versions = Corpus.Versions.all () in
  Alcotest.(check int) "four releases" 4 (List.length versions);
  (* monotonically fewer applicable CVEs *)
  let counts =
    List.map (fun v -> List.length (Corpus.Versions.applicable v)) versions
  in
  Alcotest.(check bool) "monotone decreasing" true
    (List.sort (fun a b -> compare b a) counts = counts);
  Alcotest.(check int) "oldest needs all" 64 (List.hd counts);
  (* every release boots and passes stress *)
  List.iter
    (fun (v : Corpus.Versions.t) ->
      let b = Corpus.Boot.boot ~tree:v.tree () in
      let r = Corpus.Stress.run b ~threads:2 ~iterations:8 in
      if not r.ok then
        Alcotest.failf "%s: stress failed: %s" v.name
          (String.concat "; " r.failures))
    versions

let test_release_patch_applies () =
  (* a 2008-era CVE still applies to the newest release and hot-patches
     it; a 2005-era one no longer applies there *)
  let versions = Corpus.Versions.all () in
  let newest = List.nth versions 3 in
  let old_cve = Option.get (Corpus.Cve.find "CVE-2005-3110") in
  Alcotest.(check bool) "2005 fix already shipped" false
    (Corpus.Cve.applies_to old_cve newest.tree);
  let new_cve = Option.get (Corpus.Cve.find "CVE-2008-0600") in
  match Corpus.Versions.hot_patch new_cve newest with
  | None -> Alcotest.fail "2008 CVE should apply to the newest release"
  | Some patch -> (
    match
      Create.create
        { source = newest.tree; patch; update_id = new_cve.id;
          description = "" }
    with
    | Error e -> Alcotest.failf "create: %a" Create.pp_error e
    | Ok { update; _ } -> (
      let b = Corpus.Boot.boot ~tree:newest.tree () in
      let mgr = Apply.init b.machine in
      match Apply.apply mgr update with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "apply on release: %a" Apply.pp_error e))

let suite =
  [
    ( "corpus",
      [
        t "kernel boots" test_boot;
        t "syscall bounds" test_syscall_bounds;
        t "corpus size and shape" test_corpus_size;
        t "all fixed trees compile" test_all_fixed_trees_compile;
        t "all patches create updates" test_all_patches_create;
        t "data gate without custom code" test_data_gate_without_custom;
        t "exploits before/after" test_exploits_before_after;
        t "exploit returns after undo" test_exploit_returns_after_undo;
        t "trampoline costs one instruction per call"
          test_trampoline_costs_one_instruction;
        t "stress on clean kernel" test_stress_clean;
        t "stress across update" test_stress_across_update;
        t "custom quota fixup" test_custom_quota_fixup;
        t "custom tz fixup" test_custom_tz_fixup;
        t "shadow struct field" test_shadow_struct_field;
        t "patch size distribution" test_patch_size_distribution;
        t "custom code lines" test_custom_code_lines;
        t "cross-version rejection" test_cross_version_rejection;
        t "release line" test_release_line;
        t "release patch applies" test_release_patch_applies;
        Alcotest.test_case "full 64-CVE sweep" `Slow test_full_sweep;
      ] );
  ]
