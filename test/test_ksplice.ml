(* Integration tests for the Ksplice core: the full paper pipeline on a
   miniature kernel. The running kernel is built distro-style (no function
   sections, aligned loops); updates are created with function sections —
   so every test also exercises run-pre matching across the §4.3
   object-code divergences (relocation holes, alignment no-ops). *)

module Tree = Patchfmt.Source_tree
module Diff = Patchfmt.Diff
module Image = Klink.Image
module Machine = Kernel.Machine
module Update = Ksplice.Update
module Create = Ksplice.Create
module Apply = Ksplice.Apply

let check = Alcotest.check
let int32_c = Alcotest.int32
let t name f = Alcotest.test_case name `Quick f

(* --- the miniature kernel --- *)

let main_c =
  {|
int config = 10;
static int debug = 1;
static int scale_impl(int x) {
  int r = x * 2;
  r = r + x;
  if (r > 1000) { r = 1000; }
  if (r < -1000) { r = -1000; }
  return r;
}
int get_config() { return config; }
int compute(int x) {
  int base = get_config();
  int acc = 0;
  int i;
  for (i = 0; i < x; i = i + 1)
    acc = acc + base;
  return acc + debug;
}
int dispatch(int x) { return compute(x) + scale_impl(0); }
|}

let util_c =
  {|
static int debug = 5;
static int scale_impl(int x) {
  int r = x * 7;
  r = r - x;
  if (r > 500) { r = 500; }
  if (r < -500) { r = -500; }
  return r;
}
int util_scale(int x) { return scale_impl(x) + debug; }
|}

let worker_c =
  {|
int work_done = 0;
void worker_loop() {
  while (1) {
    work_done = work_done + 1;
    __yield();
  }
}
int idle_probe() { return work_done; }
|}

let base_tree =
  Tree.of_list
    [ ("kernel/main.c", main_c); ("kernel/util.c", util_c);
      ("kernel/worker.c", worker_c) ]

let boot ?(tree = base_tree) () =
  let build = Fixture.build ~options:Minic.Driver.run_build tree in
  let img = Fixture.link ~base:0x100000 (Kbuild.objects build) in
  (img, Machine.create img)

let call m img fn args =
  let sym =
    match Image.lookup_global img fn with
    | Some s -> s
    | None -> Alcotest.failf "symbol %s not found" fn
  in
  match Machine.call_function m ~addr:sym.addr ~args with
  | Ok v -> v
  | Error f -> Alcotest.failf "%s faulted: %a" fn Machine.pp_fault f

let patch_of ~from ~to_ = Diff.diff_trees from to_

let edit tree path f =
  match Tree.find tree path with
  | Some c -> Tree.add tree path (f c)
  | None -> Alcotest.failf "no file %s" path

let replace_once ~old_s ~new_s s =
  let rec find i =
    if i + String.length old_s > String.length s then
      Alcotest.failf "pattern %S not found" old_s
    else if String.sub s i (String.length old_s) = old_s then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ new_s
  ^ String.sub s
      (i + String.length old_s)
      (String.length s - i - String.length old_s)

let mk_update ?(id = "test-update") ~from ~to_ () =
  match
    Create.create
      { source = from; patch = patch_of ~from ~to_; update_id = id;
        description = "test" }
  with
  | Ok c -> c
  | Error e -> Alcotest.failf "create failed: %a" Create.pp_error e

let apply_ok mgr update =
  match Apply.apply mgr update with
  | Ok a -> a
  | Error e -> Alcotest.failf "apply failed: %a" Apply.pp_error e

(* --- create-level tests --- *)

let test_create_simple () =
  let to_ =
    edit base_tree "kernel/main.c"
      (replace_once ~old_s:"return acc + debug;"
         ~new_s:"return acc + debug + 100;")
  in
  let { Create.update; diffs; _ } = mk_update ~from:base_tree ~to_ () in
  let d = List.hd diffs in
  check (Alcotest.list Alcotest.string) "only compute changed" [ "compute" ]
    d.changed_functions;
  check (Alcotest.list Alcotest.string) "replaced list"
    [ "compute" ]
    (List.map snd update.replaced_functions);
  Alcotest.(check int) "one helper" 1 (List.length update.helpers)

let test_create_inline_ripple () =
  (* patching get_config must also replace compute, where it is inlined
     (§4.2) — even though compute's source is untouched *)
  let to_ =
    edit base_tree "kernel/main.c"
      (replace_once ~old_s:"int get_config() { return config; }"
         ~new_s:"int get_config() { return config + 1; }")
  in
  let { Create.diffs; _ } = mk_update ~from:base_tree ~to_ () in
  let d = List.hd diffs in
  Alcotest.(check bool)
    "compute replaced due to inlining" true
    (List.mem "compute" d.changed_functions);
  Alcotest.(check bool)
    "get_config replaced" true
    (List.mem "get_config" d.changed_functions);
  Alcotest.(check bool)
    "dispatch untouched (not inlined there)" false
    (List.mem "dispatch" d.changed_functions)

let test_create_prototype_ripple () =
  (* §3.1: changing a parameter from int to char changes the callers'
     object code through implicit casting *)
  let tree =
    Tree.of_list
      [ ( "kernel/p.c",
          {|
int helper(int v) { int r = v; r = r * 2; r = r + v; r = r - 1; return r; }
int caller_a(int x) { return helper(x); }
int caller_b(int x) { return helper(x) * 2; }
|}
        ) ]
  in
  let to_ =
    edit tree "kernel/p.c"
      (replace_once ~old_s:"int helper(int v)" ~new_s:"int helper(char v)")
  in
  let { Create.diffs; _ } = mk_update ~from:tree ~to_ () in
  let d = List.hd diffs in
  (* helper's own body is unchanged under this ABI (parameters arrive in
     canonical 32-bit slots); the point of §3.1 is that the *callers*
     change even though their source did not *)
  Alcotest.(check bool) "caller_a changed via implicit cast" true
    (List.mem "caller_a" d.changed_functions);
  Alcotest.(check bool) "caller_b changed via implicit cast" true
    (List.mem "caller_b" d.changed_functions)

let test_create_no_changes () =
  (* comment-only patch: no object code difference *)
  let to_ =
    edit base_tree "kernel/main.c" (fun c -> "/* comment */\n" ^ c)
  in
  match
    Create.create
      { source = base_tree; patch = patch_of ~from:base_tree ~to_;
        update_id = "noop"; description = "" }
  with
  | Error Create.No_object_changes -> ()
  | Ok _ -> Alcotest.fail "expected No_object_changes"
  | Error e -> Alcotest.failf "unexpected error: %a" Create.pp_error e

let test_create_data_semantics_gate () =
  (* §2 / Table 1: changing a variable's initial value cannot be applied
     without custom code *)
  let to_ =
    edit base_tree "kernel/main.c"
      (replace_once ~old_s:"int config = 10;" ~new_s:"int config = 20;")
  in
  match
    Create.create
      { source = base_tree; patch = patch_of ~from:base_tree ~to_;
        update_id = "datachange"; description = "" }
  with
  | Error (Create.Data_semantics_changed [ ("kernel/main.c", "config") ]) -> ()
  | Error e -> Alcotest.failf "unexpected error: %a" Create.pp_error e
  | Ok _ -> Alcotest.fail "expected Data_semantics_changed"

let test_update_serialisation () =
  let to_ =
    edit base_tree "kernel/main.c"
      (replace_once ~old_s:"return acc + debug;"
         ~new_s:"return acc + debug + 100;")
  in
  let { Create.update; _ } = mk_update ~from:base_tree ~to_ () in
  let u' =
    Fixture.ok "decode" Update.pp_decode_error
      (Update.of_bytes (Update.to_bytes update))
  in
  check Alcotest.string "id" update.update_id u'.update_id;
  Alcotest.(check int) "helpers" (List.length update.helpers)
    (List.length u'.helpers);
  Alcotest.(check bool) "replaced functions equal" true
    (update.replaced_functions = u'.replaced_functions)

(* --- apply-level tests --- *)

let test_apply_and_undo () =
  let img, m = boot () in
  check int32_c "before" 31l (call m img "compute" [ 3l ]);
  let to_ =
    edit base_tree "kernel/main.c"
      (replace_once ~old_s:"return acc + debug;"
         ~new_s:"return acc + debug + 100;")
  in
  let { Create.update; _ } = mk_update ~from:base_tree ~to_ () in
  let mgr = Apply.init m in
  let a = apply_ok mgr update in
  check int32_c "after apply" 131l (call m img "compute" [ 3l ]);
  Alcotest.(check bool) "pause was simulated" true (a.pause_ns > 0);
  (match Apply.undo mgr "test-update" with
   | Ok () -> ()
   | Error e -> Alcotest.failf "undo failed: %a" Apply.pp_error e);
  check int32_c "after undo" 31l (call m img "compute" [ 3l ])

let test_apply_inline_ripple_behavior () =
  (* after patching get_config, compute (which inlined it) must change
     behaviour too; dispatch still calls the replaced compute through the
     trampoline *)
  let img, m = boot () in
  check int32_c "dispatch before" 31l (call m img "dispatch" [ 3l ]);
  let to_ =
    edit base_tree "kernel/main.c"
      (replace_once ~old_s:"int get_config() { return config; }"
         ~new_s:"int get_config() { return config + 1; }")
  in
  let { Create.update; _ } = mk_update ~from:base_tree ~to_ () in
  let mgr = Apply.init m in
  ignore (apply_ok mgr update : Apply.applied);
  (* base becomes 11: 3*11 + 1 = 34 *)
  check int32_c "dispatch after" 34l (call m img "dispatch" [ 3l ]);
  check int32_c "get_config after" 11l (call m img "get_config" [])

let test_apply_ambiguous_static () =
  (* main.c and util.c both define static scale_impl and static debug;
     run-pre matching must locate util.c's by content and resolve its
     debug by inference (§4.1, CVE-2005-4639 situation) *)
  let img, m = boot () in
  check int32_c "util_scale before" 17l (call m img "util_scale" [ 2l ]);
  let to_ =
    edit base_tree "kernel/util.c"
      (replace_once ~old_s:"return scale_impl(x) + debug;"
         ~new_s:"return scale_impl(x) + debug * 10;")
  in
  let { Create.update; _ } = mk_update ~from:base_tree ~to_ () in
  let mgr = Apply.init m in
  ignore (apply_ok mgr update : Apply.applied);
  (* 12 + 5*10: must use util.c's debug (5), not main.c's (1) *)
  check int32_c "util_scale after" 62l (call m img "util_scale" [ 2l ])

let test_apply_static_function_patch () =
  (* patch a static function that is ambiguous kernel-wide; candidate
     trial must pick the right body *)
  let img, m = boot () in
  let to_ =
    edit base_tree "kernel/util.c"
      (replace_once ~old_s:"int r = x * 7;" ~new_s:"int r = x * 9;")
  in
  let { Create.update; _ } = mk_update ~from:base_tree ~to_ () in
  let mgr = Apply.init m in
  ignore (apply_ok mgr update : Apply.applied);
  (* scale_impl(2) = 2*9-2 = 16, + debug 5 = 21 *)
  check int32_c "patched static" 21l (call m img "util_scale" [ 2l ]);
  (* main.c's scale_impl untouched: dispatch unchanged *)
  check int32_c "other unit unaffected" 31l (call m img "dispatch" [ 3l ])

let test_apply_mismatched_source_aborts () =
  (* §4.2's other danger: "original" source that does not correspond to
     the running kernel — run-pre matching must abort *)
  let img, m = boot () in
  ignore img;
  let wrong_base =
    edit base_tree "kernel/main.c"
      (replace_once ~old_s:"int acc = 0;" ~new_s:"int acc = 1;")
  in
  let to_ =
    edit wrong_base "kernel/main.c"
      (replace_once ~old_s:"return acc + debug;"
         ~new_s:"return acc + debug + 100;")
  in
  let { Create.update; _ } = mk_update ~from:wrong_base ~to_ () in
  let mgr = Apply.init m in
  match Apply.apply mgr update with
  | Error (Apply.Code_mismatch _) -> ()
  | Error (Apply.Ambiguous_symbol (_, _, 0)) -> ()
  | Ok _ -> Alcotest.fail "expected run-pre abort"
  | Error e -> Alcotest.failf "unexpected error: %a" Apply.pp_error e

let test_apply_non_quiescent_aborts () =
  (* §5.2: a function always on some thread's call stack cannot be
     patched; ksplice must retry and then abandon *)
  let img, m = boot () in
  let entry = (Option.get (Image.lookup_global img "worker_loop")).addr in
  ignore (Machine.spawn m ~name:"kworker" ~uid:0 ~entry ~args:[]);
  ignore (Machine.run m ~steps:500 : int);
  let to_ =
    edit base_tree "kernel/worker.c"
      (replace_once ~old_s:"work_done = work_done + 1;"
         ~new_s:"work_done = work_done + 2;")
  in
  let { Create.update; _ } = mk_update ~from:base_tree ~to_ () in
  let mgr = Apply.init m in
  match Apply.apply mgr update with
  | Error (Apply.Not_quiescent nq) ->
    Alcotest.(check bool) "names worker_loop" true
      (List.exists
         (fun f -> fst (Update.split_canonical f) = "worker_loop")
         nq.Apply.nq_functions);
    Alcotest.(check bool) "made several attempts" true (nq.nq_attempts >= 2);
    Alcotest.(check bool) "identifies a blocking thread" true
      (List.exists
         (fun (who, _) ->
           (* the spinning kworker thread *)
           let needle = "kworker" in
           let n = String.length needle in
           let rec has i =
             i + n <= String.length who
             && (String.sub who i n = needle || has (i + 1))
           in
           has 0)
         nq.nq_blockers)
  | Ok _ -> Alcotest.fail "expected Not_quiescent"
  | Error e -> Alcotest.failf "unexpected error: %a" Apply.pp_error e

let test_apply_quiesces_transient_use () =
  (* a thread merely passing through the function quiesces after a retry *)
  let img, m = boot () in
  let entry = (Option.get (Image.lookup_global img "compute")).addr in
  (* park a thread mid-compute by running a few instructions only *)
  ignore (Machine.spawn m ~name:"transient" ~uid:0 ~entry ~args:[ 100l ]);
  ignore (Machine.run m ~steps:10 : int);
  let to_ =
    edit base_tree "kernel/main.c"
      (replace_once ~old_s:"return acc + debug;"
         ~new_s:"return acc + debug + 100;")
  in
  let { Create.update; _ } = mk_update ~from:base_tree ~to_ () in
  let mgr = Apply.init m in
  ignore (apply_ok mgr update : Apply.applied);
  check int32_c "applied after retry" 131l (call m img "compute" [ 3l ])

let test_stacked_updates () =
  (* §5.4: patch a previously-patched kernel; the second update's pre code
     is matched against the first update's replacement code *)
  let img, m = boot () in
  let mgr = Apply.init m in
  let tree1 =
    edit base_tree "kernel/main.c"
      (replace_once ~old_s:"return acc + debug;"
         ~new_s:"return acc + debug + 100;")
  in
  let { Create.update = u1; _ } =
    mk_update ~id:"update-1" ~from:base_tree ~to_:tree1 ()
  in
  ignore (apply_ok mgr u1 : Apply.applied);
  check int32_c "first update" 131l (call m img "compute" [ 3l ]);
  (* the second patch is a diff against the previously-patched source *)
  let tree2 =
    edit tree1 "kernel/main.c"
      (replace_once ~old_s:"return acc + debug + 100;"
         ~new_s:"return acc + debug + 1000;")
  in
  let { Create.update = u2; _ } =
    mk_update ~id:"update-2" ~from:tree1 ~to_:tree2 ()
  in
  ignore (apply_ok mgr u2 : Apply.applied);
  check int32_c "second update" 1031l (call m img "compute" [ 3l ]);
  (* undo restores the first update's behaviour *)
  (match Apply.undo mgr "update-2" with
   | Ok () -> ()
   | Error e -> Alcotest.failf "undo: %a" Apply.pp_error e);
  check int32_c "back to first" 131l (call m img "compute" [ 3l ])

let test_undo_discipline () =
  let img, m = boot () in
  ignore img;
  let mgr = Apply.init m in
  (match Apply.undo mgr "nothing" with
   | Error (Apply.Not_applied _) -> ()
   | _ -> Alcotest.fail "expected Not_applied");
  let tree1 =
    edit base_tree "kernel/main.c"
      (replace_once ~old_s:"return acc + debug;"
         ~new_s:"return acc + debug + 100;")
  in
  let { Create.update = u1; _ } =
    mk_update ~id:"u1" ~from:base_tree ~to_:tree1 ()
  in
  ignore (apply_ok mgr u1 : Apply.applied);
  (match Apply.apply mgr u1 with
   | Error (Apply.Already_applied _) -> ()
   | _ -> Alcotest.fail "expected Already_applied");
  let tree2 =
    edit tree1 "kernel/util.c"
      (replace_once ~old_s:"int r = x * 7;" ~new_s:"int r = x * 8;")
  in
  let { Create.update = u2; _ } = mk_update ~id:"u2" ~from:tree1 ~to_:tree2 () in
  ignore (apply_ok mgr u2 : Apply.applied);
  match Apply.undo mgr "u1" with
  | Error (Apply.Not_topmost _) -> ()
  | _ -> Alcotest.fail "expected Not_topmost"

let test_hooks_and_custom_code () =
  (* §5.3: a patch with custom code run at apply time; the hook fixes up
     existing state (the "changes data init" Table 1 pattern) *)
  let img, m = boot () in
  let mgr = Apply.init m in
  let to_ =
    base_tree
    |> (fun t ->
         edit t "kernel/main.c"
           (replace_once ~old_s:"int config = 10;" ~new_s:"int config = 20;"))
    |> fun t ->
    edit t "kernel/main.c" (fun c ->
        c
        ^ {|
void fix_existing_config() { config = 20; }
ksplice_apply(fix_existing_config);
|})
  in
  let { Create.update; _ } =
    mk_update ~id:"hooked" ~from:base_tree ~to_ ()
  in
  ignore (apply_ok mgr update : Apply.applied);
  (* the hook rewrote the live variable *)
  check int32_c "hook fixed existing data" 20l (call m img "get_config" [])

let test_new_static_data () =
  (* a patch introducing a new static variable: it must live in the
     primary module, not resolve to anything pre-existing *)
  let img, m = boot () in
  let mgr = Apply.init m in
  let to_ =
    edit base_tree "kernel/util.c" (fun c ->
        replace_once
          ~old_s:"int util_scale(int x) { return scale_impl(x) + debug; }"
          ~new_s:
            {|static int call_count = 3;
int util_scale(int x) { call_count = call_count + 1; return scale_impl(x) + debug + call_count; }|}
          c)
  in
  let { Create.update; _ } =
    mk_update ~id:"newdata" ~from:base_tree ~to_ ()
  in
  ignore (apply_ok mgr update : Apply.applied);
  (* first call: count 4 -> 12 + 5 + 4 *)
  check int32_c "new static data first" 21l (call m img "util_scale" [ 2l ]);
  check int32_c "new static data second" 22l (call m img "util_scale" [ 2l ])

let test_trampoline_size_accounting () =
  (* an applied update records saved bytes for each replaced function *)
  let img, m = boot () in
  ignore img;
  let mgr = Apply.init m in
  let to_ =
    edit base_tree "kernel/main.c"
      (replace_once ~old_s:"return acc + debug;"
         ~new_s:"return acc + debug + 100;")
  in
  let { Create.update; _ } = mk_update ~from:base_tree ~to_ () in
  let a = apply_ok mgr update in
  Alcotest.(check int) "one trampoline" 1 (List.length a.saved);
  List.iter
    (fun (_, b) -> Alcotest.(check int) "5 bytes saved" 5 (Bytes.length b))
    a.saved;
  List.iter
    (fun (r : Apply.replacement) ->
      Alcotest.(check bool) "old below module area" true
        (r.r_old_addr < r.r_new_addr))
    a.replacements

let suite =
  [
    ( "ksplice",
      [
        t "create: simple patch" test_create_simple;
        t "create: inline ripple" test_create_inline_ripple;
        t "create: prototype ripple" test_create_prototype_ripple;
        t "create: no object changes" test_create_no_changes;
        t "create: data semantics gate" test_create_data_semantics_gate;
        t "update serialisation" test_update_serialisation;
        t "apply and undo" test_apply_and_undo;
        t "apply: inline ripple behaviour" test_apply_inline_ripple_behavior;
        t "apply: ambiguous static data" test_apply_ambiguous_static;
        t "apply: ambiguous static function" test_apply_static_function_patch;
        t "apply: mismatched source aborts" test_apply_mismatched_source_aborts;
        t "apply: non-quiescent aborts" test_apply_non_quiescent_aborts;
        t "apply: transient use quiesces" test_apply_quiesces_transient_use;
        t "stacked updates" test_stacked_updates;
        t "undo discipline" test_undo_discipline;
        t "custom code hooks" test_hooks_and_custom_code;
        t "new static data" test_new_static_data;
        t "trampoline accounting" test_trampoline_size_accounting;
      ] );
  ]
