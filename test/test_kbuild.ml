(* Build-system tests: determinism (the property run-pre matching's §4.3
   compiler-version discussion relies on), incremental caching, and
   build metadata. *)

module Tree = Patchfmt.Source_tree

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f

let tree1 =
  Tree.of_list
    [
      ("a.c", "int x = 1;\nint get_x() { return x; }\n");
      ("b.c", "int helper(int v) { return v * 2; }\n");
      ("e.s", ".text\n.global stub\nstub:\n  ret\n");
      ("README", "not source\n");
    ]

let test_builds_only_sources () =
  let b = Fixture.build ~options:Minic.Driver.run_build tree1 in
  check
    (Alcotest.list Alcotest.string)
    "units" [ "a.c"; "b.c"; "e.s" ]
    (List.map (fun (u : Kbuild.unit_build) -> u.source_name) b.units)

let test_determinism () =
  (* identical source + options => byte-identical objects *)
  let obj_bytes tree =
    let b = Fixture.build ~options:Minic.Driver.pre_build tree in
    List.map (fun o -> Bytes.to_string (Objfile.to_bytes o)) (Kbuild.objects b)
  in
  check
    (Alcotest.list Alcotest.string)
    "bitwise reproducible" (obj_bytes tree1) (obj_bytes tree1)

let test_cache_physical_reuse () =
  (* unchanged units are the same compiled artifact across builds *)
  let b1 = Fixture.build ~options:Minic.Driver.run_build tree1 in
  let tree2 = Tree.add tree1 "a.c" "int x = 2;\nint get_x() { return x; }\n" in
  let b2 = Fixture.build ~options:Minic.Driver.run_build tree2 in
  let find b n = Option.get (Kbuild.find_unit b n) in
  Alcotest.(check bool)
    "b.c reused physically" true
    (find b1 "b.c" == find b2 "b.c");
  Alcotest.(check bool)
    "a.c recompiled" true
    (not (find b1 "a.c" == find b2 "a.c"))

let test_options_invalidate_cache () =
  let run = Fixture.build ~options:Minic.Driver.run_build tree1 in
  let pre = Fixture.build ~options:Minic.Driver.pre_build tree1 in
  let sections b n =
    List.map
      (fun (s : Objfile.Section.t) -> s.name)
      (Option.get (Kbuild.find_unit b n)).obj.sections
  in
  Alcotest.(check bool)
    "different section layout per option set" true
    (sections run "a.c" <> sections pre "a.c")

let test_inline_metadata () =
  let tree =
    Tree.of_list
      [ ("m.c",
         "int base = 4;\nint get_base() { return base; }\n\
          int calc(int v) { return get_base() * v; }\n") ]
  in
  let b = Fixture.build ~options:Minic.Driver.run_build tree in
  check
    (Alcotest.list
       (Alcotest.triple Alcotest.string Alcotest.string Alcotest.string))
    "inline decisions surfaced"
    [ ("m.c", "calc", "get_base") ]
    (Kbuild.inlined_callees b)

let test_build_error_names_unit () =
  let bad = Tree.of_list [ ("broken.c", "int f( { return; }\n") ] in
  (* errors-as-data: the failure is a typed value naming the unit *)
  match Kbuild.build_tree ~options:Minic.Driver.run_build bad with
  | Ok _ -> Alcotest.fail "expected a typed build error"
  | Error (Kbuild.Unit_compile_failed { unit_name; reason }) ->
    Alcotest.(check string) "names the unit" "broken.c" unit_name;
    Alcotest.(check bool) "message names the unit" true
      (String.length reason >= 6 && String.sub reason 0 6 = "broken")
  | Error e -> Alcotest.failf "unexpected error: %a" Kbuild.pp_error e

let suite =
  [
    ( "kbuild",
      [
        t "builds only sources" test_builds_only_sources;
        t "determinism" test_determinism;
        t "cache reuse" test_cache_physical_reuse;
        t "options invalidate cache" test_options_invalidate_cache;
        t "inline metadata" test_inline_metadata;
        t "build error names unit" test_build_error_names_unit;
      ] );
  ]
