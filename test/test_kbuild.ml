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

(* The cache key reads the digest the tree stored for the file: a unit
   misses exactly when its contents are new, whatever happened to the
   path before. *)
let test_cache_follows_contents () =
  let build tree = Fixture.build ~options:Minic.Driver.run_build tree in
  let find b n = Option.get (Kbuild.find_unit b n) in
  let misses () = (Kbuild.cache_stats ()).misses in
  let same_units b1 b2 =
    List.for_all2 ( == ) b1.Kbuild.units b2.Kbuild.units
  in
  let b1 = build tree1 in
  let key =
    Digest.to_hex (Digest.string (Option.get (Tree.find tree1 "a.c")))
    ^ "|a.c|fs=false;al=true"
  in
  check Alcotest.bool "key: source digest, path, options" true
    (List.mem_assoc key (Store.refs (Kbuild.store ())));
  let m0 = misses () in
  let edited =
    Tree.add tree1 "a.c" "int x = 1;\nint get_x() { return x + 25; }\n"
  in
  let b2 = build edited in
  check Alcotest.int "new contents: one miss" (m0 + 1) (misses ());
  check Alcotest.bool "new contents: new artifact" false
    (find b1 "a.c" == find b2 "a.c");
  List.iter
    (fun n ->
      check Alcotest.bool (n ^ " is the same artifact") true
        (find b1 n == find b2 n))
    [ "b.c"; "e.s" ];
  let restored =
    Tree.add edited "a.c" (Option.get (Tree.find tree1 "a.c"))
  in
  let b3 = build restored in
  check Alcotest.int "old contents again: a hit" (m0 + 1) (misses ());
  check Alcotest.bool "old contents again: the first artifacts" true
    (same_units b1 b3);
  let readded =
    Tree.add (Tree.remove tree1 "b.c") "b.c"
      (Option.get (Tree.find tree1 "b.c"))
  in
  let b4 = build readded in
  check Alcotest.int "remove then add identical: a hit" (m0 + 1) (misses ());
  check Alcotest.bool "remove then add identical: the first artifacts" true
    (same_units b1 b4)

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
        t "cache follows contents" test_cache_follows_contents;
        t "options invalidate cache" test_options_invalidate_cache;
        t "inline metadata" test_inline_metadata;
        t "build error names unit" test_build_error_names_unit;
      ] );
  ]
