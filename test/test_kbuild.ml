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

(* The MD5 of every object of the base kernel's pre and run builds. A
   change to the front end, the code generator or the assembler that
   moves one byte of the toolchain's output fails here, naming the
   unit. *)
let golden_pre =
  [
    ("kernel/audit.c", "378e122cae631b2e57734a8abd9ed3b9");
    ("kernel/banner.c", "d1137fde795a2588799b80172baff1c7");
    ("kernel/counters.c", "332474b613b1ea46b29d8a65c1db0bd9");
    ("kernel/creds.c", "29c50c54fe7dd1438af3afffd78a4b67");
    ("kernel/dst.c", "7983bd0da46e8c838135919fca1a75f5");
    ("kernel/dst_ca.c", "4f693d00aaa370c1a8fdba7244430f46");
    ("kernel/entry.s", "b5c354aba70b40a4be188efccc08aa95");
    ("kernel/fs.c", "a1207861e1b08230a8348fab39570cb6");
    ("kernel/init.c", "d795332c37e8a107fd13c56731c64a9e");
    ("kernel/ipc.c", "80e7e21bd0dfebc19a4784cd0d91df23");
    ("kernel/keyring.c", "3d4334c752ce5bff8bfc03fb24aebde3");
    ("kernel/log.c", "c466eb7866c50c2a61c7ffb2f2d2bd49");
    ("kernel/misc.c", "1bfe2d27ebc6d30b5deaf02f79897ea6");
    ("kernel/mm.c", "ad9913e9c7e4d4e902c52b20f1ca75a2");
    ("kernel/net.c", "d1fb38cf1062efbecde0ea45ec6a49b8");
    ("kernel/pipe.c", "1b2b9e3257ccd08d446615ba5b36e467");
    ("kernel/proc.c", "405152896ec575fa1a7231bcf5619386");
    ("kernel/quota.c", "ec21ea5cdd154b73931caa8da2f0e738");
    ("kernel/random.c", "b86010ac1831389cdb6b6c9eb1d44387");
    ("kernel/sched.c", "770726396a887ae94151319f3b8e6c01");
    ("kernel/signal.c", "cb9d9f732b99c5d013ebd62b6337ba74");
    ("kernel/sock.c", "a3b4d2b0e4fc83ef77f74e9eb7bece92");
    ("kernel/time.c", "81aaa43ebb4336dbba3d53b54ad74580");
    ("kernel/tty.c", "6c103e0b1d5a5a0e6ca5883e5ad38c41");
    ("kernel/usb.c", "fb6b463f66b5ed3e9e10819454f6585a");
    ("kernel/video.c", "f29154112dea750f5c3789f5be2e9ccb");
    ("kernel/xattr.c", "ae9c54f74792bd20501f181a9c14aca5");
  ]

let golden_run =
  [
    ("kernel/audit.c", "6f65d7f52ff43619607b5ec6e063dd41");
    ("kernel/banner.c", "ff507a77c9d01d21b335ac834e0f51dc");
    ("kernel/counters.c", "252461896e4bd24214e8b1ff1857666c");
    ("kernel/creds.c", "8c3a402231abb7d4bc02d6dad32b43fd");
    ("kernel/dst.c", "f1c66ecca6c43694128bbe8cd664b35c");
    ("kernel/dst_ca.c", "5b36753a23e393b4a99a92bc260772ab");
    ("kernel/entry.s", "36ac214ece598fd52e6c223597d1fbd4");
    ("kernel/fs.c", "7e3afc91544e609332858d49c57cdcbc");
    ("kernel/init.c", "d7743f19924d14f91b561570d7fe2a5b");
    ("kernel/ipc.c", "acf39deb34fd88898d60d0bd95174a3a");
    ("kernel/keyring.c", "360fb3af237bcff23eb254daa831cc53");
    ("kernel/log.c", "2597423692838e4507609c62e936da46");
    ("kernel/misc.c", "72c8cd95e79bc69516077b7224f34771");
    ("kernel/mm.c", "6091185efcaa66ca193d1d9db20e2e02");
    ("kernel/net.c", "fafed57cb22e1dcd0318c93f67c3cc70");
    ("kernel/pipe.c", "fecc40567fb99e3b0797b69f3e309067");
    ("kernel/proc.c", "7aea8e1d296cdda554e719c46c33e4bd");
    ("kernel/quota.c", "f748c1090ffc48c134af59012df64271");
    ("kernel/random.c", "702e9a11d628310afeb6570fa78d53ca");
    ("kernel/sched.c", "52afe69facee5572fe95752da789c18c");
    ("kernel/signal.c", "2fac0f266783974d973530d63796b023");
    ("kernel/sock.c", "4ada686fa36734de0775fd1abe0f2850");
    ("kernel/time.c", "e9b735a8c18070f6ad7fdffa8813a7bc");
    ("kernel/tty.c", "dfa672aa40a13f07ede760a059733ddc");
    ("kernel/usb.c", "8ae687eb4876fb6d672c85d6ac7e7e86");
    ("kernel/video.c", "cc50a99d9b9426472d88ac68b2b7375e");
    ("kernel/xattr.c", "1b5aa0fdf75aeadf3c8a5f7bcc95b469");
  ]

let test_golden_base_objects () =
  let digests options =
    List.map
      (fun (u : Kbuild.unit_build) ->
        (u.source_name, Digest.to_hex (Digest.bytes (Objfile.to_bytes u.obj))))
      (Fixture.build ~options (Corpus.Base_kernel.tree ())).units
  in
  let pairs = Alcotest.(list (pair string string)) in
  check pairs "pre build" golden_pre (digests Minic.Driver.pre_build);
  check pairs "run build" golden_run (digests Minic.Driver.run_build)

(* bad assembly input: each is a typed error at the offending line under
   both build options, never an exception out of the build *)
let bad_assembly =
  [
    ( "jump to an undefined label",
      ".text\nf:\n  jmp .Lnowhere\n  ret\n",
      3, "undefined jump target .Lnowhere" );
    ( "call to an undefined label",
      ".text\nf:\n  call .Lnowhere\n  ret\n",
      3, "undefined jump target .Lnowhere" );
    ( "duplicate label",
      ".text\nf:\n.L1:\n  ret\n.L1:\n  ret\n",
      5, "duplicate label .L1" );
    ( "label defined in two sections",
      ".text\nx:\n  ret\n.data\nx:\n  .word 1\n",
      5, "duplicate label x" );
    ( "global defined in two sections",
      ".global f\n.text\nf:\n  ret\n.data\nf:\n  .word 1\n",
      6, "duplicate label f" );
    ( "int above 255",
      ".text\nf:\n  int 300\n  ret\n",
      3, "int 300 is not in 0..255" );
    ( "negative int",
      ".text\nf:\n  int -1\n  ret\n",
      3, "int -1 is not in 0..255" );
    ( "instruction in .bss",
      ".bss\nx:\n  ret\n",
      3, "only labels, .space and .align may appear in .bss" );
    ( "alignment not a power of two",
      ".text\nf:\n  .align 3\n  ret\n",
      3, ".align 3 is not a power of two" );
    ( "zero alignment in .bss",
      ".bss\n  .align 0\nx:\n  .space 4\n",
      2, ".align 0 is not a power of two" );
    ( "negative .space",
      ".data\nx:\n  .space -1\n",
      3, ".space -1 is negative" );
    ( ".asciz without quotes",
      ".data\nx:\n  .asciz hi\n",
      3, "bad .asciz" );
    ( ".asciz with a bad escape",
      ".data\nx:\n  .asciz \"a\\q\"\n",
      3, "bad escape in .asciz" );
    ( "memory offset beyond 16 bits",
      ".text\nf:\n  loadw r0, [r1+100000]\n  ret\n",
      3, "memory offset 100000 does not fit in 16 bits" );
  ]

let test_bad_assembly (src, line, reason) () =
  let tree = Tree.of_list [ ("k/bad.s", src) ] in
  List.iter
    (fun options ->
      match Kbuild.build_tree ~options tree with
      | Error (Kbuild.Unit_assemble_failed e) ->
        check Alcotest.string "unit" "k/bad.s" e.unit_name;
        check Alcotest.int "line" line e.line;
        check Alcotest.string "reason" reason e.reason
      | Error e -> Alcotest.failf "unexpected error: %a" Kbuild.pp_error e
      | Ok _ -> Alcotest.fail "expected a typed assembly error")
    [ Minic.Driver.run_build; Minic.Driver.pre_build ]

(* [int] takes an unsigned byte: both ends of the range assemble to
   their own byte under both build options *)
let test_int_range () =
  let tree =
    Tree.of_list [ ("k/int.s", ".text\nf:\n  int 0\n  int 255\n  ret\n") ]
  in
  List.iter
    (fun options ->
      let b = Fixture.build ~options tree in
      let text =
        List.find
          (fun (s : Objfile.Section.t) -> s.kind = Objfile.Section.Text)
          (List.hd (Kbuild.objects b)).sections
      in
      check Alcotest.string "int 0; int 255" "\x60\x00\x60\xff"
        (Bytes.sub_string text.data 0 4))
    [ Minic.Driver.run_build; Minic.Driver.pre_build ]

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
        t "base kernel objects are pinned" test_golden_base_objects;
        t "int takes 0 to 255" test_int_range;
      ]
      @ List.map
          (fun (name, src, line, reason) ->
            t ("assembly error: " ^ name) (test_bad_assembly (src, line, reason)))
          bad_assembly );
  ]
