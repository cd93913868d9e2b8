(* Pre-post differencing tests: classification of changed/new/removed
   functions and data across two function-sections builds of one unit. *)

module Tree = Patchfmt.Source_tree
module Prepost = Ksplice.Prepost
module Section = Objfile.Section

let t name f = Alcotest.test_case name `Quick f
let slist = Alcotest.(list string)

let compile src =
  (Fixture.compile ~options:Minic.Driver.pre_build ~unit_name:"u.c" src).obj

let diff a b = Prepost.diff_unit ~pre:(compile a) ~post:(compile b)

let test_identical () =
  let src = "int v = 3;\nint get() { return v; }\n" in
  let d = diff src src in
  Alcotest.(check bool) "empty" true (Prepost.is_empty d)

let test_changed_function () =
  let a = "int f(int x) { return x + 1; }\nint g(int x) { return x; }\n" in
  let b = "int f(int x) { return x + 2; }\nint g(int x) { return x; }\n" in
  let d = diff a b in
  Alcotest.check slist "changed" [ "f" ] d.changed_functions;
  Alcotest.check slist "new" [] d.new_functions;
  Alcotest.check slist "removed" [] d.removed_functions

let test_new_and_removed () =
  let a = "int old_fn() { return 1; }\n" in
  let b = "int new_fn() { return 2; }\n" in
  let d = diff a b in
  Alcotest.check slist "new" [ "new_fn" ] d.new_functions;
  Alcotest.check slist "removed" [ "old_fn" ] d.removed_functions

let test_changed_data_detected () =
  let a = "int cfg = 1;\nint get() { return cfg; }\n" in
  let b = "int cfg = 2;\nint get() { return cfg; }\n" in
  let d = diff a b in
  Alcotest.check slist "data changed" [ "cfg" ] d.changed_data;
  (* the code is identical: only the datum differs *)
  Alcotest.check slist "no code change" [] d.changed_functions

let test_new_data () =
  let a = "int get() { return 0; }\n" in
  let b = "static int cache = 0;\nint get() { cache = cache + 1; return cache; }\n" in
  let d = diff a b in
  Alcotest.check slist "new data" [ "cache" ] d.new_data;
  Alcotest.check slist "function changed too" [ "get" ] d.changed_functions

let test_new_static_local () =
  (* a static local becomes a mangled unit-level datum *)
  let a = "int get() { return 0; }\n" in
  let b = "int get() { static int n = 0; n = n + 1; return n; }\n" in
  let d = diff a b in
  Alcotest.check slist "mangled static local" [ "get.n" ] d.new_data

let test_bss_size_change () =
  let a = "int buf[4];\nint get(int i) { return buf[i & 3]; }\n" in
  let b = "int buf[8];\nint get(int i) { return buf[i & 3]; }\n" in
  let d = diff a b in
  Alcotest.check slist "bss resize detected" [ "buf" ] d.changed_data

let test_reloc_only_change () =
  (* same bytes, different relocation target: must count as changed *)
  let a =
    "int x = 1;\nint y = 2;\nint get() { return x; }\n"
  in
  let b =
    "int x = 1;\nint y = 2;\nint get() { return y; }\n"
  in
  let d = diff a b in
  Alcotest.check slist "reloc change detected" [ "get" ] d.changed_functions

let test_section_name_helpers () =
  let text =
    Section.make ~name:".text.foo" ~kind:Section.Text ~align:4 Bytes.empty []
  in
  let data =
    Section.make ~name:".data.bar" ~kind:Section.Data ~align:4 Bytes.empty []
  in
  let bss = Section.make_bss ~name:".bss.baz" ~align:4 8 in
  Alcotest.(check (option string)) "fname" (Some "foo")
    (Prepost.fname_of_section text);
  Alcotest.(check (option string)) "data name" (Some "bar")
    (Prepost.dataname_of_section data);
  Alcotest.(check (option string)) "bss name" (Some "baz")
    (Prepost.dataname_of_section bss);
  Alcotest.(check (option string)) "text is not data" None
    (Prepost.dataname_of_section text)

let suite =
  [
    ( "prepost",
      [
        t "identical builds" test_identical;
        t "changed function" test_changed_function;
        t "new and removed" test_new_and_removed;
        t "changed data detected" test_changed_data_detected;
        t "new data" test_new_data;
        t "new static local" test_new_static_local;
        t "bss size change" test_bss_size_change;
        t "reloc-only change" test_reloc_only_change;
        t "section name helpers" test_section_name_helpers;
      ] );
  ]
