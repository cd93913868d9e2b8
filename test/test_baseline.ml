(* Tests for the source-level baseline evaluator: each §6.3 failure mode
   must be detected on a patch that triggers it, and a trivially safe
   patch must come back clean. *)

module Tree = Patchfmt.Source_tree
module Diff = Patchfmt.Diff
module Baseline = Ksplice.Source_level

let t name f = Alcotest.test_case name `Quick f

let image_of tree =
  let build = Fixture.build ~options:Minic.Driver.run_build tree in
  Fixture.link ~base:0x100000 (Kbuild.objects build)

let evaluate tree tree' =
  match
    Baseline.evaluate ~source:tree
      ~patch:(Diff.diff_trees tree tree')
      ~image:(image_of tree)
  with
  | Ok v -> v
  | Error m -> Alcotest.failf "evaluate: %s" m

let has_failure pred (v : Baseline.verdict) = List.exists pred v.failures

let test_safe_patch () =
  let a =
    Tree.of_list
      [ ("k/a.c",
         "int limit_check(int v) {\n  int r = v;\n  r = r * 3;\n  r = r + v;\n  if (r > 99) { r = 99; }\n  return r;\n}\n") ]
  in
  let b =
    Tree.of_list
      [ ("k/a.c",
         "int limit_check(int v) {\n  int r = v;\n  r = r * 3;\n  r = r + v;\n  if (r > 90) { r = 90; }\n  return r;\n}\n") ]
  in
  let v = evaluate a b in
  Alcotest.(check (list string)) "replaces the function" [ "limit_check" ]
    v.replaced_from_source;
  Alcotest.(check int) "no failures" 0 (List.length v.failures)

let test_inline_missed () =
  let a =
    Tree.of_list
      [ ("k/a.c",
         "int lim() { return 8; }\nint use(int v) { if (v > lim()) { v = lim(); } return v; }\n") ]
  in
  let b =
    Tree.of_list
      [ ("k/a.c",
         "int lim() { return 4; }\nint use(int v) { if (v > lim()) { v = lim(); } return v; }\n") ]
  in
  let v = evaluate a b in
  Alcotest.(check bool) "inline sites missed" true
    (has_failure
       (function Baseline.Inline_sites_missed _ -> true | _ -> false)
       v);
  Alcotest.(check bool) "object changes missed" true
    (has_failure
       (function Baseline.Missed_object_changes _ -> true | _ -> false)
       v)

let test_ambiguous_symbol () =
  let mk n =
    Printf.sprintf
      "static int debug = %d;\nint probe%d(int v) {\n  int r = v + debug;\n  r = r * 2;\n  r = r - v;\n  if (r > 50) { r = 50; }\n  return r;\n}\n"
      n n
  in
  let a = Tree.of_list [ ("k/a.c", mk 1); ("k/b.c", mk 2) ] in
  let b =
    Tree.of_list
      [ ("k/a.c", mk 1);
        ( "k/b.c",
          Printf.sprintf
            "static int debug = %d;\nint probe%d(int v) {\n  int r = v + debug;\n  r = r * 2;\n  r = r - v;\n  if (r > 40) { r = 40; }\n  return r;\n}\n"
            2 2 ) ]
  in
  let v = evaluate a b in
  Alcotest.(check bool) "ambiguous detected" true
    (has_failure
       (function
         | Baseline.Ambiguous_symbol syms -> List.mem "debug" syms
         | _ -> false)
       v)

let test_static_local_lost () =
  let body extra =
    Printf.sprintf
      "int seq() {\n  static int n = 0;\n  n = n + 1;\n  return n%s;\n}\n"
      extra
  in
  let a = Tree.of_list [ ("k/a.c", body "") ] in
  let b = Tree.of_list [ ("k/a.c", body " + 100") ] in
  let v = evaluate a b in
  Alcotest.(check bool) "static local loss detected" true
    (has_failure
       (function
         | Baseline.Static_local_lost [ "seq" ] -> true
         | _ -> false)
       v)

let test_assembly_file () =
  let a =
    Tree.of_list [ ("k/e.s", ".text\n.global f\nf:\n  mov r0, 1\n  ret\n") ]
  in
  let b =
    Tree.of_list [ ("k/e.s", ".text\n.global f\nf:\n  mov r0, 2\n  ret\n") ]
  in
  let v = evaluate a b in
  Alcotest.(check bool) "assembly flagged" true
    (has_failure
       (function Baseline.Assembly_file "k/e.s" -> true | _ -> false)
       v)

let test_corpus_headline () =
  (* on the full corpus the baseline must be strictly weaker than Ksplice *)
  let base = Corpus.Base_kernel.tree () in
  let b = Corpus.Boot.boot () in
  let unsafe =
    List.filter
      (fun (cve : Corpus.Cve.t) ->
        match
          Baseline.evaluate ~source:base
            ~patch:(Corpus.Cve.hot_patch cve base)
            ~image:b.image
        with
        | Ok v -> v.failures <> []
        | Error m -> Alcotest.failf "%s: %s" cve.id m)
      Corpus.Cve.all
  in
  Alcotest.(check bool)
    (Printf.sprintf "many corpus patches are unsafe for the baseline (%d)"
       (List.length unsafe))
    true
    (List.length unsafe >= 20);
  (* the assembly CVE is among them *)
  Alcotest.(check bool) "assembly CVE flagged" true
    (List.exists (fun (c : Corpus.Cve.t) -> c.id = "CVE-2007-4573") unsafe)

let suite =
  [
    ( "baseline",
      [
        t "safe patch accepted" test_safe_patch;
        t "inline sites missed" test_inline_missed;
        t "ambiguous symbol" test_ambiguous_symbol;
        t "static local lost" test_static_local_lost;
        t "assembly file" test_assembly_file;
        t "corpus headline" test_corpus_headline;
      ] );
  ]
