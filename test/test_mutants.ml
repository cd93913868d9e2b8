(* No exception escapes create's text inputs: seeded delete, substitute
   and duplicate mutants of the 64 corpus patch texts go through
   [Diff.parse] and [Create.create], and mutants of the base kernel's
   units (its assembly unit included) through [Kbuild.build_tree] under
   both build options. Each call must return [Ok] or a typed [Error]. *)

module Tree = Patchfmt.Source_tree
module Diff = Patchfmt.Diff
module Create = Ksplice.Create

let t name f = Alcotest.test_case name `Quick f

type kind = Delete | Substitute | Duplicate

let kinds = [ Delete; Substitute; Duplicate ]

let kind_name = function
  | Delete -> "delete"
  | Substitute -> "substitute"
  | Duplicate -> "duplicate"

(* bytes the C lexer, the assembler and the patch parser treat specially *)
let alphabet = "(){}[];,+-*/%=<>!&|^~?:0123456789xz_ \t\n\"'\\.#@$"

(* one edit of [s] over a span of 1-12 bytes at a seeded offset *)
let mutate rng kind s =
  let n = String.length s in
  let i = Random.State.int rng (n + 1) in
  let len = min (n - i) (1 + Random.State.int rng 12) in
  let span = String.sub s i len in
  let middle =
    match kind with
    | Delete -> ""
    | Substitute ->
      String.init len (fun _ ->
          alphabet.[Random.State.int rng (String.length alphabet)])
    | Duplicate -> span ^ span
  in
  String.sub s 0 i ^ middle ^ String.sub s (i + len) (n - i - len)

(* the mutants of [text], [per_kind] of each kind, from one seed per
   text, so that a failure names a mutant that can be rebuilt alone *)
let mutants ~seed ~per_kind text =
  let rng = Random.State.make [| seed |] in
  List.concat_map
    (fun kind ->
      List.init per_kind (fun k -> (kind, k, mutate rng kind text)))
    kinds

let escaped what kind k e =
  Alcotest.failf "%s, %s mutant %d: %s escaped" what (kind_name kind) k
    (Printexc.to_string e)

let test_patch_mutants () =
  let base = Corpus.Base_kernel.tree () in
  let parsed = ref 0 and created = ref 0 and total = ref 0 in
  List.iteri
    (fun seed (cve : Corpus.Cve.t) ->
      let text = Diff.to_string (Corpus.Cve.hot_patch cve base) in
      List.iter
        (fun (kind, k, text) ->
          incr total;
          match Diff.parse text with
          | exception e -> escaped (cve.id ^ " parse") kind k e
          | Error _ -> ()
          | Ok patch -> (
            incr parsed;
            match
              Create.create
                { source = base; patch; update_id = cve.id;
                  description = cve.desc }
            with
            | exception e -> escaped (cve.id ^ " create") kind k e
            | Ok _ -> incr created
            | Error _ -> ()))
        (mutants ~seed ~per_kind:10 text))
    Corpus.Cve.all;
  Alcotest.(check int) "mutants" (64 * 3 * 10) !total;
  (* the mutants reach each stage, not only the parser's refusals *)
  Alcotest.(check bool) "some mutants parse" true (!parsed > !total / 2);
  Alcotest.(check bool) "some mutants create an update" true (!created > 0);
  Alcotest.(check bool) "some parsed mutants are refused" true
    (!created < !parsed)

let test_unit_mutants () =
  let base = Corpus.Base_kernel.tree () in
  let units = Tree.bindings base in
  Alcotest.(check int) "base units" 27 (List.length units);
  Alcotest.(check bool) "the assembly unit is among them" true
    (List.mem_assoc "kernel/entry.s" units);
  let built = ref 0 and refused = ref 0 in
  List.iteri
    (fun seed (path, src) ->
      List.iter
        (fun (kind, k, src) ->
          let tree = Tree.add base path src in
          List.iter
            (fun (oname, options) ->
              match Kbuild.build_tree ~options tree with
              | exception e ->
                escaped (Printf.sprintf "%s %s build" path oname) kind k e
              | Ok _ -> incr built
              | Error _ -> incr refused)
            [ ("pre", Minic.Driver.pre_build);
              ("run", Minic.Driver.run_build) ])
        (mutants ~seed:(1000 + seed) ~per_kind:25 src))
    units;
  Alcotest.(check int) "builds" (27 * 3 * 25 * 2) (!built + !refused);
  Alcotest.(check bool) "some mutants build" true (!built > 0);
  Alcotest.(check bool) "some mutants are refused" true (!refused > 0)

let suite =
  [
    ( "mutants",
      [
        t "patch mutants: parse and create never raise" test_patch_mutants;
        t "unit mutants: build_tree never raises" test_unit_mutants;
      ] );
  ]
