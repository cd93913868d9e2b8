(* Tests for source trees and unified diffs: generation, parsing,
   application, round-trip properties and statistics. *)

module Tree = Patchfmt.Source_tree
module Diff = Patchfmt.Diff

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string

let tree1 =
  Tree.of_list
    [
      ("kernel/sched.c", "int a;\nint b;\nvoid f() {\n  a = 1;\n}\n");
      ("kernel/fs.c", "int open() {\n  return 0;\n}\n");
    ]

let test_tree_basics () =
  check (Alcotest.list string_c) "files sorted"
    [ "kernel/fs.c"; "kernel/sched.c" ]
    (Tree.files tree1);
  check bool_c "mem" true (Tree.mem tree1 "kernel/fs.c");
  check bool_c "find" true
    (Tree.find tree1 "kernel/none" = None);
  let t2 = Tree.add tree1 "new.c" "x\n" in
  check bool_c "add" true (Tree.mem t2 "new.c");
  check bool_c "remove" false (Tree.mem (Tree.remove t2 "new.c") "new.c");
  check bool_c "original untouched" false (Tree.mem tree1 "new.c")

let test_tree_lines () =
  check
    (Alcotest.option (Alcotest.list string_c))
    "lines drop trailing newline"
    (Some [ "int a;"; "int b;"; "void f() {"; "  a = 1;"; "}" ])
    (Tree.lines tree1 "kernel/sched.c")

let test_tree_digest () =
  let t2 = Tree.add tree1 "kernel/sched.c" "changed\n" in
  check bool_c "digest changes" false
    (String.equal (Tree.digest tree1) (Tree.digest t2));
  check string_c "digest stable" (Tree.digest tree1) (Tree.digest tree1);
  (* repository entries are keyed by these values ([entry:<digest>],
     [sync --base]), so they must never move *)
  check string_c "base kernel" "6df66c09107904aac459ba55ff634b56"
    (Tree.digest (Corpus.Base_kernel.tree ()));
  check string_c "empty tree" "d41d8cd98f00b204e9800998ecf8427e"
    (Tree.digest Tree.empty);
  check string_c "two files" "2c504097973308bc9c3baa44cd5d4a45"
    (Tree.digest (Tree.of_list [ ("a.c", "int x = 1;\n"); ("README", "") ]))

(* The tree digest hashing every file's contents on each call, over
   [Tree.bindings]: the reference the stored file digests must match. *)
let reference_digest t =
  let b = Buffer.create 1024 in
  List.iter
    (fun (k, v) ->
      Buffer.add_string b k;
      Buffer.add_char b '\000';
      Buffer.add_string b (Digest.string v);
      Buffer.add_char b '\000')
    (Tree.bindings t);
  Digest.to_hex (Digest.string (Buffer.contents b))

type tree_op =
  | Of_list of (string * string) list
  | Add of string * string
  | Readd of string  (* add a path again with the contents it has *)
  | Remove of string

let show_op = function
  | Of_list l ->
    let file (p, c) = Printf.sprintf "%s=%S" p c in
    "of_list [" ^ String.concat "; " (List.map file l) ^ "]"
  | Add (p, c) -> Printf.sprintf "add %s %S" p c
  | Readd p -> "readd " ^ p
  | Remove p -> "remove " ^ p

(* Property: after every step of a random sequence of [of_list], [add]
   and [remove] (re-adding paths with new and with identical contents),
   the tree holds what a plain association list holds, each stored file
   digest is the MD5 of the file's contents, and the tree digest equals
   the reference. *)
let prop_stored_digests =
  let open QCheck2.Gen in
  let path = oneofl [ "a.c"; "b.c"; "k/c.s"; "README" ] in
  let contents = oneofl [ ""; "x\n"; "y\n"; "int x = 1;\n" ] in
  let op =
    frequency
      [
        ( 1,
          map (fun l -> Of_list l)
            (list_size (int_range 0 5) (pair path contents)) );
        (4, map2 (fun p c -> Add (p, c)) path contents);
        (2, map (fun p -> Readd p) path);
        (2, map (fun p -> Remove p) path);
      ]
  in
  QCheck2.Test.make ~name:"stored file digests follow the contents" ~count:300
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    (list_size (int_range 1 20) op)
    (fun ops ->
      let set model (p, c) = (p, c) :: List.remove_assoc p model in
      let step (t, model) = function
        | Of_list l -> (Tree.of_list l, List.fold_left set [] l)
        | Add (p, c) -> (Tree.add t p c, set model (p, c))
        | Readd p -> (
          match Tree.find t p with
          | Some c -> (Tree.add t p c, model)
          | None -> (t, model))
        | Remove p -> (Tree.remove t p, List.remove_assoc p model)
      in
      let holds (t, model) =
        Tree.bindings t = List.sort compare model
        && Tree.fold
             (fun p _ d ok ->
               ok
               && Digest.equal d (Digest.string (Option.get (Tree.find t p))))
             t true
        && String.equal (Tree.digest t) (reference_digest t)
      in
      let rec run state = function
        | [] -> true
        | op :: rest ->
          let state = step state op in
          holds state && run state rest
      in
      run (Tree.empty, []) ops)

let test_diff_empty () =
  check int_c "no self-diff" 0 (List.length (Diff.diff_trees tree1 tree1))

let test_diff_apply_roundtrip () =
  let modified =
    Tree.add tree1 "kernel/sched.c"
      "int a;\nint b;\nvoid f() {\n  if (b > 0)\n    a = 2;\n}\n"
  in
  let patch = Diff.diff_trees tree1 modified in
  check int_c "one file changed" 1 (List.length patch);
  match Diff.apply patch tree1 with
  | Ok t -> check bool_c "roundtrip" true (Tree.equal t modified)
  | Error e -> Alcotest.fail e

let test_diff_create_delete () =
  let modified =
    Tree.add (Tree.remove tree1 "kernel/fs.c") "kernel/new.c" "int x;\n"
  in
  let patch = Diff.diff_trees tree1 modified in
  check int_c "two file diffs" 2 (List.length patch);
  match Diff.apply patch tree1 with
  | Ok t -> check bool_c "create+delete roundtrip" true (Tree.equal t modified)
  | Error e -> Alcotest.fail e

let test_parse_roundtrip () =
  let modified =
    Tree.add tree1 "kernel/fs.c" "int open() {\n  return -1;\n}\n"
  in
  let patch = Diff.diff_trees tree1 modified in
  let text = Diff.to_string patch in
  match Diff.parse text with
  | Error e -> Alcotest.fail e
  | Ok patch' -> (
    check string_c "reprint equal" text (Diff.to_string patch');
    match Diff.apply patch' tree1 with
    | Ok t -> check bool_c "parsed patch applies" true (Tree.equal t modified)
    | Error e -> Alcotest.fail e)

let test_apply_with_offset () =
  (* the patch context matches at a shifted position *)
  let base = Tree.of_list [ ("f.c", "a\nb\nc\nd\ne\n") ] in
  let changed = Tree.of_list [ ("f.c", "a\nb\nc\nD\ne\n") ] in
  let patch = Diff.diff_trees base changed in
  (* prepend two lines so the stated hunk position is stale *)
  let shifted = Tree.of_list [ ("f.c", "x\ny\na\nb\nc\nd\ne\n") ] in
  match Diff.apply patch shifted with
  | Ok t ->
    check string_c "applied with offset" "x\ny\na\nb\nc\nD\ne\n"
      (Option.get (Tree.find t "f.c"))
  | Error e -> Alcotest.fail e

let test_apply_reject () =
  let base = Tree.of_list [ ("f.c", "a\nb\nc\n") ] in
  let changed = Tree.of_list [ ("f.c", "a\nB\nc\n") ] in
  let patch = Diff.diff_trees base changed in
  let other = Tree.of_list [ ("f.c", "1\n2\n3\n") ] in
  match Diff.apply patch other with
  | Ok _ -> Alcotest.fail "expected rejection"
  | Error e -> check bool_c "error names file" true (String.length e > 0)

let test_stats () =
  let modified =
    Tree.add
      (Tree.add tree1 "kernel/sched.c"
         "int a;\nint b;\nint c;\nvoid f() {\n  a = 2;\n}\n")
      "kernel/fs.c" "int open() {\n  return 1;\n}\n"
  in
  let patch = Diff.diff_trees tree1 modified in
  let s = Diff.stats patch in
  check int_c "files" 2 s.files;
  (* sched.c: +int c; and a=1 -> a=2 (one del one add); fs.c: return line *)
  check int_c "added" 3 s.added;
  check int_c "removed" 2 s.removed;
  check int_c "changed" 5 s.changed

let test_changed_files () =
  let modified = Tree.add tree1 "kernel/fs.c" "int open();\n" in
  let patch = Diff.diff_trees tree1 modified in
  check (Alcotest.list string_c) "changed files" [ "kernel/fs.c" ]
    (Diff.changed_files patch)

(* Property: diff + apply is the identity transformation on trees. *)
let prop_diff_apply =
  let open QCheck2.Gen in
  let line = oneofl [ "a"; "b"; "c"; "x = 1;"; "return 0;"; "}" ] in
  let file = map (fun ls -> String.concat "\n" ls ^ "\n")
      (list_size (int_range 1 30) line) in
  let tree =
    map
      (fun fs ->
        Tree.of_list (List.mapi (fun i f -> (Printf.sprintf "f%d.c" i, f)) fs))
      (list_size (int_range 1 4) file)
  in
  QCheck2.Test.make ~name:"diff/apply roundtrip on random trees" ~count:100
    (tup2 tree tree) (fun (a, b) ->
      match Diff.apply (Diff.diff_trees a b) a with
      | Ok b' -> Tree.equal b b'
      | Error _ -> false)

(* Property: parse(to_string(diff)) applies identically. *)
let prop_parse_roundtrip =
  let open QCheck2.Gen in
  let line = oneofl [ "aa"; "bb"; "cc"; "dd"; "ee"; "ff" ] in
  let file = map (fun ls -> String.concat "\n" ls ^ "\n")
      (list_size (int_range 1 25) line) in
  QCheck2.Test.make ~name:"diff text parse roundtrip" ~count:100
    (tup2 file file) (fun (a, b) ->
      let ta = Tree.of_list [ ("x.c", a) ] in
      let tb = Tree.of_list [ ("x.c", b) ] in
      let d = Diff.diff_trees ta tb in
      match Diff.parse (Diff.to_string d) with
      | Error _ -> false
      | Ok d' -> (
        match Diff.apply d' ta with
        | Ok tb' -> Tree.equal tb tb'
        | Error _ -> false))

(* Reference LCS length: the textbook forward recurrence. *)
let lcs_length a b =
  let a = Array.of_list a and b = Array.of_list b in
  let n = Array.length a and m = Array.length b in
  let t = Array.make_matrix (n + 1) (m + 1) 0 in
  for i = 1 to n do
    for j = 1 to m do
      t.(i).(j) <-
        (if a.(i - 1) = b.(j - 1) then t.(i - 1).(j - 1) + 1
         else max t.(i - 1).(j) t.(i).(j - 1))
    done
  done;
  t.(n).(m)

(* Property: the diff is minimal. It adds and removes
   |a| + |b| - 2 LCS(a, b) lines, on line lists that share a prefix (the
   part the LCS table skips). The round trips above only show that a
   patch applies. *)
let prop_diff_minimal =
  let open QCheck2.Gen in
  let lines = list_size (int_range 0 12) (oneofl [ "a"; "b"; "c"; "d" ]) in
  QCheck2.Test.make ~name:"diff adds and removes the fewest lines" ~count:300
    ~print:(fun (a, b) ->
      Printf.sprintf "%s / %s" (String.concat "," a) (String.concat "," b))
    (map3 (fun p a b -> (p @ a, p @ b)) lines lines lines)
    (fun (a, b) ->
      let file ls = String.concat "" (List.map (fun l -> l ^ "\n") ls) in
      let d =
        Diff.diff_trees
          (Tree.of_list [ ("x.c", file a) ])
          (Tree.of_list [ ("x.c", file b) ])
      in
      (Diff.stats d).changed
      = List.length a + List.length b - (2 * lcs_length a b))

let suite =
  [
    ( "patchfmt",
      [
        Alcotest.test_case "tree basics" `Quick test_tree_basics;
        Alcotest.test_case "tree lines" `Quick test_tree_lines;
        Alcotest.test_case "tree digest" `Quick test_tree_digest;
        Alcotest.test_case "self diff empty" `Quick test_diff_empty;
        Alcotest.test_case "diff/apply roundtrip" `Quick
          test_diff_apply_roundtrip;
        Alcotest.test_case "create and delete" `Quick test_diff_create_delete;
        Alcotest.test_case "parse roundtrip" `Quick test_parse_roundtrip;
        Alcotest.test_case "apply with offset" `Quick test_apply_with_offset;
        Alcotest.test_case "apply rejects mismatch" `Quick test_apply_reject;
        Alcotest.test_case "stats" `Quick test_stats;
        Alcotest.test_case "changed files" `Quick test_changed_files;
        QCheck_alcotest.to_alcotest prop_diff_apply;
        QCheck_alcotest.to_alcotest prop_parse_roundtrip;
        QCheck_alcotest.to_alcotest prop_diff_minimal;
        QCheck_alcotest.to_alcotest prop_stored_digests;
      ] );
  ]
