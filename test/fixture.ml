(* Fixtures shared by the suites that hot-patch a small one-unit kernel
   ("k/t.c"): boot it, call into it, edit its source, and create updates
   between two versions of it. *)

module Tree = Patchfmt.Source_tree
module Machine = Kernel.Machine

(* the [Ok] value, or fail the test naming [what] *)
let ok what pp = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %a" what pp e

let compile ~options ~unit_name src =
  ok "compile" Minic.Driver.pp_error
    (Minic.Driver.compile ~options ~unit_name src)

let build ?domains ~options tree =
  ok "build" Kbuild.pp_error (Kbuild.build_tree ?domains ~options tree)

let link ~base objs =
  ok "link" Klink.Image.pp_error (Klink.Image.link ~base objs)

let boot src =
  let tree = Tree.of_list [ ("k/t.c", src) ] in
  let b = Corpus.Boot.boot ~tree () in
  (tree, b.image, b.machine)

let call m img name args =
  let sym = Option.get (Klink.Image.lookup_global img name) in
  ok (name ^ " faulted") Machine.pp_fault
    (Machine.call_function m ~addr:sym.addr ~args)

let replace old_s new_s s =
  let rec find i =
    if i + String.length old_s > String.length s then
      Alcotest.failf "pattern %S not found" old_s
    else if String.sub s i (String.length old_s) = old_s then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ new_s
  ^ String.sub s (i + String.length old_s)
      (String.length s - i - String.length old_s)

let patched_fare tree =
  Tree.add tree "k/t.c"
    (replace "acc = acc + fares;" "acc = acc + fares + 1;"
       (Option.get (Tree.find tree "k/t.c")))

let mk_update ?supersedes ~id tree tree' =
  let c =
    ok "create" Ksplice.Create.pp_error
      (Ksplice.Create.create ?supersedes
         { source = tree; patch = Patchfmt.Diff.diff_trees tree tree';
           update_id = id; description = id })
  in
  c.update
