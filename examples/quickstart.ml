(* Quickstart: the whole Ksplice pipeline on a three-function kernel.

     dune exec examples/quickstart.exe

   Builds and boots a tiny kernel, writes a source patch, converts it
   into a hot update (pre-post differencing), applies it to the running
   kernel (run-pre matching + trampolines), observes the behaviour
   change, and reverses it. *)

module Tree = Patchfmt.Source_tree
module Diff = Patchfmt.Diff
module Image = Klink.Image
module Machine = Kernel.Machine
module Create = Ksplice.Create
module Apply = Ksplice.Apply

let kernel_source =
  {|
int boot_count = 1;

int get_multiplier() { return 2; }

int compute(int x) {
  int acc = 0;
  int i;
  for (i = 0; i < x; i = i + 1)
    acc = acc + get_multiplier();
  return acc + boot_count;
}
|}

let () =
  print_endline "== Ksplice quickstart ==";

  (* 1. boot a kernel the way a distro would build it: one .text per
     unit, no preparation for hot updates whatsoever *)
  let tree = Tree.of_list [ ("kernel/main.c", kernel_source) ] in
  let { Corpus.Boot.image; machine; _ } = Corpus.Boot.boot ~tree () in
  let call name args =
    let sym = Option.get (Image.lookup_global image name) in
    match Machine.call_function machine ~addr:sym.addr ~args with
    | Ok v -> v
    | Error f -> Format.kasprintf failwith "%s faulted: %a" name Machine.pp_fault f
  in
  Printf.printf "[boot] compute(5) = %ld\n" (call "compute" [ 5l ]);

  (* 2. a traditional source patch: note it touches get_multiplier only;
     Ksplice will discover that compute's object code changes too,
     because get_multiplier was inlined into it *)
  let replace old_s new_s s =
    let i =
      let rec find i =
        if String.sub s i (String.length old_s) = old_s then i else find (i + 1)
      in
      find 0
    in
    String.sub s 0 i ^ new_s
    ^ String.sub s
        (i + String.length old_s)
        (String.length s - i - String.length old_s)
  in
  let patched_tree =
    Tree.of_list
      [ ( "kernel/main.c",
          replace "int get_multiplier() { return 2; }"
            "int get_multiplier() { return 3; }" kernel_source ) ]
  in
  let patch = Diff.diff_trees tree patched_tree in
  Printf.printf "[patch]\n%s" (Diff.to_string patch);

  (* 3. ksplice-create: build pre and post with function sections and
     diff the object code *)
  let { Create.update; diffs; _ } =
    match
      Create.create
        { source = tree; patch; update_id = "quickstart-1";
          description = "triple the multiplier" }
    with
    | Ok c -> c
    | Error e -> Format.kasprintf failwith "create: %a" Create.pp_error e
  in
  List.iter
    (fun (d : Ksplice.Prepost.unit_diff) ->
      Printf.printf "[create] %s: functions to replace: %s\n" d.unit_name
        (String.concat ", " d.changed_functions))
    diffs;

  (* 4. ksplice-apply *)
  let mgr = Apply.init machine in
  (match Apply.apply mgr update with
   | Ok a ->
     Printf.printf
       "[apply] ok; run-pre matched, %d trampoline(s) inserted, simulated \
        pause %.3f ms\n"
       (List.length a.saved)
       (float_of_int a.pause_ns /. 1e6)
   | Error e -> Format.kasprintf failwith "apply: %a" Apply.pp_error e);
  Printf.printf "[patched] compute(5) = %ld   (was 11, now uses *3)\n"
    (call "compute" [ 5l ]);

  (* 5. ksplice-undo *)
  (match Apply.undo mgr "quickstart-1" with
   | Ok () -> print_endline "[undo] original code restored"
   | Error e -> Format.kasprintf failwith "undo: %a" Apply.pp_error e);
  Printf.printf "[restored] compute(5) = %ld\n" (call "compute" [ 5l ]);
  print_endline "done."
