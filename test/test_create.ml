(* The minimal-differencing engine (Prepost/Create): benign
   rebuild noise must produce empty diffs, genuinely changed functions
   ship alone, data referents and closure inclusions are detected, every
   shipped symbol carries a reason, and every corpus update's bytes are
   pinned. *)

module Tree = Patchfmt.Source_tree
module Diff = Patchfmt.Diff
module Update = Ksplice.Update
module Create = Ksplice.Create
module Prepost = Ksplice.Prepost
module Apply = Ksplice.Apply

let t name f = Alcotest.test_case name `Quick f
let slist = Alcotest.(list string)

let compile ?(options = Minic.Driver.pre_build) src =
  (Fixture.compile ~options ~unit_name:"u.c" src).obj

let diff ?options_pre ?options_post a b =
  Prepost.diff_unit
    ~pre:(compile ?options:options_pre a)
    ~post:(compile ?options:options_post b)

(* --- noise filtering: rebuild drift that changes no semantics --- *)

(* reordering the functions renumbers every [.Lstr] temp (interning
   order) — content correlation must cancel it *)
let test_noise_temp_renumbering () =
  let a =
    {|
char *tag_a() { return "alpha"; }
char *tag_b() { return "bravo"; }
int pick(int w) { if (w) return tag_a()[0]; return tag_b()[0]; }
|}
  in
  let b =
    {|
char *tag_b() { return "bravo"; }
char *tag_a() { return "alpha"; }
int pick(int w) { if (w) return tag_a()[0]; return tag_b()[0]; }
|}
  in
  let d = diff a b in
  Alcotest.(check bool) "reorder is noise" true (Prepost.is_empty d)

(* the same source built with and without loop alignment differs only in
   no-op padding, which the comparison skips like run-pre matching does *)
let test_noise_nop_padding () =
  let src =
    {|
int total = 0;
int sum(int n) {
  int i;
  int s;
  s = 0;
  for (i = 0; i < n; i = i + 1)
    s = s + i;
  total = s;
  return s;
}
|}
  in
  let aligned =
    { Minic.Driver.codegen =
        { Minic.Codegen.function_sections = true; align_loops = true } }
  in
  let d = diff ~options_post:aligned src src in
  Alcotest.(check bool) "alignment padding is noise" true (Prepost.is_empty d)

(* whole-tree check through Create: a patch that perturbs the source
   without changing any object code must yield No_object_changes *)
let test_noise_source_only_patch () =
  let base = Corpus.Base_kernel.tree () in
  let banner = Option.get (Tree.find base "kernel/banner.c") in
  let to_ = Tree.add base "kernel/banner.c" (banner ^ "\n\n") in
  match
    Create.create
      { source = base; patch = Diff.diff_trees base to_;
        update_id = "noise"; description = "" }
  with
  | Error Create.No_object_changes -> ()
  | Error e -> Alcotest.failf "unexpected error: %a" Create.pp_error e
  | Ok _ -> Alcotest.fail "whitespace-only patch produced an update"

(* --- data-referent detection and closure --- *)

let test_string_change_is_data_referent () =
  let a = {|
int csum() {
  char *b = "old tag";
  return b[0] + b[1];
}
|} in
  let b = {|
int csum() {
  char *b = "new tag";
  return b[0] + b[1];
}
|} in
  let d = diff a b in
  Alcotest.check slist "reader must be replaced" [ "csum" ]
    d.changed_functions;
  Alcotest.(check bool) "changed rodata recorded" true
    (d.changed_rodata <> []);
  (* the reader ships as a data referent, the slice by closure *)
  let reason_of n = List.assoc_opt n d.inclusion in
  (match reason_of "csum" with
   | Some (Prepost.Data_referent _) -> ()
   | r ->
     Alcotest.failf "csum reason: %s"
       (match r with
        | Some r -> Prepost.reason_to_string r
        | None -> "not shipped"));
  let slice = List.hd d.changed_rodata in
  (match reason_of slice with
   | Some (Prepost.Closure_of "csum") -> ()
   | r ->
     Alcotest.failf "%s reason: %s" slice
       (match r with
        | Some r -> Prepost.reason_to_string r
        | None -> "not shipped"))

let test_unchanged_neighbors_not_shipped () =
  let a = {|
int keep(int x) { return x * 3; }
int bump(int x) { return x + 1; }
|} in
  let b = {|
int keep(int x) { return x * 3; }
int bump(int x) { return x + 2; }
|} in
  let d = diff a b in
  Alcotest.check slist "only bump" [ "bump" ] d.changed_functions;
  Alcotest.(check bool) "keep not shipped" true
    (not (List.mem_assoc "keep" d.inclusion))

(* --- end to end: the banner corpus row --- *)

let int32_c' = Alcotest.int32

let expected_banner_sum s =
  String.fold_left (fun a c -> a + Char.code c) 0 s

let test_banner_refresh_end_to_end () =
  let base = Corpus.Base_kernel.tree () in
  let cve = Corpus.Cve.diff_banner in
  let patch = Corpus.Cve.hot_patch cve base in
  let created =
    match
      Create.create
        { source = base; patch; update_id = cve.id; description = cve.desc }
    with
    | Ok c -> c
    | Error e -> Alcotest.failf "create: %a" Create.pp_error e
  in
  (* the unchanged-code function ships as a data referent *)
  let reasons = Create.shipped_symbols created in
  Alcotest.(check bool) "banner_csum ships as data referent" true
    (List.exists
       (function
         | sym, (_, Prepost.Data_referent _) ->
           String.length sym >= 11 && String.sub sym 0 11 = "banner_csum"
         | _ -> false)
       reasons);
  Alcotest.(check bool) "a rodata slice ships by closure" true
    (List.exists
       (function _, (_, Prepost.Closure_of _) -> true | _ -> false)
       reasons);
  (* apply to a live kernel: the hook refreshes the derived checksum
     through the trampolined banner_csum *)
  let b = Corpus.Boot.boot () in
  Alcotest.(check int32_c') "boot computed the old checksum"
    (Int32.of_int (expected_banner_sum Corpus.Cve.banner_old))
    (Fixture.read_global b "banner_sum");
  let mgr = Apply.init b.machine in
  (match Apply.apply mgr created.update with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "apply: %a" Apply.pp_error e);
  Alcotest.(check int32_c') "hook recomputed through the new string"
    (Int32.of_int (expected_banner_sum Corpus.Cve.banner_new))
    (Fixture.read_global b "banner_sum");
  match Apply.undo mgr cve.id with
  | Ok () -> ()
  | Error e -> Alcotest.failf "undo: %a" Apply.pp_error e

(* --- persistent-data gate names the symbol --- *)

let test_persistent_data_change_rejected () =
  let base = Corpus.Base_kernel.tree () in
  (* a Table-1 "changes data init" row whose fix rewrites a global's
     initializer image, taken without its custom code *)
  let cve = Option.get (Corpus.Cve.find "CVE-2006-5753") in
  let patch = Corpus.Cve.mainline_patch cve base in
  match
    Create.create
      { source = base; patch; update_id = cve.id; description = "" }
  with
  | Error (Create.Data_semantics_changed ((u, sym) :: _)) ->
    Alcotest.(check string) "unit named" cve.file u;
    Alcotest.(check bool) "symbol named" true (String.length sym > 0)
  | Error e -> Alcotest.failf "unexpected error: %a" Create.pp_error e
  | Ok _ -> Alcotest.fail "persistent data change was not gated"

(* --- minimal vs whole-unit --- *)

let update_bytes (u : Update.t) = Bytes.length (Update.to_bytes u)

let test_minimal_smaller_than_whole () =
  let base = Corpus.Base_kernel.tree () in
  let cve = Option.get (Corpus.Cve.find "CVE-2006-2451") in
  let patch = Corpus.Cve.hot_patch cve base in
  let req =
    { Create.source = base; patch; update_id = cve.id; description = "" }
  in
  let minimal =
    match Create.create req with
    | Ok c -> c.update
    | Error e -> Alcotest.failf "minimal create: %a" Create.pp_error e
  in
  let whole =
    match Create.create ~minimal:false req with
    | Ok c -> c.update
    | Error e -> Alcotest.failf "whole create: %a" Create.pp_error e
  in
  Alcotest.(check bool) "minimal strictly smaller" true
    (update_bytes minimal < update_bytes whole);
  (* and both land the same machine state *)
  let apply_footprint (u : Update.t) =
    let b = Corpus.Boot.boot () in
    let mgr = Apply.init b.machine in
    (match Apply.apply mgr u with
     | Ok _ -> ()
     | Error e -> Alcotest.failf "apply: %a" Apply.pp_error e);
    Apply.footprint mgr
  in
  Alcotest.(check string) "footprint reproducible"
    (apply_footprint minimal) (apply_footprint minimal)

let test_every_shipped_symbol_has_reason () =
  let base = Corpus.Base_kernel.tree () in
  let cve = Option.get (Corpus.Cve.find "CVE-2008-0600") in
  let patch = Corpus.Cve.hot_patch cve base in
  match
    Create.create
      { source = base; patch; update_id = cve.id; description = "" }
  with
  | Error e -> Alcotest.failf "create: %a" Create.pp_error e
  | Ok c ->
    let reasons = Create.shipped_symbols c in
    List.iter
      (fun (sym : Objfile.Symbol.t) ->
        if Objfile.Symbol.is_defined sym then
          Alcotest.(check bool)
            (Printf.sprintf "%s explained" sym.name)
            true
            (List.mem_assoc sym.name reasons))
      c.update.primary.symbols

(* --- create's output, pinned ---

   One MD5 over the bytes of every update of the corpus's base-tree
   rows (the 64 CVEs, then the shadow and differencing extras), each
   created minimal and then whole-unit, followed by every (release,
   applicable CVE) pair. Like the object digests of [test kbuild], a
   change that should not move a byte of any update keeps it. *)

let corpus_updates_md5 = "0f31ad1cfff4f28fadc548fbeaef117d"

let test_corpus_updates_pinned () =
  let base = Corpus.Base_kernel.tree () in
  let bytes = Buffer.create (1 lsl 20) in
  let n = ref 0 in
  let add ?minimal ~source patch (cve : Corpus.Cve.t) =
    match
      Create.create ?minimal
        { source; patch; update_id = cve.id; description = cve.desc }
    with
    | Ok c ->
      incr n;
      Buffer.add_bytes bytes (Update.to_bytes c.update)
    | Error e -> Alcotest.failf "create %s: %a" cve.id Create.pp_error e
  in
  List.iter
    (fun cve ->
      let patch = Corpus.Cve.hot_patch cve base in
      add ~source:base patch cve;
      add ~minimal:false ~source:base patch cve)
    Corpus.Cve.(all @ shadow_extras @ diff_extras);
  List.iter
    (fun (v : Corpus.Versions.t) ->
      List.iter
        (fun cve ->
          Option.iter
            (fun patch -> add ~source:v.tree patch cve)
            (Corpus.Versions.hot_patch cve v))
        (Corpus.Versions.applicable v))
    (Corpus.Versions.all ());
  Alcotest.(check int) "updates" 278 !n;
  Alcotest.(check string) "MD5 of every update's bytes" corpus_updates_md5
    (Digest.to_hex (Digest.string (Buffer.contents bytes)))

let suite =
  [
    ( "create-diff",
      [
        t "temp renumbering is noise" test_noise_temp_renumbering;
        t "nop padding is noise" test_noise_nop_padding;
        t "whitespace-only patch is No_object_changes"
          test_noise_source_only_patch;
        t "string change is a data referent"
          test_string_change_is_data_referent;
        t "unchanged neighbours stay home"
          test_unchanged_neighbors_not_shipped;
        t "banner refresh end to end" test_banner_refresh_end_to_end;
        t "persistent data change names the symbol"
          test_persistent_data_change_rejected;
        t "minimal update smaller than whole-unit"
          test_minimal_smaller_than_whole;
        t "every shipped symbol explained"
          test_every_shipped_symbol_has_reason;
        t "corpus updates are pinned" test_corpus_updates_pinned;
      ] );
  ]
