(* The minimal-differencing engine (Diffobj/Prepost/Create): benign
   rebuild noise must produce empty diffs, genuinely changed functions
   ship alone, data referents and closure inclusions are detected, every
   shipped symbol carries a reason, and the unit-diff/2 store codec is
   total. *)

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
    { Minic.Driver.pre_build with
      codegen = { Minic.Codegen.function_sections = true; align_loops = true }
    }
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
    (Corpus.Boot.read_global b "banner_sum");
  let mgr = Apply.init b.machine in
  (match Apply.apply mgr created.update with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "apply: %a" Apply.pp_error e);
  Alcotest.(check int32_c') "hook recomputed through the new string"
    (Int32.of_int (expected_banner_sum Corpus.Cve.banner_new))
    (Corpus.Boot.read_global b "banner_sum");
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

(* --- unit-diff/2 codec totality --- *)

let sample_diff () =
  diff
    {|
int cfg = 1;
char *tag() { return "v1"; }
int get() { return cfg + tag()[0]; }
|}
    {|
int cfg = 1;
int extra = 9;
char *tag() { return "v2 longer"; }
int get() { return cfg + tag()[0] + extra; }
|}

let test_codec_roundtrip () =
  let d = sample_diff () in
  match Prepost.decode (Prepost.encode d) with
  | Ok d' ->
    Alcotest.(check bool) "roundtrip" true (d = d')
  | Error e -> Alcotest.failf "decode: %a" Prepost.pp_decode_error e

let test_codec_rejects_v1_blob () =
  (* the retired unit-diff/1 codec led with a decimal length, never the
     UDF2 magic: any such blob must be a typed error (a cache miss at
     the store layer), not an exception *)
  List.iter
    (fun blob ->
      match Prepost.decode blob with
      | Ok _ -> Alcotest.failf "v1-style blob %S parsed" blob
      | Error _ -> ())
    [ ""; "3:u.c"; "1|get|"; "UDF1"; "UDF2"; "UDF2trailing" ]

let decode_total s =
  match Prepost.decode s with
  | Ok _ -> true
  | Error _ -> true
  | exception _ -> false

let test_codec_every_prefix_rejected () =
  let good = Prepost.encode (sample_diff ()) in
  for n = 0 to String.length good - 1 do
    let p = String.sub good 0 n in
    (match Prepost.decode p with
     | Ok _ -> Alcotest.failf "prefix of %d bytes parsed" n
     | Error _ -> ()
     | exception e ->
       Alcotest.failf "prefix of %d bytes raised %s" n (Printexc.to_string e))
  done

let prop_codec_byte_flip_total =
  let open QCheck2.Gen in
  QCheck2.Test.make ~name:"unit-diff/2 decode is total under byte flips"
    ~count:500
    (tup2 (int_range 0 100_000) (int_range 1 255))
    (fun (pos, flip) ->
      let good = Bytes.of_string (Prepost.encode (sample_diff ())) in
      let pos = pos mod Bytes.length good in
      Bytes.set_uint8 good pos (Bytes.get_uint8 good pos lxor flip);
      decode_total (Bytes.to_string good))

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
        t "unit-diff/2 roundtrip" test_codec_roundtrip;
        t "unit-diff/1 blobs are misses" test_codec_rejects_v1_blob;
        t "every truncated prefix rejected"
          test_codec_every_prefix_rejected;
        QCheck_alcotest.to_alcotest prop_codec_byte_flip_total;
      ] );
  ]
