(* The shared binary codec: the reader's edge cases, the checksummed
   frame, and every-prefix / byte-flip totality for the two formats
   that have no totality test of their own — repository entries and
   the store's ref table — plus the old per-ref file layout, which an
   open must refuse rather than read as no refs. *)

module Tree = Patchfmt.Source_tree
module Diff = Patchfmt.Diff
module Repo = Ksplice.Repository

let t name f = Alcotest.test_case name `Quick f

let fails_with ~off ~reason = function
  | Ok _ -> Alcotest.failf "decoded; expected %S at byte %d" reason off
  | Error (e : Codec.error) ->
    Alcotest.(check string) "reason" reason e.reason;
    Alcotest.(check int) "offset" off e.off

let u32 n =
  let b = Buffer.create 4 in
  Buffer.add_int32_le b n;
  Buffer.contents b

(* --- the reader --- *)

let test_primitives_roundtrip () =
  let b = Buffer.create 64 in
  Buffer.add_string b "M";
  Codec.put_u8 b 200;
  Codec.put_u32 b 0x7fff_ffff;
  Codec.put_i32 b (-5l);
  Codec.put_str b "payload";
  Codec.put_list Codec.put_str b [ "a"; ""; "ccc" ];
  let v =
    Codec.decode ~magic:"M"
      (fun r ->
        let a = Codec.get_u8 r in
        let n = Codec.get_u32 r in
        let i = Codec.get_i32 r in
        let s = Codec.get_str r in
        let l = Codec.get_list Codec.get_str r in
        (a, n, i, s, l))
      (Buffer.contents b)
  in
  match v with
  | Ok (200, 0x7fff_ffff, -5l, "payload", [ "a"; ""; "ccc" ]) -> ()
  | Ok _ -> Alcotest.fail "roundtrip changed a value"
  | Error e -> Alcotest.failf "decode: %a" Codec.pp_error e

let test_negative_length () =
  fails_with ~off:5 ~reason:"negative length"
    (Codec.decode ~magic:"M" Codec.get_str ("M" ^ u32 (-1l) ^ "abc"))

let test_count_beyond_input () =
  (* the count claims two billion elements: rejected before the element
     reader runs even once, so nothing is allocated for them *)
  let reads = ref 0 in
  let elt r =
    incr reads;
    Codec.get_u8 r
  in
  fails_with ~off:5 ~reason:"truncated input"
    (Codec.decode ~magic:"M" (Codec.get_list elt)
       ("M" ^ u32 0x7fff_fff0l ^ "xy"));
  Alcotest.(check int) "no element read" 0 !reads

let test_trailing_bytes () =
  let b = Buffer.create 16 in
  Buffer.add_string b "M";
  Codec.put_str b "ab";
  fails_with ~off:7 ~reason:"trailing bytes"
    (Codec.decode ~magic:"M" Codec.get_str (Buffer.contents b ^ "x"))

let test_short_magic () =
  List.iter
    (fun s ->
      fails_with ~off:0 ~reason:"bad magic"
        (Codec.decode ~magic:"MAGIC" (fun _ -> ()) s))
    [ ""; "M"; "MAGI"; "MAGXC" ]

(* --- the frame --- *)

let sample_payload =
  let b = Buffer.create 32 in
  Codec.put_str b "a payload of some length";
  Buffer.contents b

let sample_frame = Codec.frame ~magic:"FRM1" sample_payload

let test_frame_roundtrip () =
  match
    Codec.unframe ~magic:"FRM1" Codec.get_str (sample_frame ^ "next") ~pos:0
  with
  | Ok (p, next) ->
    Alcotest.(check string) "payload" "a payload of some length" p;
    Alcotest.(check int) "position past the frame"
      (String.length sample_frame) next
  | Error _ -> Alcotest.fail "unframe refused a good frame"

let test_frame_prefixes_incomplete () =
  List.iter
    (fun d ->
      match
        Codec.unframe ~magic:"FRM1" Codec.get_str
          (Fixture.damage sample_frame d) ~pos:0
      with
      | Error `Incomplete -> ()
      | Error (`Fail e) ->
        Alcotest.failf "%s failed: %a" (Fixture.describe d) Codec.pp_error e
      | Ok _ -> Alcotest.failf "%s unframed" (Fixture.describe d))
    (Fixture.damages sample_frame)

let test_frame_bit_flips_never_ok () =
  List.iter
    (fun d ->
      let b = Fixture.damage sample_frame d in
      match Codec.unframe ~magic:"FRM1" Codec.get_str b ~pos:0 with
      | Ok _ -> Alcotest.failf "%s unframed" (Fixture.describe d)
      | Error (`Incomplete | `Fail _) -> ())
    (Fixture.damages ~prefixes:false ~masks:Fixture.every_bit sample_frame)

(* --- every prefix and byte flip of a real blob --- *)

let damaged good =
  List.map
    (fun d -> (d, Fixture.damage good d))
    (Fixture.damages ~masks:[ 0x5a ] good)

let is_prefix = function Fixture.Prefix _ -> true | Flip _ -> false

(* repository entries: links decodes or refuses every damaged entry *)
let entry_blob () =
  let src body = "int level = 1;\nint f() { return " ^ body ^ "; }\n" in
  let base = Tree.of_list [ ("k.c", src "level") ] in
  let next = Tree.add base "k.c" (src "level + 1") in
  let patch = Diff.diff_trees base next in
  let update =
    (Fixture.ok "create" Ksplice.Create.pp_error
       (Ksplice.Create.create
          { source = base; patch; update_id = "u"; description = "u" }))
      .update
  in
  let repo = Repo.of_store (Store.create ~name:"codec-entry" ()) in
  ignore
    (Fixture.ok "publish" Repo.pp_error
       (Repo.publish repo ~source:base ~patch ~update)
      : Repo.entry);
  let store = Repo.store repo and digest = Tree.digest base in
  let d = Option.get (Store.find_ref store (Repo.entry_ref digest)) in
  (digest, Option.get (Store.get store d))

let test_entry_damage_total () =
  let digest, good = entry_blob () in
  (match Repo.links ~digest good with
  | Ok l ->
    Alcotest.(check string) "filed under its entry ref"
      (Repo.entry_ref digest) l.l_ref;
    Alcotest.(check bool) "reaches its objects" true (l.l_objects <> [])
  | Error e -> Alcotest.failf "links: %a" Repo.pp_error e);
  List.iter
    (fun (kind, blob) ->
      match Repo.links ~digest blob with
      | Error (Repo.Corrupt_entry _) -> ()
      | Error e -> Alcotest.failf "untyped refusal: %a" Repo.pp_error e
      | Ok _ when is_prefix kind ->
        Alcotest.failf "a %d-byte prefix decoded" (String.length blob)
      | Ok _ -> ()
      | exception e ->
        Alcotest.failf "damaged entry raised %s" (Printexc.to_string e))
    (damaged good)

(* the ref table: whatever a reboot finds in <dir>/refs, a recovering
   open reads both refs whole or refuses with a typed error, never
   serving one of them moved *)
let with_dir = Test_crash.with_dir
let refs_path dir = Filename.concat dir "refs"

let test_ref_table_damage_total () =
  with_dir (fun dir ->
      let d1, d2, good =
        let s = Store.create ~name:"w" ~dir () in
        let d1 = Store.put s "blob one" and d2 = Store.put s "blob two" in
        Store.commit_refs s [ ("r1", d1); ("r2", d2) ];
        (d1, d2, In_channel.with_open_bin (refs_path dir) In_channel.input_all)
      in
      let reopen () = Store.create ~name:"reboot" ~dir () in
      (let s = reopen () in
       match (Store.find_ref s "r1", Store.find_ref s "r2") with
       | Some a, Some b when a = d1 && b = d2 -> ()
       | _ -> Alcotest.fail "the good table did not read back whole");
      List.iter
        (fun d ->
          Out_channel.with_open_bin (refs_path dir) (fun oc ->
              output_string oc (Fixture.damage good d));
          match reopen () with
          | exception Vfs.Io_error _ -> ()
          | exception e ->
            Alcotest.failf "%s: reopen raised %s" (Fixture.describe d)
              (Printexc.to_string e)
          | _ ->
            Alcotest.failf "%s: a damaged table was read"
              (Fixture.describe d))
        (Fixture.damages ~masks:Fixture.every_bit good))

let test_old_layout_refused () =
  (* the old layout: refs/<md5 of name> files holding "name\ndigest\n",
     beside a journal *)
  with_dir (fun dir ->
      let d =
        let s = Store.create ~name:"w" ~dir () in
        Store.put s "blob one"
      in
      let refs = Filename.concat dir "refs" in
      Sys.mkdir refs 0o755;
      let ref_file = Filename.concat refs (Store.digest_of_string "r1") in
      Out_channel.with_open_bin ref_file (fun oc ->
          output_string oc ("r1\n" ^ d ^ "\n"));
      Out_channel.with_open_bin (Filename.concat dir "journal") ignore;
      List.iter
        (fun recover ->
          match Store.create ~name:"reboot" ~dir ~recover () with
          | exception Vfs.Io_error _ -> ()
          | _ ->
            Alcotest.failf "an open (recover %b) read refs/ as no refs"
              recover)
        [ true; false ];
      (match Repo.open_dir dir with
       | Error (Repo.Io_failure _) -> ()
       | Error e -> Alcotest.failf "unexpected error: %a" Repo.pp_error e
       | Ok _ -> Alcotest.fail "open_dir accepted the old layout");
      Alcotest.(check (list string)) "refs/ is left as it was"
        [ Store.digest_of_string "r1" ]
        (Array.to_list (Sys.readdir refs)))

let suite =
  [
    ( "codec",
      [
        t "primitives roundtrip" test_primitives_roundtrip;
        t "negative length" test_negative_length;
        t "count beyond the input fails before allocating"
          test_count_beyond_input;
        t "trailing bytes" test_trailing_bytes;
        t "short magic" test_short_magic;
        t "frame roundtrip" test_frame_roundtrip;
        t "every frame prefix is Incomplete" test_frame_prefixes_incomplete;
        t "no bit flip unframes" test_frame_bit_flips_never_ok;
        t "damaged repository entry is typed" test_entry_damage_total;
        t "damaged ref table never half-moves a ref"
          test_ref_table_damage_total;
        t "an old refs/ directory is refused" test_old_layout_refused;
      ] );
  ]
