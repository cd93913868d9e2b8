(* The shared binary codec: the reader's edge cases, the checksummed
   frame, and every-prefix / byte-flip totality for the two formats
   that have no totality test of their own — repository entries and
   store journal records — plus the old J1 bytes, which must now decode
   to a typed error. *)

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

let sample_frame = Codec.frame ~magic:"FRM1" "a payload of some length"

let test_frame_roundtrip () =
  match Codec.unframe ~magic:"FRM1" (sample_frame ^ "next") ~pos:0 with
  | Ok (p, next) ->
    Alcotest.(check string) "payload" "a payload of some length" p;
    Alcotest.(check int) "position past the frame"
      (String.length sample_frame) next
  | Error _ -> Alcotest.fail "unframe refused a good frame"

let test_frame_prefixes_incomplete () =
  List.iter
    (fun d ->
      match Codec.unframe ~magic:"FRM1" (Fixture.damage sample_frame d) ~pos:0
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
      match Codec.unframe ~magic:"FRM1" b ~pos:0 with
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

(* journal records: whatever a reboot finds in the journal, reopening
   never raises, and the two refs of the one record move together *)
let with_dir = Test_crash.with_dir
let journal_path dir = Filename.concat dir "journal"

let write_journal dir raw =
  Out_channel.with_open_bin (journal_path dir) (fun oc ->
      Out_channel.output_string oc raw)

let clear_refs dir =
  let refs = Filename.concat dir "refs" in
  Array.iter (fun e -> Sys.remove (Filename.concat refs e)) (Sys.readdir refs)

let reopen_moves_together dir ~what d1 d2 =
  match Store.create ~name:"reboot" ~dir () with
  | exception e ->
    Alcotest.failf "%s: reopen raised %s" what (Printexc.to_string e)
  | s -> (
    match (Store.find_ref s "r1", Store.find_ref s "r2") with
    | None, None -> `Absent
    | Some a, Some b when a = d1 && b = d2 -> `Whole
    | _ -> Alcotest.failf "%s: a ref was left half-moved" what)

let test_journal_damage_total () =
  with_dir (fun dir ->
      let d1, d2, good =
        let s = Store.create ~name:"w" ~dir () in
        let d1 = Store.put s "blob one" and d2 = Store.put s "blob two" in
        Store.append_journal s [ ("r1", None, d1); ("r2", None, d2) ];
        let raw =
          In_channel.with_open_bin (journal_path dir) In_channel.input_all
        in
        (d1, d2, raw)
      in
      Alcotest.(check bool) "the whole record rolls forward" true
        (reopen_moves_together dir ~what:"whole" d1 d2 = `Whole);
      List.iteri
        (fun i (kind, raw) ->
          clear_refs dir;
          write_journal dir raw;
          let what = Printf.sprintf "damaged journal %d" i in
          if reopen_moves_together dir ~what d1 d2 = `Whole then
            Alcotest.failf "%s (%s): a damaged record rolled forward" what
              (Fixture.describe kind))
        (damaged good))

let test_old_journal_record_is_torn () =
  (* a well-formed J1 record: netstrings and a hex checksum *)
  with_dir (fun dir ->
      let d =
        let s = Store.create ~name:"w" ~dir () in
        Store.put s "blob one"
      in
      let ns s = string_of_int (String.length s) ^ ":" ^ s in
      let payload = ns "1" ^ ns "r1" ^ ns "" ^ ns d in
      write_journal dir
        ("J1 " ^ ns payload ^ Digest.to_hex (Digest.string payload) ^ "\n");
      let s = Store.create ~name:"reboot" ~dir () in
      (match Store.recovery s with
      | Some r ->
        Alcotest.(check int) "discarded as torn" 1 r.Store.torn_discarded
      | None -> Alcotest.fail "expected a recovery report");
      Alcotest.(check (option string)) "ref not moved" None
        (Store.find_ref s "r1"))

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
        t "damaged journal never half-moves a ref" test_journal_damage_total;
        t "J1 journal record is a torn tail" test_old_journal_record_is_torn;
      ] );
  ]
