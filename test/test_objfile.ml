(* Tests for the SELF object format: relocation math, serialisation
   round-trips, and symbol/section queries. *)

module Reloc = Objfile.Reloc
module Symbol = Objfile.Symbol
module Section = Objfile.Section

let check = Alcotest.check
let bool_c = Alcotest.bool
let int32_c = Alcotest.int32

(* §4.3 worked example: val = 00111100, P_run = f0000003, A = -4
   => S = f0111107. *)
let test_paper_example () =
  let s =
    Reloc.infer_sym_value ~kind:Reloc.Pc32 ~stored:0x00111100l ~addend:(-4l)
      ~place:0xf0000003l
  in
  check int32_c "paper §4.3 symbol inference" 0xf0111107l s

let test_stored_inverse_abs () =
  let sym_value = 0x00345678l and addend = 12l and place = 0x108844l in
  let stored = Reloc.stored_value ~kind:Reloc.Abs32 ~sym_value ~addend ~place in
  check int32_c "abs32 stored" (Int32.add sym_value addend) stored;
  let s = Reloc.infer_sym_value ~kind:Reloc.Abs32 ~stored ~addend ~place in
  check int32_c "abs32 inference inverts" sym_value s

let test_stored_inverse_pc () =
  let sym_value = 0x00108000l and addend = -4l and place = 0x00104001l in
  let stored = Reloc.stored_value ~kind:Reloc.Pc32 ~sym_value ~addend ~place in
  let s = Reloc.infer_sym_value ~kind:Reloc.Pc32 ~stored ~addend ~place in
  check int32_c "pc32 inference inverts" sym_value s

let prop_infer_inverts_stored =
  let open QCheck2.Gen in
  let i32 = map Int32.of_int (int_range (-1_000_000_000) 1_000_000_000) in
  let gen = tup4 (oneofl [ Reloc.Abs32; Reloc.Pc32 ]) i32 i32 i32 in
  QCheck2.Test.make ~name:"reloc inference inverts relocation" ~count:500 gen
    (fun (kind, sym_value, addend, place) ->
      let stored = Reloc.stored_value ~kind ~sym_value ~addend ~place in
      Int32.equal (Reloc.infer_sym_value ~kind ~stored ~addend ~place)
        sym_value)

let sample_object () =
  let text_data = Bytes.of_string "\x01\x42\x01\x42\x01" in
  let text =
    Section.make ~name:".text.f" ~kind:Section.Text ~align:4 text_data
      [
        { Reloc.offset = 1; kind = Reloc.Pc32; sym = "callee"; addend = -4l };
        { Reloc.offset = 3; kind = Reloc.Abs32; sym = "debug"; addend = 0l };
      ]
  in
  let data =
    Section.make ~name:".data" ~kind:Section.Data ~align:4
      (Bytes.of_string "\x2a\x00\x00\x00") []
  in
  let bss = Section.make_bss ~name:".bss" ~align:4 64 in
  let symbols =
    [
      Symbol.make ~binding:Symbol.Global ~size:5 ~kind:`Func ~name:"f"
        (Some { Symbol.section = ".text.f"; value = 0 });
      Symbol.make ~binding:Symbol.Local ~size:4 ~kind:`Object ~name:"debug"
        (Some { Symbol.section = ".data"; value = 0 });
      Symbol.make ~binding:Symbol.Local ~size:64 ~kind:`Object ~name:"buf"
        (Some { Symbol.section = ".bss"; value = 0 });
      Symbol.make ~name:"callee" None;
    ]
  in
  Objfile.make ~unit_name:"sample.c" ~sections:[ text; data; bss ] ~symbols

let decode b =
  Fixture.ok "decode" Objfile.pp_decode_error (Objfile.of_bytes b)

let test_serialisation_roundtrip () =
  let o = sample_object () in
  let o' = decode (Objfile.to_bytes o) in
  check Alcotest.string "unit name" o.unit_name o'.unit_name;
  check Alcotest.int "sections" (List.length o.sections)
    (List.length o'.sections);
  check Alcotest.int "symbols" (List.length o.symbols)
    (List.length o'.symbols);
  List.iter2
    (fun (a : Section.t) (b : Section.t) ->
      check Alcotest.string "section name" a.name b.name;
      check bool_c "section contents" true (Section.equal_contents a b))
    o.sections o'.sections;
  check bool_c "symbols equal" true (o.symbols = o'.symbols)

let test_file_roundtrip () =
  let o = sample_object () in
  let path = Filename.temp_file "selfobj" ".o" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_bytes oc (Objfile.to_bytes o));
      let o' =
        decode
          (Bytes.of_string (In_channel.with_open_bin path In_channel.input_all))
      in
      check bool_c "file roundtrip symbols" true (o.symbols = o'.symbols))

let test_bad_magic () =
  (match Objfile.of_bytes (Bytes.of_string "NOTSELF_____") with
   | Ok _ -> Alcotest.fail "bad magic accepted"
   | Error e ->
     check bool_c "reason mentions magic" true
       (String.length (Format.asprintf "%a" Objfile.pp_decode_error e) > 0))

let test_truncated_input () =
  let b = Objfile.to_bytes (sample_object ()) in
  let cut = Bytes.sub b 0 (Bytes.length b - 7) in
  check bool_c "truncated rejected" true
    (Result.is_error (Objfile.of_bytes cut))

let test_trailing_bytes () =
  let b = Objfile.to_bytes (sample_object ()) in
  let padded = Bytes.cat b (Bytes.of_string "TRAILING-GARBAGE") in
  match Objfile.of_bytes padded with
  | Ok _ -> Alcotest.fail "trailing bytes accepted"
  | Error e ->
    check Alcotest.int "rejected where the object ends" (Bytes.length b)
      e.de_off

let test_queries () =
  let o = sample_object () in
  check bool_c "find_section hit" true
    (Option.is_some (Objfile.find_section o ".text.f"));
  check bool_c "find_section miss" true
    (Option.is_none (Objfile.find_section o ".nope"));
  check Alcotest.int "symbols_named debug" 1
    (List.length (Objfile.symbols_named o "debug"));
  check bool_c "undefined symbols" true
    (Objfile.undefined_symbols o = [ "callee" ]);
  let in_text = Objfile.defined_symbols_in o ".text.f" in
  check Alcotest.int "defined in text" 1 (List.length in_text)

let test_section_equal_contents () =
  let mk relocs data =
    Section.make ~name:".text" ~kind:Section.Text ~align:4
      (Bytes.of_string data) relocs
  in
  let r = { Reloc.offset = 0; kind = Reloc.Abs32; sym = "x"; addend = 0l } in
  check bool_c "equal" true (Section.equal_contents (mk [ r ] "ab") (mk [ r ] "ab"));
  check bool_c "bytes differ" false
    (Section.equal_contents (mk [ r ] "ab") (mk [ r ] "ac"));
  check bool_c "reloc sym differs" false
    (Section.equal_contents (mk [ r ] "ab")
       (mk [ { r with sym = "y" } ] "ab"));
  check bool_c "reloc addend differs" false
    (Section.equal_contents (mk [ r ] "ab")
       (mk [ { r with addend = 4l } ] "ab"))

let test_kind_of_name () =
  check bool_c "text" true (Section.kind_of_name ".text" = Section.Text);
  check bool_c "text.foo" true (Section.kind_of_name ".text.foo" = Section.Text);
  check bool_c "data" true (Section.kind_of_name ".data.x" = Section.Data);
  check bool_c "rodata" true (Section.kind_of_name ".rodata" = Section.Rodata);
  check bool_c "bss" true (Section.kind_of_name ".bss.v" = Section.Bss);
  check bool_c "ksplice note" true
    (Section.kind_of_name ".ksplice.apply" = Section.Note)

(* Fuzz: decoding is total — arbitrary bytes yield [Ok] or [Error],
   never any exception at all. *)
let prop_of_bytes_total =
  let open QCheck2.Gen in
  QCheck2.Test.make ~name:"of_bytes is total on garbage" ~count:300
    (string_size (int_range 0 200))
    (fun junk ->
      match Objfile.of_bytes (Bytes.of_string junk) with
      | Ok _ | Error _ -> true
      | exception _ -> false)

(* Every truncated prefix of a valid image is an [Error] (the full image
   is the only prefix that parses), with no exception escaping. *)
let test_every_prefix_rejected () =
  let b = Objfile.to_bytes (sample_object ()) in
  for n = 0 to Bytes.length b - 1 do
    match Objfile.of_bytes (Bytes.sub b 0 n) with
    | Ok _ -> Alcotest.failf "prefix of %d bytes parsed" n
    | Error _ -> ()
    | exception e ->
      Alcotest.failf "prefix of %d bytes raised %s" n (Printexc.to_string e)
  done

(* Fuzz: bit-flipping a valid image is either rejected or parses into
   *some* object (never raises). *)
let prop_bitflip_total =
  let open QCheck2.Gen in
  QCheck2.Test.make ~name:"of_bytes is total under bit flips" ~count:300
    (tup2 (int_range 0 10_000) (int_range 0 7))
    (fun (pos, bit) ->
      let b = Objfile.to_bytes (sample_object ()) in
      let pos = pos mod Bytes.length b in
      Bytes.set_uint8 b pos (Bytes.get_uint8 b pos lxor (1 lsl bit));
      match Objfile.of_bytes b with
      | Ok _ | Error _ -> true
      | exception _ -> false)

let suite =
  [
    ( "objfile",
      [
        Alcotest.test_case "paper §4.3 inference example" `Quick
          test_paper_example;
        Alcotest.test_case "abs32 stored/infer" `Quick test_stored_inverse_abs;
        Alcotest.test_case "pc32 stored/infer" `Quick test_stored_inverse_pc;
        QCheck_alcotest.to_alcotest prop_infer_inverts_stored;
        Alcotest.test_case "serialisation roundtrip" `Quick
          test_serialisation_roundtrip;
        Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
        Alcotest.test_case "bad magic" `Quick test_bad_magic;
        Alcotest.test_case "truncated input" `Quick test_truncated_input;
        Alcotest.test_case "trailing bytes rejected" `Quick
          test_trailing_bytes;
        Alcotest.test_case "queries" `Quick test_queries;
        Alcotest.test_case "section content equality" `Quick
          test_section_equal_contents;
        Alcotest.test_case "kind_of_name" `Quick test_kind_of_name;
        QCheck_alcotest.to_alcotest prop_of_bytes_total;
        Alcotest.test_case "every truncated prefix rejected" `Quick
          test_every_prefix_rejected;
        QCheck_alcotest.to_alcotest prop_bitflip_total;
      ] );
  ]
