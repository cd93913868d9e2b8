(* Linker and module-loader tests: layout, relocation application,
   kallsyms, duplicate detection, local-symbol scoping, and the symbol
   census used by the §6.3 statistics. *)

module Image = Klink.Image
module Modlink = Klink.Modlink
module Section = Objfile.Section
module Symbol = Objfile.Symbol
module Reloc = Objfile.Reloc
module Isa = Vmisa.Isa
module Frag = Asm.Frag

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f

let compile ~unit_name src =
  (Fixture.compile ~options:Minic.Driver.run_build ~unit_name src).obj

let asm ~unit_name src =
  Asm.Assembler.assemble ~unit_name ~function_sections:false src

let test_layout_order () =
  (* text < rodata < data < bss, and sections respect alignment *)
  let o =
    compile ~unit_name:"a.c"
      {|
int counter = 5;
int blank[4];
int get() { char *s = "str"; return counter + s[0]; }
|}
  in
  let img = Fixture.link ~base:0x1000 [ o ] in
  let find name =
    List.find (fun (_, s, _, _) -> String.equal s name) img.placements
  in
  let _, _, text_a, _ = find ".text" in
  let _, _, ro_a, _ = find ".rodata.str" in
  let _, _, data_a, _ = find ".data" in
  let _, _, bss_a, _ = find ".bss" in
  Alcotest.(check bool) "ordering" true
    (text_a < ro_a && ro_a < data_a && data_a < bss_a);
  Alcotest.(check bool) "text range covers text" true
    (fst img.text_range <= text_a && text_a < snd img.text_range);
  Alcotest.(check bool) "bss beyond data image" true
    (bss_a >= Bytes.length img.data + img.base)

let test_cross_unit_relocation () =
  let a = compile ~unit_name:"a.c" "extern int shared; int get() { return shared; }" in
  let b = compile ~unit_name:"b.c" "int shared = 77;" in
  let img = Fixture.link ~base:0x1000 [ a; b ] in
  let m = Kernel.Machine.create ~mem_size:0x100000 img in
  let sym = Option.get (Image.lookup_global img "get") in
  match Kernel.Machine.call_function m ~addr:sym.addr ~args:[] with
  | Ok 77l -> ()
  | Ok v -> Alcotest.failf "got %ld" v
  | Error f -> Alcotest.failf "fault: %a" Kernel.Machine.pp_fault f

let test_duplicate_global_rejected () =
  let a = compile ~unit_name:"a.c" "int v = 1;" in
  let b = compile ~unit_name:"b.c" "int v = 2;" in
  (* errors are data: the variant carries symbol and both units *)
  (match Image.link ~base:0x1000 [ a; b ] with
   | Ok _ -> Alcotest.fail "expected Duplicate_global"
   | Error
       (Image.Duplicate_global { dg_symbol; dg_first_unit; dg_second_unit })
     ->
     check Alcotest.string "symbol" "v" dg_symbol;
     check Alcotest.string "first unit" "a.c" dg_first_unit;
     check Alcotest.string "second unit" "b.c" dg_second_unit
   | Error e -> Alcotest.failf "unexpected error: %a" Image.pp_error e)

let test_local_scoping () =
  (* identically named statics resolve to their own unit's definition *)
  let a =
    compile ~unit_name:"a.c" "static int v = 10; int geta() { return v; }"
  in
  let b =
    compile ~unit_name:"b.c" "static int v = 20; int getb() { return v; }"
  in
  let img = Fixture.link ~base:0x1000 [ a; b ] in
  let m = Kernel.Machine.create ~mem_size:0x100000 img in
  let call name =
    let sym = Option.get (Image.lookup_global img name) in
    match Kernel.Machine.call_function m ~addr:sym.addr ~args:[] with
    | Ok v -> v
    | Error f -> Alcotest.failf "fault: %a" Kernel.Machine.pp_fault f
  in
  check Alcotest.int32 "a's v" 10l (call "geta");
  check Alcotest.int32 "b's v" 20l (call "getb")

let test_undefined_symbol_rejected () =
  let a = compile ~unit_name:"a.c" "extern int nowhere; int f() { return nowhere; }" in
  match Image.link ~base:0x1000 [ a ] with
  | Ok _ -> Alcotest.fail "expected Undefined_symbol"
  | Error (Image.Undefined_symbol { us_unit; us_symbol; _ }) ->
    check Alcotest.string "unit" "a.c" us_unit;
    check Alcotest.string "symbol" "nowhere" us_symbol
  | Error e -> Alcotest.failf "unexpected error: %a" Image.pp_error e

let test_kallsyms_includes_locals () =
  let a =
    compile ~unit_name:"a.c"
      "static int hidden = 1; int visible() { return hidden; }"
  in
  let img = Fixture.link ~base:0x1000 [ a ] in
  Alcotest.(check int) "hidden in kallsyms" 1
    (List.length (Image.lookup img "hidden"));
  let h = List.hd (Image.lookup img "hidden") in
  Alcotest.(check bool) "binding local" true (h.binding = Symbol.Local);
  check Alcotest.string "unit recorded" "a.c" h.unit_name

let test_symbol_census () =
  let a = compile ~unit_name:"a.c" "static int dup = 1; int ua() { return dup; }" in
  let b = compile ~unit_name:"b.c" "static int dup = 2; int ub() { return dup; }" in
  let c = compile ~unit_name:"c.c" "int solo() { return 0; }" in
  let img = Fixture.link ~base:0x1000 [ a; b; c ] in
  let total, ambiguous = Image.symbol_census img in
  Alcotest.(check int) "total" 5 total;
  Alcotest.(check int) "ambiguous (two dup)" 2 ambiguous;
  check
    (Alcotest.list Alcotest.string)
    "units with ambiguity" [ "a.c"; "b.c" ]
    (Image.units_with_ambiguous_symbol img)

let test_data_relocs_in_image () =
  (* .word sym in data must be relocated to the final address *)
  let o =
    asm ~unit_name:"t.s"
      {|
.text
.global f
f:
  ret
.data
.global table
table:
  .word f
  .word f+4
|}
  in
  let img = Fixture.link ~base:0x1000 [ o ] in
  let f_addr = (Option.get (Image.lookup_global img "f")).addr in
  let table = (Option.get (Image.lookup_global img "table")).addr in
  let w0 = Bytes.get_int32_le img.data (table - img.base) in
  let w1 = Bytes.get_int32_le img.data (table + 4 - img.base) in
  check Alcotest.int32 "table[0] = f" (Int32.of_int f_addr) w0;
  check Alcotest.int32 "table[1] = f+4" (Int32.of_int (f_addr + 4)) w1

(* --- module loader --- *)

let test_modlink_roundtrip () =
  (* place and relocate a module that calls back into "kernel" code *)
  let frag = Frag.create () in
  Frag.jump_reloc frag Isa.Ccall "kernel_fn";
  Frag.insn frag Isa.Ret;
  let img = Frag.assemble frag ~text:true in
  let section =
    Section.make ~name:".text.mod" ~kind:Section.Text ~align:4 img.data
      img.relocs
  in
  let obj =
    Objfile.make ~unit_name:"mod"
      ~sections:
        [ section; Section.make_bss ~name:".bss.state" ~align:4 16 ]
      ~symbols:
        [ Symbol.make ~kind:`Func ~size:(Bytes.length img.data) ~name:"mod_fn"
            (Some { Symbol.section = ".text.mod"; value = 0 });
          Symbol.make ~kind:`Object ~size:16 ~name:"mod_state"
            (Some { Symbol.section = ".bss.state"; value = 0 });
          Symbol.make ~name:"kernel_fn" None ]
  in
  let next = ref 0x8000 in
  let alloc ~size ~align =
    let a = (!next + align - 1) / align * align in
    next := a + size;
    a
  in
  let placed = Modlink.layout ~alloc obj in
  Alcotest.(check bool) "mod_fn placed" true
    (Option.is_some (Modlink.symbol_addr placed "mod_fn"));
  Alcotest.(check bool) "bss placed" true
    (Option.is_some (Modlink.symbol_addr placed "mod_state"));
  let writes =
    Fixture.ok "relocate" Modlink.pp_error
      (Modlink.relocate placed ~resolve:(fun n ->
           if n = "kernel_fn" then Some 0x1234 else None))
  in
  Alcotest.(check int) "two writes" 2 (List.length writes);
  (* decode the relocated call and verify its target *)
  let text_addr = Option.get (Modlink.section_addr placed ".text.mod") in
  let _, bytes = List.find (fun (a, _) -> a = text_addr) writes in
  let insn, len = Isa.decode_bytes bytes 0 in
  (match insn with
   | Isa.Call disp ->
     Alcotest.(check int) "call target" 0x1234
       (text_addr + len + Int32.to_int disp)
   | i -> Alcotest.failf "expected call, got %s" (Isa.insn_to_string i))

let test_modlink_unresolved () =
  let frag = Frag.create () in
  Frag.jump_reloc frag Isa.Ccall "missing";
  let img = Frag.assemble frag ~text:true in
  let obj =
    Objfile.make ~unit_name:"mod"
      ~sections:
        [ Section.make ~name:".text.m" ~kind:Section.Text ~align:4 img.data
            img.relocs ]
      ~symbols:[ Symbol.make ~name:"missing" None ]
  in
  let next = ref 0x8000 in
  let alloc ~size ~align =
    ignore align;
    let a = !next in
    next := a + size;
    a
  in
  let placed = Modlink.layout ~alloc obj in
  match Modlink.relocate placed ~resolve:(fun _ -> None) with
  | Ok _ -> Alcotest.fail "expected Unresolved_symbol"
  | Error (Modlink.Unresolved_symbol { un_module; un_symbol; _ }) ->
    check Alcotest.string "module" "mod" un_module;
    check Alcotest.string "symbol" "missing" un_symbol

let test_note_sections_not_placed () =
  let obj =
    Objfile.make ~unit_name:"mod"
      ~sections:
        [ Section.make ~name:".ksplice.apply" ~kind:Section.Note ~align:4
            (Bytes.make 4 '\000')
            [ { Reloc.offset = 0; kind = Reloc.Abs32; sym = "h"; addend = 0l } ] ]
      ~symbols:[]
  in
  let placed = Modlink.layout ~alloc:(fun ~size ~align -> ignore size; ignore align; 0x8000) obj in
  Alcotest.(check int) "note skipped" 0 (List.length placed.placed)

let suite =
  [
    ( "klink",
      [
        t "layout order" test_layout_order;
        t "cross-unit relocation" test_cross_unit_relocation;
        t "duplicate global rejected" test_duplicate_global_rejected;
        t "local scoping" test_local_scoping;
        t "undefined symbol rejected" test_undefined_symbol_rejected;
        t "kallsyms includes locals" test_kallsyms_includes_locals;
        t "symbol census" test_symbol_census;
        t "data relocs in image" test_data_relocs_in_image;
        t "modlink roundtrip" test_modlink_roundtrip;
        t "modlink unresolved" test_modlink_unresolved;
        t "note sections not placed" test_note_sections_not_placed;
      ] );
  ]
