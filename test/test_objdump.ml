(* Objdump tests: disassembly totality, relocation and jump-target
   annotations, resynchronisation on garbage, and hex dumps. *)

module Isa = Vmisa.Isa
module Section = Objfile.Section
module Reloc = Objfile.Reloc
module Objdump = Objfile.Objdump
module Frag = Asm.Frag

let t name f = Alcotest.test_case name `Quick f

let section_of emit =
  let frag = Frag.create () in
  emit frag;
  let img = Frag.assemble frag ~text:true in
  Section.make ~name:".text.t" ~kind:Section.Text ~align:4 img.data
    img.relocs

let test_disassemble_lines () =
  let s =
    section_of (fun f ->
        Frag.insn f (Isa.Push Isa.R6);
        Frag.insn f (Isa.Mov_ri (Isa.R0, 42l));
        Frag.insn f Isa.Ret)
  in
  let lines = Objdump.disassemble s in
  Alcotest.(check int) "three lines" 3 (List.length lines);
  Alcotest.(check (list int)) "offsets" [ 0; 2; 8 ]
    (List.map (fun (l : Objdump.line) -> l.offset) lines);
  Alcotest.(check string) "mnemonic" "mov r0, 42"
    (List.nth lines 1).text

let test_jump_target_annotation () =
  let s =
    section_of (fun f ->
        Frag.label f "top";
        Frag.insn f (Isa.Addi (Isa.R0, 1l));
        Frag.jump f Isa.Cjmp "top")
  in
  let lines = Objdump.disassemble s in
  let jump = List.nth lines 1 in
  Alcotest.(check (option int)) "resolved target" (Some 0) jump.target

let test_reloc_annotation () =
  let s =
    section_of (fun f ->
        Frag.insn_reloc f (Isa.Mov_ri (Isa.R0, 0l)) Reloc.Abs32 "victim" 0l)
  in
  match Objdump.disassemble s with
  | [ l ] ->
    (match l.reloc with
     | Some r -> Alcotest.(check string) "reloc symbol" "victim" r.sym
     | None -> Alcotest.fail "missing reloc annotation");
    Alcotest.(check (option int)) "no local target for reloc'd insn" None
      l.target
  | _ -> Alcotest.fail "expected a single line"

let test_resync_on_garbage () =
  let data = Bytes.of_string "\xEE\x42" (* garbage byte then ret *) in
  let s = Section.make ~name:".text.g" ~kind:Section.Text ~align:4 data [] in
  match Objdump.disassemble s with
  | [ bad; ret ] ->
    Alcotest.(check string) "byte line" ".byte 0xee" bad.text;
    Alcotest.(check string) "resynchronised" "ret" ret.text
  | l -> Alcotest.failf "expected 2 lines, got %d" (List.length l)

let test_full_dump_renders () =
  let obj =
    (Fixture.compile ~options:Minic.Driver.pre_build ~unit_name:"d.c"
       "int v = 9;\nchar msg[4] = \"ok\";\nint get() { return v; }\n")
      .obj
  in
  let out = Format.asprintf "%a" Objdump.pp obj in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("mentions " ^ needle) true
        (let rec find i =
           i + String.length needle <= String.length out
           && (String.sub out i (String.length needle) = needle
               || find (i + 1))
         in
         find 0))
    [ ".text.get"; ".data.v"; "symbols:"; "ret"; "ABS32" ]

let suite =
  [
    ( "objdump",
      [
        t "disassemble lines" test_disassemble_lines;
        t "jump target annotation" test_jump_target_annotation;
        t "reloc annotation" test_reloc_annotation;
        t "resync on garbage" test_resync_on_garbage;
        t "full dump renders" test_full_dump_renders;
      ] );
  ]
