(* The fragment assembler against a reference model: random fragments
   assemble to the same bytes, relocations and labels as the item-list
   assembler it replaced, which is kept below as the model. The model
   lays out every item on every relaxation pass; the assembler encodes
   fixed items once and lays out only its jumps, alignments and labels,
   so the two agree only if that keeps every short/long choice. *)

module Isa = Vmisa.Isa
module Reloc = Objfile.Reloc

(* --- the reference model: the item-list assembler --- *)

module Model = struct
  type item =
    | I of Isa.insn
    | I_reloc of Isa.insn * Reloc.kind * string * int32
    | Jump of Isa.jump_class * string
    | Lbl of string
    | Align of int
    | Raw of Bytes.t
    | Word_reloc of string * int32

  type t = { mutable items : item list (* reversed *) }

  (* relaxation passes and re-expansions, over every [assemble] *)
  let passes = ref 0
  let reexpansions = ref 0

  let create () = { items = [] }
  let add t i = t.items <- i :: t.items
  let insn t i = add t (I i)
  let insn_reloc t i kind sym addend = add t (I_reloc (i, kind, sym, addend))

  let long_jump_insn = function
    | Isa.Cjmp -> Isa.Jmp 0l
    | Isa.Cjcc c -> Isa.Jcc (c, 0l)
    | Isa.Ccall -> Isa.Call 0l

  let jump_reloc t cls sym =
    add t (I_reloc (long_jump_insn cls, Reloc.Pc32, sym, -4l))

  let jump t cls label = add t (Jump (cls, label))
  let label t name = add t (Lbl name)
  let align t n = add t (Align n)
  let bytes t b = add t (Raw b)
  let string t s = add t (Raw (Bytes.of_string s))

  let word t v =
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 v;
    add t (Raw b)

  let word_reloc t sym addend = add t (Word_reloc (sym, addend))
  let zeros t n = add t (Raw (Bytes.make n '\000'))
  let fits_i8 d = d >= -128 && d <= 127

  let pad_nops buf pos n =
    let rec go pos n =
      if n >= 3 then begin
        ignore (Isa.encode buf pos (Isa.Nop 3) : int);
        go (pos + 3) (n - 3)
      end
      else if n = 2 then ignore (Isa.encode buf pos (Isa.Nop 2) : int)
      else if n = 1 then ignore (Isa.encode buf pos (Isa.Nop 1) : int)
    in
    go pos n

  let assemble t ~text =
    let items = Array.of_list (List.rev t.items) in
    let n = Array.length items in
    let short = Array.make n false in
    let sizes = Array.make n 0 in
    let offsets = Array.make n 0 in
    let compute_layout () =
      let pos = ref 0 in
      for i = 0 to n - 1 do
        offsets.(i) <- !pos;
        let sz =
          match items.(i) with
          | I insn -> Isa.length insn
          | I_reloc (insn, _, _, _) -> Isa.length insn
          | Jump (Isa.Ccall, _) -> 5
          | Jump (_, _) -> if short.(i) then 2 else 5
          | Lbl _ -> 0
          | Align a -> (a - (!pos mod a)) mod a
          | Raw b -> Bytes.length b
          | Word_reloc _ -> 4
        in
        sizes.(i) <- sz;
        pos := !pos + sz
      done;
      !pos
    in
    let label_offsets () =
      let tbl = Hashtbl.create 16 in
      Array.iteri
        (fun i it ->
          match it with
          | Lbl name -> Hashtbl.replace tbl name offsets.(i)
          | _ -> ())
        items;
      tbl
    in
    let total = ref (compute_layout ()) in
    let changed = ref true in
    let iters = ref 0 in
    while !changed && !iters < 100 do
      changed := false;
      incr iters;
      incr passes;
      let labels = label_offsets () in
      Array.iteri
        (fun i it ->
          match it with
          | Jump (Isa.Ccall, _) -> ()
          | Jump (_, name) when not short.(i) ->
            let target = Hashtbl.find labels name in
            let disp = target - (offsets.(i) + 2) in
            if fits_i8 disp then begin
              short.(i) <- true;
              changed := true
            end
          | _ -> ())
        items;
      if !changed then total := compute_layout ()
    done;
    let verify () =
      let labels = label_offsets () in
      let ok = ref true in
      Array.iteri
        (fun i it ->
          match it with
          | Jump (cls, name) when short.(i) && cls <> Isa.Ccall ->
            let target = Hashtbl.find labels name in
            let disp = target - (offsets.(i) + 2) in
            if not (fits_i8 disp) then begin
              short.(i) <- false;
              ok := false
            end
          | _ -> ())
        items;
      !ok
    in
    while not (verify ()) do
      incr reexpansions;
      total := compute_layout ()
    done;
    let labels = label_offsets () in
    let buf = Bytes.make !total '\000' in
    let relocs = ref [] in
    Array.iteri
      (fun i it ->
        let pos = offsets.(i) in
        match it with
        | I insn -> ignore (Isa.encode buf pos insn : int)
        | I_reloc (insn, kind, sym, addend) ->
          ignore (Isa.encode buf pos insn : int);
          let field_off =
            match Isa.imm_field insn with
            | Some (off, _) -> off
            | None -> (
              match Isa.pc_rel insn with
              | Some (_, _, off, 4) -> off
              | _ -> assert false)
          in
          relocs :=
            { Reloc.offset = pos + field_off; kind; sym; addend } :: !relocs
        | Jump (cls, name) ->
          let target = Hashtbl.find labels name in
          let insn =
            if short.(i) then
              let disp = target - (pos + 2) in
              match cls with
              | Isa.Cjmp -> Isa.Jmp_s disp
              | Isa.Cjcc c -> Isa.Jcc_s (c, disp)
              | Isa.Ccall -> assert false
            else
              let disp = target - (pos + 5) in
              match cls with
              | Isa.Cjmp -> Isa.Jmp (Int32.of_int disp)
              | Isa.Cjcc c -> Isa.Jcc (c, Int32.of_int disp)
              | Isa.Ccall -> Isa.Call (Int32.of_int disp)
          in
          ignore (Isa.encode buf pos insn : int)
        | Lbl _ -> ()
        | Align _ -> if text then pad_nops buf pos sizes.(i)
        | Raw b -> Bytes.blit b 0 buf pos (Bytes.length b)
        | Word_reloc (sym, addend) ->
          relocs :=
            { Reloc.offset = pos; kind = Reloc.Abs32; sym; addend } :: !relocs)
      items;
    let label_list =
      Array.to_list items
      |> List.mapi (fun i it -> (i, it))
      |> List.filter_map (fun (i, it) ->
             match it with Lbl name -> Some (name, offsets.(i)) | _ -> None)
    in
    (buf, List.rev !relocs, label_list)
end

(* --- random fragments --- *)

type op =
  | Insn of Isa.insn
  | Insn_reloc of Isa.insn * Reloc.kind * string * int32
  | Jump_reloc of Isa.jump_class * string
  | Jump of Isa.jump_class * int  (* to label [L<n>] *)
  | Label of int
  | Align of int
  | Raw of string
  | Word of int32
  | Word_reloc of string * int32
  | Zeros of int

(* fixed instructions of every length: 1, 2, 3, 5 and 6 bytes *)
let fixed_insns =
  Isa.
    [ Hlt; Ret; Nop 1; Nop 2; Neg R1; Push R2; Pop R3; Int 5; Jmp_s 3;
      Nop 3; Mov_rr (R0, R1); Add (R2, R3); Setcc (Lt, R4); Cmp (R5, R0);
      Load (W32, R0, R6, 4); Store (W8, R6, -8, R1); Jmp 7l; Call 9l;
      Jcc (Gt, -3l); Mov_ri (R0, 42l); Addi (SP, -16l); Cmpi (R2, 7l);
      Load_abs (W16, R3, 0x1000l); Store_abs (W32, 0x2000l, R4) ]

(* instructions with a relocatable field, and the kind their field takes *)
let reloc_insns =
  Isa.
    [ (Mov_ri (R1, 0l), Reloc.Abs32); (Addi (R2, 0l), Reloc.Abs32);
      (Cmpi (R3, 0l), Reloc.Abs32); (Load_abs (W32, R0, 0l), Reloc.Abs32);
      (Store_abs (W8, 0l, R5), Reloc.Abs32); (Jmp 0l, Reloc.Pc32);
      (Jcc (Ne, 0l), Reloc.Pc32); (Call 0l, Reloc.Pc32) ]

let classes = Isa.[ Cjmp; Cjcc Eq; Cjcc Le; Ccall ]

let gen_fragment =
  let open QCheck2.Gen in
  let sym = map (Printf.sprintf "s%d") (int_range 0 3) in
  let addend = map Int32.of_int (int_range (-8) 8) in
  int_range 1 6 >>= fun n_labels ->
  let filler_op =
    frequency
      [ (8, map (fun i -> Insn i) (oneofl fixed_insns));
        (4, map2 (fun cls l -> Jump (cls, l)) (oneofl classes)
              (int_range 0 (n_labels - 1)));
        (1, map3 (fun (i, kind) s a -> Insn_reloc (i, kind, s, a))
              (oneofl reloc_insns) sym addend);
        (1, map2 (fun cls s -> Jump_reloc (cls, s)) (oneofl classes) sym);
        (* 16 twice: the widest padding is what re-expands a jump *)
        (1, map (fun n -> Align n) (oneofl [ 1; 2; 4; 8; 16; 16 ]));
        (1, map (fun s -> Raw s) (string_size ~gen:printable (int_range 0 9)));
        (1, map (fun v -> Word (Int32.of_int v)) int);
        (1, map2 (fun s a -> Word_reloc (s, a)) sym addend);
        (1, map (fun n -> Zeros n) (int_range 0 48)) ]
  in
  let block i = map (fun ops -> Label i :: ops) (list_size (int_range 0 30) filler_op) in
  let rec blocks i =
    if i = n_labels then return []
    else map2 (fun b rest -> b @ rest) (block i) (blocks (i + 1))
  in
  map2 (fun prefix body -> prefix @ body) (list_size (int_range 0 10) filler_op)
    (blocks 0)

let label_name n = Printf.sprintf "L%d" n

let print_op = function
  | Insn i -> Isa.insn_to_string i
  | Insn_reloc (i, _, s, a) -> Printf.sprintf "%s @%s%+ld" (Isa.insn_to_string i) s a
  | Jump_reloc (_, s) -> "jump_reloc " ^ s
  | Jump (Isa.Ccall, l) -> "call " ^ label_name l
  | Jump (_, l) -> "jump " ^ label_name l
  | Label l -> label_name l ^ ":"
  | Align n -> Printf.sprintf ".align %d" n
  | Raw s -> Printf.sprintf "raw %S" s
  | Word v -> Printf.sprintf ".word %ld" v
  | Word_reloc (s, a) -> Printf.sprintf ".word %s%+ld" s a
  | Zeros n -> Printf.sprintf ".space %d" n

let print_fragment (text, ops) =
  Printf.sprintf "text=%b\n%s" text (String.concat "\n" (List.map print_op ops))

(* the emitting half of the fragment interface, which the model shares *)
module type EMIT = sig
  type t

  val insn : t -> Isa.insn -> unit
  val insn_reloc : t -> Isa.insn -> Reloc.kind -> string -> int32 -> unit
  val jump_reloc : t -> Isa.jump_class -> string -> unit
  val jump : t -> Isa.jump_class -> string -> unit
  val label : t -> string -> unit
  val align : t -> int -> unit
  val bytes : t -> Bytes.t -> unit
  val string : t -> string -> unit
  val word : t -> int32 -> unit
  val word_reloc : t -> string -> int32 -> unit
  val zeros : t -> int -> unit
end

module Emit (F : EMIT) = struct
  let ops f ops =
    List.iteri
      (fun k op ->
        match op with
        | Insn i -> F.insn f i
        | Insn_reloc (i, kind, s, a) -> F.insn_reloc f i kind s a
        | Jump_reloc (cls, s) -> F.jump_reloc f cls s
        | Jump (cls, l) -> F.jump f cls (label_name l)
        | Label l -> F.label f (label_name l)
        | Align n -> F.align f n
        | Raw s ->
          (* alternate the two raw-data entry points *)
          if k land 1 = 0 then F.string f s else F.bytes f (Bytes.of_string s)
        | Word v -> F.word f v
        | Word_reloc (s, a) -> F.word_reloc f s a
        | Zeros n -> F.zeros f n)
      ops
end

module Emit_frag = Emit (Asm.Frag)
module Emit_model = Emit (Model)

let with_frag (text, ops) =
  let f = Asm.Frag.create () in
  Emit_frag.ops f ops;
  let img = Asm.Frag.assemble f ~text in
  (img.data, img.relocs, img.labels)

let with_model (text, ops) =
  let f = Model.create () in
  Emit_model.ops f ops;
  Model.assemble f ~text

let gen_case = QCheck2.Gen.pair QCheck2.Gen.bool gen_fragment

let prop_matches_model =
  QCheck2.Test.make ~name:"fragments assemble as the item-list model does"
    ~count:1000 ~print:print_fragment gen_case (fun case ->
      let data, relocs, labels = with_frag case in
      let data', relocs', labels' = with_model case in
      Bytes.equal data data' && relocs = relocs' && labels = labels')

(* the generator reaches the relaxation's corners: fragments that need
   three or more passes, and ones whose alignments force a shrunk jump
   back to its long form *)
let test_generator_reaches_corners () =
  let rand = Random.State.make [| 27 |] in
  let deep = ref 0 in
  let reexpanded = ref 0 in
  for _ = 1 to 500 do
    let case = QCheck2.Gen.generate1 ~rand gen_case in
    let p0 = !Model.passes and r0 = !Model.reexpansions in
    ignore (with_model case);
    if !Model.passes - p0 >= 3 then incr deep;
    if !Model.reexpansions > r0 then incr reexpanded
  done;
  Alcotest.(check bool) "some fragments take 3+ passes" true (!deep > 0);
  Alcotest.(check bool) "some fragments re-expand a jump" true (!reexpanded > 0)

let suite =
  [
    ( "frag-model",
      [
        QCheck_alcotest.to_alcotest prop_matches_model;
        Alcotest.test_case "generator reaches the relaxation corners" `Quick
          test_generator_reaches_corners;
      ] );
  ]
