module Isa = Vmisa.Isa
module Reloc = Objfile.Reloc
module Symbol = Objfile.Symbol
module Section = Objfile.Section

exception Error of { line : int; msg : string }

let err line fmt =
  Format.kasprintf (fun msg -> raise (Error { line; msg })) fmt

(* --- statements --- *)

type wordval = Wint of int32 | Wsym of string * int32

type istmt =
  | Plain of Isa.insn
  | Mov_sym of Isa.reg * string * int32
  | Load_abs_sym of Isa.width * Isa.reg * string
  | Store_abs_sym of Isa.width * string * Isa.reg
  | Jump_sym of Isa.jump_class * string

type stmt =
  | Sec of string
  | Global of string
  | Align_d of int
  | Space of int
  | Word_d of wordval
  | Asciz of string
  | Label_d of string
  | Ins of istmt

(* --- lexing helpers --- *)

let strip_comment line =
  let cut =
    let n = String.length line in
    let rec find i in_str =
      if i >= n then n
      else
        match line.[i] with
        | '"' -> find (i + 1) (not in_str)
        | ('#' | ';') when not in_str -> i
        | _ -> find (i + 1) in_str
    in
    find 0 false
  in
  String.trim (String.sub line 0 cut)

let tokenize lineno s =
  (* split on whitespace and commas; keep bracket expressions together *)
  let toks = ref [] in
  let buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      toks := Buffer.contents buf :: !toks;
      Buffer.clear buf
    end
  in
  let in_str = ref false in
  String.iter
    (fun c ->
      if !in_str then begin
        Buffer.add_char buf c;
        if c = '"' then in_str := false
      end
      else
        match c with
        | ' ' | '\t' | ',' -> flush ()
        | '"' ->
          Buffer.add_char buf c;
          in_str := true
        | c -> Buffer.add_char buf c)
    s;
  if !in_str then err lineno "unterminated string";
  flush ();
  List.rev !toks

let parse_int lineno s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> err lineno "expected integer, got %S" s

let parse_reg lineno s =
  match String.lowercase_ascii s with
  | "r0" -> Isa.R0 | "r1" -> Isa.R1 | "r2" -> Isa.R2 | "r3" -> Isa.R3
  | "r4" -> Isa.R4 | "r5" -> Isa.R5 | "r6" | "fp" -> Isa.R6 | "r7" -> Isa.R7
  | "sp" -> Isa.SP
  | _ -> err lineno "expected register, got %S" s

let is_ident s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | '.' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' -> true
         | _ -> false)
       s

(* [sym+off] or [reg+off] contents between brackets *)
let parse_mem lineno s =
  let s =
    if String.length s >= 2 && s.[0] = '[' && s.[String.length s - 1] = ']'
    then String.sub s 1 (String.length s - 2)
    else err lineno "expected memory operand [..], got %S" s
  in
  let base, off =
    match String.index_opt s '+' with
    | Some i ->
      ( String.sub s 0 i,
        parse_int lineno (String.sub s (i + 1) (String.length s - i - 1)) )
    | None -> (
      match String.rindex_opt s '-' with
      | Some i when i > 0 ->
        ( String.sub s 0 i,
          -parse_int lineno (String.sub s (i + 1) (String.length s - i - 1))
        )
      | _ -> (s, 0))
  in
  match String.lowercase_ascii base with
  | "r0" | "r1" | "r2" | "r3" | "r4" | "r5" | "r6" | "r7" | "sp" | "fp" ->
    if off < -32768 || off > 32767 then
      err lineno "memory offset %d does not fit in 16 bits" off;
    `Reg (parse_reg lineno base, off)
  | _ when is_ident base ->
    if off <> 0 then err lineno "symbol memory operand cannot carry offset"
    else `Sym base
  | _ -> err lineno "bad memory operand base %S" base

let cond_of_mnemonic = function
  | "e" -> Some Isa.Eq | "ne" -> Some Isa.Ne | "l" -> Some Isa.Lt
  | "ge" -> Some Isa.Ge | "g" -> Some Isa.Gt | "le" -> Some Isa.Le
  | _ -> None

let parse_insn lineno mnem args =
  let reg i = parse_reg lineno (List.nth args i) in
  let imm i = Int32.of_int (parse_int lineno (List.nth args i)) in
  let nargs = List.length args in
  let need n = if nargs <> n then err lineno "%s expects %d operands" mnem n in
  let alu f = need 2; Plain (f (reg 0) (reg 1)) in
  let unary f = need 1; Plain (f (reg 0)) in
  let width_suffix m =
    match m with
    | 'w' -> Isa.W32 | 'b' -> Isa.W8 | 'h' -> Isa.W16
    | _ -> err lineno "bad width suffix"
  in
  match mnem with
  | "hlt" -> need 0; Plain Isa.Hlt
  | "nop" -> need 0; Plain (Isa.Nop 1)
  | "nop2" -> need 0; Plain (Isa.Nop 2)
  | "nop3" -> need 0; Plain (Isa.Nop 3)
  | "ret" -> need 0; Plain Isa.Ret
  | "mov" ->
    need 2;
    let dst = reg 0 in
    let src = List.nth args 1 in
    (match String.lowercase_ascii src with
     | "r0" | "r1" | "r2" | "r3" | "r4" | "r5" | "r6" | "r7" | "sp" | "fp" ->
       Plain (Isa.Mov_rr (dst, parse_reg lineno src))
     | _ ->
       (match int_of_string_opt src with
        | Some v -> Plain (Isa.Mov_ri (dst, Int32.of_int v))
        | None ->
          if is_ident src then Mov_sym (dst, src, 0l)
          else err lineno "bad mov source %S" src))
  | "loadw" | "loadb" | "loadh" ->
    need 2;
    let w = width_suffix mnem.[4] in
    let dst = reg 0 in
    (match parse_mem lineno (List.nth args 1) with
     | `Reg (b, off) -> Plain (Isa.Load (w, dst, b, off))
     | `Sym s -> Load_abs_sym (w, dst, s))
  | "storew" | "storeb" | "storeh" ->
    need 2;
    let w = width_suffix mnem.[5] in
    let src = reg 1 in
    (match parse_mem lineno (List.nth args 0) with
     | `Reg (b, off) -> Plain (Isa.Store (w, b, off, src))
     | `Sym s -> Store_abs_sym (w, s, src))
  | "add" -> alu (fun a b -> Isa.Add (a, b))
  | "sub" -> alu (fun a b -> Isa.Sub (a, b))
  | "mul" -> alu (fun a b -> Isa.Mul (a, b))
  | "div" -> alu (fun a b -> Isa.Div (a, b))
  | "mod" -> alu (fun a b -> Isa.Mod (a, b))
  | "and" -> alu (fun a b -> Isa.And (a, b))
  | "or" -> alu (fun a b -> Isa.Or (a, b))
  | "xor" -> alu (fun a b -> Isa.Xor (a, b))
  | "shl" -> alu (fun a b -> Isa.Shl (a, b))
  | "shr" -> alu (fun a b -> Isa.Shr (a, b))
  | "sar" -> alu (fun a b -> Isa.Sar (a, b))
  | "cmp" -> alu (fun a b -> Isa.Cmp (a, b))
  | "addi" -> need 2; Plain (Isa.Addi (reg 0, imm 1))
  | "cmpi" -> need 2; Plain (Isa.Cmpi (reg 0, imm 1))
  | "neg" -> unary (fun r -> Isa.Neg r)
  | "not" -> unary (fun r -> Isa.Not r)
  | "callr" -> unary (fun r -> Isa.Call_r r)
  | "push" -> unary (fun r -> Isa.Push r)
  | "pop" -> unary (fun r -> Isa.Pop r)
  | "sext8" -> unary (fun r -> Isa.Sext8 r)
  | "sext16" -> unary (fun r -> Isa.Sext16 r)
  | "zext8" -> unary (fun r -> Isa.Zext8 r)
  | "zext16" -> unary (fun r -> Isa.Zext16 r)
  | "int" ->
    need 1;
    let n = parse_int lineno (List.nth args 0) in
    if n < 0 || n > 255 then err lineno "int %d is not in 0..255" n;
    Plain (Isa.Int n)
  | "jmp" -> need 1; Jump_sym (Isa.Cjmp, List.nth args 0)
  | "call" -> need 1; Jump_sym (Isa.Ccall, List.nth args 0)
  | _ ->
    if String.length mnem > 1 && mnem.[0] = 'j' then begin
      match cond_of_mnemonic (String.sub mnem 1 (String.length mnem - 1)) with
      | Some c -> (need 1; Jump_sym (Isa.Cjcc c, List.nth args 0))
      | None -> err lineno "unknown mnemonic %S" mnem
    end
    else if String.length mnem > 3 && String.sub mnem 0 3 = "set" then begin
      match cond_of_mnemonic (String.sub mnem 3 (String.length mnem - 3)) with
      | Some c -> (need 1; Plain (Isa.Setcc (c, reg 0)))
      | None -> err lineno "unknown mnemonic %S" mnem
    end
    else err lineno "unknown mnemonic %S" mnem

let rec parse_line lineno line =
  let line = strip_comment line in
  if line = "" then []
  else if String.length line > 0 && line.[0] = '.' && String.contains line ' '
          || (String.length line > 0 && line.[0] = '.'
              && not (String.contains line ':'))
  then begin
    (* directive *)
    match tokenize lineno line with
    | [ (".text" | ".data" | ".rodata" | ".bss") as s ] -> [ Sec s ]
    | [ ".global"; name ] -> [ Global name ]
    | [ ".align"; n ] ->
      let a = parse_int lineno n in
      if a <= 0 || a land (a - 1) <> 0 then
        err lineno ".align %d is not a power of two" a;
      [ Align_d a ]
    | [ ".space"; n ] ->
      let size = parse_int lineno n in
      if size < 0 then err lineno ".space %d is negative" size;
      [ Space size ]
    | [ ".word"; v ] ->
      (match int_of_string_opt v with
       | Some i -> [ Word_d (Wint (Int32.of_int i)) ]
       | None ->
         (match String.index_opt v '+' with
          | Some i ->
            let sym = String.sub v 0 i in
            let off =
              parse_int lineno (String.sub v (i + 1) (String.length v - i - 1))
            in
            [ Word_d (Wsym (sym, Int32.of_int off)) ]
          | None ->
            if is_ident v then [ Word_d (Wsym (v, 0l)) ]
            else err lineno "bad .word operand %S" v))
    | ".asciz" :: _ -> (
      match String.index_opt line '"', String.rindex_opt line '"' with
      | Some q1, Some q2 when q2 > q1 -> (
        match Scanf.unescaped (String.sub line (q1 + 1) (q2 - q1 - 1)) with
        | s -> [ Asciz s ]
        | exception Scanf.Scan_failure _ -> err lineno "bad escape in .asciz")
      | _ -> err lineno "bad .asciz")
    | tok :: _ -> err lineno "unknown directive %S" tok
    | [] -> []
  end
  else
    match String.index_opt line ':' with
    | Some i
      when (let l = String.sub line 0 i in
            is_ident l && not (String.contains l ' ')) ->
      let label = String.sub line 0 i in
      let rest = String.sub line (i + 1) (String.length line - i - 1) in
      Label_d label :: parse_line lineno rest
    | _ -> (
      match tokenize lineno line with
      | [] -> []
      | mnem :: args ->
        [ Ins (parse_insn lineno (String.lowercase_ascii mnem) args) ])

(* each statement with its source line *)
let parse src =
  let lines = String.split_on_char '\n' src in
  List.concat
    (List.mapi
       (fun i l ->
         let line = i + 1 in
         List.map (fun st -> (line, st)) (parse_line line l))
       lines)

(* --- emission --- *)

let is_local_label n = String.length n >= 2 && n.[0] = '.' && n.[1] = 'L'

(* A group is a run of statements forming one section (or one function /
   object in function-sections mode). *)
type group = {
  g_secname : string;
  g_kind : Section.kind;
  mutable g_stmts : (int * stmt) list; (* reversed; with source lines *)
}

let assemble ~unit_name ~function_sections src =
  let stmts = parse src in
  (* a label names one place in the unit, whatever section holds it: a
     second definition is reported at its line *)
  let labels = Hashtbl.create 16 in
  List.iter
    (function
      | line, Label_d n ->
        if Hashtbl.mem labels n then err line "duplicate label %s" n;
        Hashtbl.replace labels n ()
      | _ -> ())
    stmts;
  let globals =
    List.filter_map (function _, Global n -> Some n | _ -> None) stmts
  in
  let is_global n = List.mem n globals in
  (* Split the statements into groups, one per output section. *)
  let groups = ref [] (* reversed *) in
  let cur = ref None in
  let base_name = ref ".text" in
  let fresh_group secname =
    let g =
      { g_secname = secname; g_kind = Section.kind_of_name secname;
        g_stmts = [] }
    in
    groups := g :: !groups;
    cur := Some g;
    g
  in
  let current () =
    match !cur with Some g when g.g_secname <> "" -> g | _ -> fresh_group !base_name
  in
  List.iter
    (fun ((_, st) as lst) ->
      match st with
      | Sec name ->
        base_name := name;
        cur := None
      | Global _ -> ()
      | Label_d name when function_sections && not (is_local_label name) ->
        let g = fresh_group (!base_name ^ "." ^ name) in
        g.g_stmts <- lst :: g.g_stmts
      | _ ->
        let g = current () in
        g.g_stmts <- lst :: g.g_stmts)
    stmts;
  let groups = List.rev !groups in
  (* Merge consecutive groups with identical names (non-fsections mode
     re-entering .text). *)
  let merged = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun g ->
      match Hashtbl.find_opt merged g.g_secname with
      | Some prev -> prev.g_stmts <- g.g_stmts @ prev.g_stmts
      | None ->
        Hashtbl.replace merged g.g_secname g;
        order := g.g_secname :: !order)
    groups;
  let groups = List.rev_map (Hashtbl.find merged) !order in
  let sections = ref [] in
  let symbols = ref [] in
  List.iter
    (fun g ->
      let stmts = List.rev g.g_stmts in
      let is_text = g.g_kind = Section.Text in
      (* the group's labels: a jump to one of them is resolved here, a
         jump to any other becomes a relocation (an error for a local
         label) *)
      let defined = Hashtbl.create 16 in
      List.iter
        (function _, Label_d n -> Hashtbl.replace defined n () | _ -> ())
        stmts;
      let frag = Frag.create () in
      let bss_size = ref 0 in
      let bss_labels = ref [] in
      List.iter
        (fun (line, st) ->
          if g.g_kind = Section.Bss then begin
            match st with
            | Label_d n -> bss_labels := (n, !bss_size) :: !bss_labels
            | Space n -> bss_size := !bss_size + n
            | Align_d a ->
              bss_size := (!bss_size + a - 1) / a * a
            | _ -> err line "only labels, .space and .align may appear in .bss"
          end
          else
            match st with
            | Sec _ | Global _ -> ()
            | Align_d n -> Frag.align frag n
            | Space n -> Frag.zeros frag n
            | Word_d (Wint v) -> Frag.word frag v
            | Word_d (Wsym (s, a)) -> Frag.word_reloc frag s a
            | Asciz s ->
              Frag.string frag s;
              Frag.bytes frag (Bytes.make 1 '\000')
            | Label_d n -> Frag.label frag n
            | Ins (Plain i) -> Frag.insn frag i
            | Ins (Mov_sym (r, s, a)) ->
              Frag.insn_reloc frag (Isa.Mov_ri (r, 0l)) Reloc.Abs32 s a
            | Ins (Load_abs_sym (w, r, s)) ->
              Frag.insn_reloc frag (Isa.Load_abs (w, r, 0l)) Reloc.Abs32 s 0l
            | Ins (Store_abs_sym (w, s, r)) ->
              Frag.insn_reloc frag (Isa.Store_abs (w, 0l, r)) Reloc.Abs32 s 0l
            | Ins (Jump_sym (cls, target)) ->
              if Hashtbl.mem defined target then Frag.jump frag cls target
              else if is_local_label target then
                err line "undefined jump target %s" target
              else Frag.jump_reloc frag cls target)
        stmts;
      if g.g_kind = Section.Bss then begin
        sections :=
          Section.make_bss ~name:g.g_secname ~align:4 !bss_size :: !sections;
        List.iter
          (fun (n, off, size) ->
            symbols :=
              Symbol.make
                ~binding:(if is_global n then Symbol.Global else Symbol.Local)
                ~size ~kind:`Object ~name:n
                (Some { Symbol.section = g.g_secname; value = off })
              :: !symbols)
          (Frag.extents (List.rev !bss_labels) ~upto:!bss_size)
      end
      else begin
        let img = Frag.assemble frag ~text:is_text in
        sections :=
          Section.make ~name:g.g_secname ~kind:g.g_kind ~align:4 img.data
            img.relocs
          :: !sections;
        let named =
          List.filter (fun (n, _) -> not (is_local_label n)) img.labels
        in
        List.iter
          (fun (n, off, size) ->
            symbols :=
              Symbol.make
                ~binding:(if is_global n then Symbol.Global else Symbol.Local)
                ~size
                ~kind:(if is_text then `Func else `Object)
                ~name:n
                (Some { Symbol.section = g.g_secname; value = off })
              :: !symbols)
          (Frag.extents named ~upto:(Bytes.length img.data))
      end)
    groups;
  (* Undefined references become undefined global symbols. *)
  let obj =
    Objfile.make ~unit_name ~sections:(List.rev !sections)
      ~symbols:(List.rev !symbols)
  in
  let undef =
    Objfile.undefined_symbols obj
    |> List.filter (fun n -> not (is_local_label n))
    |> List.map (fun n -> Symbol.make ~name:n None)
  in
  { obj with symbols = obj.symbols @ undef }
