open Tast
module Isa = Vmisa.Isa
module Reloc = Objfile.Reloc
module Symbol = Objfile.Symbol
module Section = Objfile.Section
module Frag = Asm.Frag

type options = {
  function_sections : bool;
  align_loops : bool;
}

let run_options = { function_sections = false; align_loops = true }
let pre_options = { function_sections = true; align_loops = false }

(* calling convention: arguments are pushed right to left; at function
   entry [sp] points at the return address; after the prologue,
   parameter [i] lives at [fp + param_offset i] *)
let param_offset i = 8 + (4 * i)

(* --- per-unit emission state --- *)

type ustate = {
  opts : options;
  tunit : tunit;
  mutable label_counter : int;
  (* interned string literals: contents -> local symbol *)
  strings : (string, string) Hashtbl.t;
  mutable string_order : (string * string) list; (* sym, contents; reversed *)
  mutable sections : Section.t list; (* reversed *)
  mutable symbols : Symbol.t list; (* reversed *)
}

let fresh_label u =
  let n = u.label_counter in
  u.label_counter <- n + 1;
  Printf.sprintf ".L%d" n

let intern_string u s =
  match Hashtbl.find_opt u.strings s with
  | Some sym -> sym
  | None ->
    let sym = Printf.sprintf ".Lstr%d" (Hashtbl.length u.strings) in
    Hashtbl.replace u.strings s sym;
    u.string_order <- (sym, s) :: u.string_order;
    sym

(* --- function codegen --- *)

type fstate = {
  u : ustate;
  frag : Frag.t;
  slot_offset : (int, int) Hashtbl.t;  (* local slot -> fp-relative offset *)
  ret_label : string;
  mutable continue_labels : string list;  (* innermost loop step *)
  mutable break_labels : string list;  (* innermost loop or switch end *)
}

let r0 = Isa.R0
let r1 = Isa.R1
let fp = Isa.R6
let sp = Isa.SP

let emit f i = Frag.insn f.frag i

let width_of = function M8 -> Isa.W8 | M16 -> Isa.W16 | M32 -> Isa.W32

(* is [callee] defined in this unit (a direct intra-unit call)? *)
let defined_here u name = List.mem name u.tunit.tu_defined_funcs

let call_direct f name =
  if defined_here f.u name && not f.u.opts.function_sections then
    (* same fragment: resolved displacement, no relocation *)
    Frag.jump f.frag Isa.Ccall name
  else Frag.jump_reloc f.frag Isa.Ccall name

(* Evaluate [e] into r0. The only registers gen_expr uses are r0 and r1
   plus pushes/pops for temporaries, so values never live across calls in
   registers. *)
let rec gen_expr f (e : texpr) =
  match e.desc with
  | Tconst v -> emit f (Isa.Mov_ri (r0, v))
  | Tstring s ->
    let sym = intern_string f.u s in
    Frag.insn_reloc f.frag (Isa.Mov_ri (r0, 0l)) Reloc.Abs32 sym 0l
  | Tlocal_get slot ->
    emit f (Isa.Load (Isa.W32, r0, fp, Hashtbl.find f.slot_offset slot))
  | Tlocal_set (slot, v) ->
    gen_expr f v;
    emit f (Isa.Store (Isa.W32, fp, Hashtbl.find f.slot_offset slot, r0))
  | Tlocal_addr slot ->
    emit f (Isa.Mov_rr (r0, fp));
    emit f (Isa.Addi (r0, Int32.of_int (Hashtbl.find f.slot_offset slot)))
  | Tparam_get i -> emit f (Isa.Load (Isa.W32, r0, fp, param_offset i))
  | Tparam_set (i, v) ->
    gen_expr f v;
    emit f (Isa.Store (Isa.W32, fp, param_offset i, r0))
  | Tparam_addr i ->
    emit f (Isa.Mov_rr (r0, fp));
    emit f (Isa.Addi (r0, Int32.of_int (param_offset i)))
  | Tsym_addr s -> Frag.insn_reloc f.frag (Isa.Mov_ri (r0, 0l)) Reloc.Abs32 s 0l
  | Tload (w, addr) ->
    gen_expr f addr;
    emit f (Isa.Load (width_of w, r0, r0, 0))
  | Tstore (w, addr, v) ->
    gen_expr f v;
    emit f (Isa.Push r0);
    gen_expr f addr;
    emit f (Isa.Pop r1);
    emit f (Isa.Store (width_of w, r0, 0, r1));
    emit f (Isa.Mov_rr (r0, r1))
  | Tseq (a, b) ->
    gen_expr f a;
    gen_expr f b
  | Tbin (op, a, b) -> gen_binop f op a b
  | Tun (op, a) ->
    gen_expr f a;
    (match op with
     | Ast.Uneg -> emit f (Isa.Neg r0)
     | Ast.Ubnot -> emit f (Isa.Not r0)
     | Ast.Unot ->
       emit f (Isa.Cmpi (r0, 0l));
       emit f (Isa.Setcc (Isa.Eq, r0)))
  | Twiden (w, a) ->
    gen_expr f a;
    (match w with
     | Wsext8 -> emit f (Isa.Sext8 r0)
     | Wsext16 -> emit f (Isa.Sext16 r0))
  | Tcall (name, args) ->
    let n = List.length args in
    List.iter
      (fun a ->
        gen_expr f a;
        emit f (Isa.Push r0))
      (List.rev args);
    call_direct f name;
    if n > 0 then emit f (Isa.Addi (sp, Int32.of_int (4 * n)))
  | Tbuiltin (b, args) ->
    (* arguments land in r0.. (syscalls) or r1.. (other escapes) *)
    List.iter
      (fun a ->
        gen_expr f a;
        emit f (Isa.Push r0))
      args;
    let base = if b.b_code = 0x80 then 0 else 1 in
    List.rev (List.init (List.length args) (fun i -> i))
    |> List.iter (fun i ->
         match Isa.reg_of_int (base + i) with
         | Some r -> emit f (Isa.Pop r)
         | None -> invalid_arg "too many builtin arguments");
    emit f (Isa.Int b.b_code)
  | Ticall (callee, args) ->
    let n = List.length args in
    List.iter
      (fun a ->
        gen_expr f a;
        emit f (Isa.Push r0))
      (List.rev args);
    gen_expr f callee;
    emit f (Isa.Call_r r0);
    if n > 0 then emit f (Isa.Addi (sp, Int32.of_int (4 * n)))

and gen_binop f op a b =
  let arith mk_insn =
    gen_expr f a;
    emit f (Isa.Push r0);
    gen_expr f b;
    emit f (Isa.Mov_rr (r1, r0));
    emit f (Isa.Pop r0);
    emit f (mk_insn r0 r1)
  in
  let compare cond =
    gen_expr f a;
    emit f (Isa.Push r0);
    gen_expr f b;
    emit f (Isa.Mov_rr (r1, r0));
    emit f (Isa.Pop r0);
    emit f (Isa.Cmp (r0, r1));
    emit f (Isa.Setcc (cond, r0))
  in
  match op with
  | Ast.Badd -> arith (fun a b -> Isa.Add (a, b))
  | Ast.Bsub -> arith (fun a b -> Isa.Sub (a, b))
  | Ast.Bmul -> arith (fun a b -> Isa.Mul (a, b))
  | Ast.Bdiv -> arith (fun a b -> Isa.Div (a, b))
  | Ast.Bmod -> arith (fun a b -> Isa.Mod (a, b))
  | Ast.Band -> arith (fun a b -> Isa.And (a, b))
  | Ast.Bor -> arith (fun a b -> Isa.Or (a, b))
  | Ast.Bxor -> arith (fun a b -> Isa.Xor (a, b))
  | Ast.Bshl -> arith (fun a b -> Isa.Shl (a, b))
  | Ast.Bshr -> arith (fun a b -> Isa.Sar (a, b)) (* C >> on int: arithmetic *)
  | Ast.Beq -> compare Isa.Eq
  | Ast.Bne -> compare Isa.Ne
  | Ast.Blt -> compare Isa.Lt
  | Ast.Ble -> compare Isa.Le
  | Ast.Bgt -> compare Isa.Gt
  | Ast.Bge -> compare Isa.Ge
  | Ast.Bland ->
    (* a && b: 0 if a is 0, else (b != 0) *)
    let l_false = fresh_label f.u and l_end = fresh_label f.u in
    gen_expr f a;
    emit f (Isa.Cmpi (r0, 0l));
    Frag.jump f.frag (Isa.Cjcc Isa.Eq) l_false;
    gen_expr f b;
    emit f (Isa.Cmpi (r0, 0l));
    emit f (Isa.Setcc (Isa.Ne, r0));
    Frag.jump f.frag Isa.Cjmp l_end;
    Frag.label f.frag l_false;
    emit f (Isa.Mov_ri (r0, 0l));
    Frag.label f.frag l_end
  | Ast.Blor ->
    let l_true = fresh_label f.u and l_end = fresh_label f.u in
    gen_expr f a;
    emit f (Isa.Cmpi (r0, 0l));
    Frag.jump f.frag (Isa.Cjcc Isa.Ne) l_true;
    gen_expr f b;
    emit f (Isa.Cmpi (r0, 0l));
    emit f (Isa.Setcc (Isa.Ne, r0));
    Frag.jump f.frag Isa.Cjmp l_end;
    Frag.label f.frag l_true;
    emit f (Isa.Mov_ri (r0, 1l));
    Frag.label f.frag l_end

let rec gen_stmts f stmts = List.iter (gen_stmt f) stmts

and gen_stmt f (s : tstmt) =
  match s with
  | TSexpr e -> gen_expr f e
  | TSif (cond, then_, else_) ->
    let l_else = fresh_label f.u in
    gen_expr f cond;
    emit f (Isa.Cmpi (r0, 0l));
    Frag.jump f.frag (Isa.Cjcc Isa.Eq) l_else;
    gen_stmts f then_;
    if else_ = [] then Frag.label f.frag l_else
    else begin
      let l_end = fresh_label f.u in
      Frag.jump f.frag Isa.Cjmp l_end;
      Frag.label f.frag l_else;
      gen_stmts f else_;
      Frag.label f.frag l_end
    end
  | TSloop (cond, step, body) ->
    let l_head = fresh_label f.u in
    let l_cont = fresh_label f.u in
    let l_end = fresh_label f.u in
    if f.u.opts.align_loops then Frag.align f.frag 4;
    Frag.label f.frag l_head;
    (match cond with
     | Some c ->
       gen_expr f c;
       emit f (Isa.Cmpi (r0, 0l));
       Frag.jump f.frag (Isa.Cjcc Isa.Eq) l_end
     | None -> ());
    f.continue_labels <- l_cont :: f.continue_labels;
    f.break_labels <- l_end :: f.break_labels;
    gen_stmts f body;
    f.continue_labels <- List.tl f.continue_labels;
    f.break_labels <- List.tl f.break_labels;
    Frag.label f.frag l_cont;
    (match step with Some e -> gen_expr f e | None -> ());
    Frag.jump f.frag Isa.Cjmp l_head;
    Frag.label f.frag l_end
  | TSdowhile (body, cond) ->
    let l_body = fresh_label f.u in
    let l_cont = fresh_label f.u in
    let l_end = fresh_label f.u in
    if f.u.opts.align_loops then Frag.align f.frag 4;
    Frag.label f.frag l_body;
    f.continue_labels <- l_cont :: f.continue_labels;
    f.break_labels <- l_end :: f.break_labels;
    gen_stmts f body;
    f.continue_labels <- List.tl f.continue_labels;
    f.break_labels <- List.tl f.break_labels;
    Frag.label f.frag l_cont;
    gen_expr f cond;
    emit f (Isa.Cmpi (r0, 0l));
    Frag.jump f.frag (Isa.Cjcc Isa.Ne) l_body;
    Frag.label f.frag l_end
  | TSswitch (scrutinee, cases) ->
    (* dispatch: a compare ladder on the scrutinee, then the case bodies
       laid out in order so that fall-through is just falling through *)
    let l_end = fresh_label f.u in
    let labelled =
      List.map (fun c -> (fresh_label f.u, c)) cases
    in
    gen_expr f scrutinee;
    List.iter
      (fun (l, (const, _)) ->
        match const with
        | Some v ->
          emit f (Isa.Cmpi (r0, v));
          Frag.jump f.frag (Isa.Cjcc Isa.Eq) l
        | None -> ())
      labelled;
    (match
       List.find_opt (fun (_, (const, _)) -> const = None) labelled
     with
     | Some (l, _) -> Frag.jump f.frag Isa.Cjmp l
     | None -> Frag.jump f.frag Isa.Cjmp l_end);
    f.break_labels <- l_end :: f.break_labels;
    List.iter
      (fun (l, (_, body)) ->
        Frag.label f.frag l;
        gen_stmts f body)
      labelled;
    f.break_labels <- List.tl f.break_labels;
    Frag.label f.frag l_end
  | TSreturn None -> Frag.jump f.frag Isa.Cjmp f.ret_label
  | TSreturn (Some e) ->
    gen_expr f e;
    Frag.jump f.frag Isa.Cjmp f.ret_label
  | TSbreak -> (
    match f.break_labels with
    | l_end :: _ -> Frag.jump f.frag Isa.Cjmp l_end
    | [] -> invalid_arg "break outside loop or switch")
  | TScontinue -> (
    match f.continue_labels with
    | l_cont :: _ -> Frag.jump f.frag Isa.Cjmp l_cont
    | [] -> invalid_arg "continue outside loop")

let gen_function u frag (tf : tfunc) =
  let slot_offset = Hashtbl.create 8 in
  let frame_size =
    List.fold_left
      (fun off (l : local) ->
        let off = off + l.l_size in
        Hashtbl.replace slot_offset l.l_id (-off);
        off)
      0 tf.tf_locals
  in
  let f =
    { u; frag; slot_offset;
      ret_label = Printf.sprintf ".Lret.%s" tf.tf_name;
      continue_labels = []; break_labels = [] }
  in
  Frag.label frag tf.tf_name;
  emit f (Isa.Push fp);
  emit f (Isa.Mov_rr (fp, sp));
  if frame_size > 0 then emit f (Isa.Addi (sp, Int32.of_int (-frame_size)));
  gen_stmts f tf.tf_body;
  Frag.label frag f.ret_label;
  emit f (Isa.Mov_rr (sp, fp));
  emit f (Isa.Pop fp);
  emit f Isa.Ret

(* --- data emission --- *)

let data_align structs_ignored ty =
  ignore structs_ignored;
  match ty with
  | Ast.Char -> 1
  | Ast.Short -> 2
  | _ -> 4

let gitem_size (g : gitem) =
  match g.gi_init with
  | Gzero n -> n
  | Gbytes b -> Bytes.length b
  | Gwords ws -> 4 * List.length ws

let emit_gitem_into frag (g : gitem) =
  match g.gi_init with
  | Gzero _ -> assert false (* bss handled separately *)
  | Gbytes b -> Frag.bytes frag b
  | Gwords ws ->
    List.iter
      (function
        | Wconst v -> Frag.word frag v
        | Waddr (sym, off) -> Frag.word_reloc frag sym off)
      ws

let is_bss (g : gitem) = match g.gi_init with Gzero _ -> true | _ -> false

(* --- unit emission --- *)

let finish_text_section u name frag named_funcs =
  let img = Frag.assemble frag ~text:true in
  u.sections <-
    Section.make ~name ~kind:Section.Text ~align:4 img.data img.relocs
    :: u.sections;
  (* function symbols with sizes from label positions *)
  let static_of = Hashtbl.of_seq (List.to_seq named_funcs) in
  let fn_labels =
    List.filter_map
      (fun (n, off) ->
        Option.map (fun st -> ((n, st), off)) (Hashtbl.find_opt static_of n))
      img.labels
  in
  List.iter
    (fun ((fname, static), off, size) ->
      u.symbols <-
        Symbol.make
          ~binding:(if static then Symbol.Local else Symbol.Global)
          ~size ~kind:`Func ~name:fname
          (Some { Symbol.section = name; value = off })
        :: u.symbols)
    (Frag.extents fn_labels ~upto:(Bytes.length img.data))

let compile_unit ~options (tu : tunit) : Objfile.t =
  let u =
    { opts = options; tunit = tu; label_counter = 0;
      strings = Hashtbl.create 16; string_order = []; sections = [];
      symbols = [] }
  in
  (* text *)
  if options.function_sections then
    List.iter
      (fun (tf : tfunc) ->
        let frag = Frag.create () in
        gen_function u frag tf;
        finish_text_section u (".text." ^ tf.tf_name) frag
          [ (tf.tf_name, tf.tf_static) ])
      tu.tu_funcs
  else begin
    match tu.tu_funcs with
    | [] -> ()
    | funcs ->
      let frag = Frag.create () in
      List.iter
        (fun (tf : tfunc) ->
          Frag.align frag 4;
          gen_function u frag tf)
        funcs;
      finish_text_section u ".text" frag
        (List.map (fun (tf : tfunc) -> (tf.tf_name, tf.tf_static)) funcs)
  end;
  (* data and bss *)
  let data_items = List.filter (fun g -> not (is_bss g)) tu.tu_globals in
  let bss_items = List.filter is_bss tu.tu_globals in
  let sym_of (g : gitem) section value =
    Symbol.make
      ~binding:(if g.gi_static then Symbol.Local else Symbol.Global)
      ~size:(gitem_size g) ~kind:`Object ~name:g.gi_name
      (Some { Symbol.section; value })
  in
  if options.function_sections then begin
    List.iter
      (fun g ->
        let name = ".data." ^ g.gi_name in
        let frag = Frag.create () in
        emit_gitem_into frag g;
        let img = Frag.assemble frag ~text:false in
        u.sections <-
          Section.make ~name ~kind:Section.Data
            ~align:(data_align () g.gi_ty) img.data img.relocs
          :: u.sections;
        u.symbols <- sym_of g name 0 :: u.symbols)
      data_items;
    List.iter
      (fun g ->
        let name = ".bss." ^ g.gi_name in
        u.sections <-
          Section.make_bss ~name ~align:(data_align () g.gi_ty)
            (gitem_size g)
          :: u.sections;
        u.symbols <- sym_of g name 0 :: u.symbols)
      bss_items
  end
  else begin
    if data_items <> [] then begin
      let frag = Frag.create () in
      let offsets =
        List.map
          (fun g ->
            Frag.align frag (data_align () g.gi_ty);
            let marker = ".Ld." ^ g.gi_name in
            Frag.label frag marker;
            emit_gitem_into frag g;
            (g, marker))
          data_items
      in
      let img = Frag.assemble frag ~text:false in
      u.sections <-
        Section.make ~name:".data" ~kind:Section.Data ~align:4 img.data
          img.relocs
        :: u.sections;
      List.iter
        (fun (g, marker) ->
          u.symbols <- sym_of g ".data" (List.assoc marker img.labels)
                       :: u.symbols)
        offsets
    end;
    if bss_items <> [] then begin
      let pos = ref 0 in
      let placed =
        List.map
          (fun g ->
            let a = data_align () g.gi_ty in
            pos := (!pos + a - 1) / a * a;
            let here = !pos in
            pos := !pos + gitem_size g;
            (g, here))
          bss_items
      in
      u.sections <-
        Section.make_bss ~name:".bss" ~align:4 !pos :: u.sections;
      List.iter
        (fun (g, off) -> u.symbols <- sym_of g ".bss" off :: u.symbols)
        placed
    end
  end;
  (* string literals *)
  (match List.rev u.string_order with
   | [] -> ()
   | strings ->
     let frag = Frag.create () in
     List.iter
       (fun (sym, contents) ->
         Frag.label frag sym;
         Frag.string frag contents;
         Frag.bytes frag (Bytes.make 1 '\000'))
       strings;
     let img = Frag.assemble frag ~text:false in
     u.sections <-
       Section.make ~name:".rodata.str" ~kind:Section.Rodata ~align:1
         img.data img.relocs
       :: u.sections;
     List.iter
       (fun (sym, contents) ->
         u.symbols <-
           Symbol.make ~binding:Symbol.Local
             ~size:(String.length contents + 1)
             ~kind:`Object ~name:sym
             (Some { Symbol.section = ".rodata.str";
                     value = List.assoc sym img.labels })
           :: u.symbols)
       strings);
  (* ksplice hook sections *)
  let hook_kinds =
    List.sort_uniq compare (List.map fst tu.tu_hooks)
  in
  List.iter
    (fun kind ->
      let frag = Frag.create () in
      List.iter
        (fun (k, fname) -> if k = kind then Frag.word_reloc frag fname 0l)
        tu.tu_hooks;
      let img = Frag.assemble frag ~text:false in
      u.sections <-
        Section.make ~name:(Ast.hook_section kind) ~kind:Section.Note
          ~align:4 img.data img.relocs
        :: u.sections)
    hook_kinds;
  let obj =
    Objfile.make ~unit_name:tu.tu_name ~sections:(List.rev u.sections)
      ~symbols:(List.rev u.symbols)
  in
  (* undefined external references *)
  let undef =
    Objfile.undefined_symbols obj
    |> List.filter (fun n ->
         not (String.length n >= 2 && n.[0] = '.' && n.[1] = 'L'))
    |> List.map (fun n -> Symbol.make ~name:n None)
  in
  { obj with symbols = obj.symbols @ undef }
