open Ast
open Lexer

exception Error of { line : int; msg : string }

type state = {
  toks : Lexer.t array;
  mutable pos : int;
}

let err st fmt =
  let line =
    if st.pos < Array.length st.toks then st.toks.(st.pos).line else 0
  in
  Format.kasprintf (fun msg -> raise (Error { line; msg })) fmt

let peek st = st.toks.(st.pos).tok
let peek2 st =
  if st.pos + 1 < Array.length st.toks then st.toks.(st.pos + 1).tok
  else EOF

let advance st = st.pos <- st.pos + 1

let eat_punct st p =
  match peek st with
  | PUNCT q when q = p -> advance st
  | t ->
    err st "expected %S, got %s" (punct_to_string p)
      (match t with
       | IDENT s -> Printf.sprintf "identifier %S" s
       | KW k -> Printf.sprintf "keyword %S" (keyword_to_string k)
       | PUNCT q -> Printf.sprintf "%S" (punct_to_string q)
       | INT v -> Printf.sprintf "integer %ld" v
       | CHARLIT c -> Printf.sprintf "char %C" c
       | STRING s -> Printf.sprintf "string %S" s
       | EOF -> "end of file")

let accept_punct st p =
  match peek st with
  | PUNCT q when q = p ->
    advance st;
    true
  | _ -> false

let accept_kw st k =
  match peek st with
  | KW q when q = k ->
    advance st;
    true
  | _ -> false

let expect_ident st =
  match peek st with
  | IDENT s ->
    advance st;
    s
  | _ -> err st "expected identifier"

(* --- types --- *)

let is_type_start st =
  match peek st with
  | KW (Kvoid | Kchar | Kshort | Kint | Kstruct) -> true
  | _ -> false

let parse_base_type st =
  match peek st with
  | KW Kvoid -> advance st; Void
  | KW Kchar -> advance st; Char
  | KW Kshort -> advance st; Short
  | KW Kint -> advance st; Int
  | KW Kstruct ->
    advance st;
    Struct (expect_ident st)
  | _ -> err st "expected type"

let parse_type st =
  let t = ref (parse_base_type st) in
  while accept_punct st Star do
    t := Ptr !t
  done;
  !t

(* --- expressions --- *)

(* Binary operators: each punctuator's operator and precedence level,
   from [||] (1) to the multiplicative operators (10). Every level is
   left-associative. *)
let binop = function
  | Lor -> Some (Blor, 1)
  | Land -> Some (Bland, 2)
  | Bar -> Some (Bor, 3)
  | Caret -> Some (Bxor, 4)
  | Amp -> Some (Band, 5)
  | Eq -> Some (Beq, 6)
  | Ne -> Some (Bne, 6)
  | Lt -> Some (Blt, 7)
  | Le -> Some (Ble, 7)
  | Gt -> Some (Bgt, 7)
  | Ge -> Some (Bge, 7)
  | Shl -> Some (Bshl, 8)
  | Shr -> Some (Bshr, 8)
  | Plus -> Some (Badd, 9)
  | Minus -> Some (Bsub, 9)
  | Star -> Some (Bmul, 10)
  | Slash -> Some (Bdiv, 10)
  | Percent -> Some (Bmod, 10)
  | _ -> None

let rec parse_expr st = parse_assign st

and parse_assign st =
  let lhs = parse_binary st 1 in
  if accept_punct st Assign then
    let rhs = parse_assign st in
    Eassign (lhs, rhs)
  else
    let compound =
      match peek st with
      | PUNCT Plus_eq -> Some Badd
      | PUNCT Minus_eq -> Some Bsub
      | PUNCT Star_eq -> Some Bmul
      | PUNCT Slash_eq -> Some Bdiv
      | PUNCT Percent_eq -> Some Bmod
      | PUNCT Amp_eq -> Some Band
      | PUNCT Bar_eq -> Some Bor
      | PUNCT Caret_eq -> Some Bxor
      | PUNCT Shl_eq -> Some Bshl
      | PUNCT Shr_eq -> Some Bshr
      | _ -> None
    in
    match compound with
    | None -> lhs
    | Some op ->
      advance st;
      let rhs = parse_assign st in
      Ecompound (op, lhs, rhs)

(* Precedence climbing: [parse_binary st min] parses a chain of unary
   operands joined by operators of level [min] or above; an operator's
   right operand binds only the levels above its own. *)
and parse_binary st min =
  let lhs = ref (parse_unary st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | PUNCT p -> (
      match binop p with
      | Some (op, level) when level >= min ->
        advance st;
        let rhs = parse_binary st (level + 1) in
        lhs := Ebin (op, !lhs, rhs)
      | _ -> continue := false)
    | _ -> continue := false
  done;
  !lhs

and parse_unary st =
  match peek st with
  | PUNCT Incr ->
    advance st;
    let e = parse_unary st in
    Ecompound (Badd, e, Eint 1l)
  | PUNCT Decr ->
    advance st;
    let e = parse_unary st in
    Ecompound (Bsub, e, Eint 1l)
  | PUNCT Minus ->
    advance st;
    Eun (Uneg, parse_unary st)
  | PUNCT Bang ->
    advance st;
    Eun (Unot, parse_unary st)
  | PUNCT Tilde ->
    advance st;
    Eun (Ubnot, parse_unary st)
  | PUNCT Star ->
    advance st;
    Ederef (parse_unary st)
  | PUNCT Amp ->
    advance st;
    Eaddr (parse_unary st)
  | KW Ksizeof ->
    advance st;
    eat_punct st Lparen;
    let t = parse_type st in
    eat_punct st Rparen;
    Esizeof t
  | PUNCT Lparen when (match peek2 st with
                       | KW (Kvoid | Kchar | Kshort | Kint | Kstruct) -> true
                       | _ -> false) ->
    advance st;
    let t = parse_type st in
    eat_punct st Rparen;
    Ecast (t, parse_unary st)
  | _ -> parse_postfix st

and parse_postfix st =
  let e = ref (parse_primary st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | PUNCT Lparen ->
      advance st;
      let args = parse_args st in
      (e :=
         match !e with
         | Eident f -> Ecall (f, args)
         | other -> Eicall (other, args))
    | PUNCT Lbracket ->
      advance st;
      let idx = parse_expr st in
      eat_punct st Rbracket;
      e := Eindex (!e, idx)
    | PUNCT Incr ->
      advance st;
      e := Epostop (Badd, !e)
    | PUNCT Decr ->
      advance st;
      e := Epostop (Bsub, !e)
    | PUNCT Dot ->
      advance st;
      e := Efield (!e, expect_ident st)
    | PUNCT Arrow ->
      advance st;
      e := Earrow (!e, expect_ident st)
    | _ -> continue := false
  done;
  !e

and parse_args st =
  if accept_punct st Rparen then []
  else begin
    let args = ref [ parse_expr st ] in
    while accept_punct st Comma do
      args := parse_expr st :: !args
    done;
    eat_punct st Rparen;
    List.rev !args
  end

and parse_primary st =
  match peek st with
  | INT v ->
    advance st;
    Eint v
  | CHARLIT c ->
    advance st;
    Echar c
  | STRING s ->
    advance st;
    Estr s
  | IDENT s ->
    advance st;
    Eident s
  | PUNCT Lparen ->
    advance st;
    let e = parse_expr st in
    eat_punct st Rparen;
    e
  | _ -> err st "expected expression"

(* --- statements --- *)

let rec parse_stmt st =
  match peek st with
  | PUNCT Lbrace -> Sblock (parse_block st)
  | PUNCT Semi ->
    advance st;
    Sblock []
  | KW Kif ->
    advance st;
    eat_punct st Lparen;
    let cond = parse_expr st in
    eat_punct st Rparen;
    let then_ = parse_stmt_as_list st in
    let else_ = if accept_kw st Kelse then parse_stmt_as_list st else [] in
    Sif (cond, then_, else_)
  | KW Kwhile ->
    advance st;
    eat_punct st Lparen;
    let cond = parse_expr st in
    eat_punct st Rparen;
    Swhile (cond, parse_stmt_as_list st)
  | KW Kdo ->
    advance st;
    let body = parse_stmt_as_list st in
    (match peek st with
     | KW Kwhile -> advance st
     | _ -> err st "expected while after do body");
    eat_punct st Lparen;
    let cond = parse_expr st in
    eat_punct st Rparen;
    eat_punct st Semi;
    Sdowhile (body, cond)
  | KW Kswitch ->
    advance st;
    eat_punct st Lparen;
    let scrutinee = parse_expr st in
    eat_punct st Rparen;
    eat_punct st Lbrace;
    let cases = ref [] in
    while not (accept_punct st Rbrace) do
      let const =
        match peek st with
        | KW Kcase ->
          advance st;
          let c = parse_expr st in
          eat_punct st Colon;
          Some c
        | KW Kdefault ->
          advance st;
          eat_punct st Colon;
          None
        | _ -> err st "expected case or default"
      in
      let body = ref [] in
      let stop () =
        match peek st with
        | KW (Kcase | Kdefault) | PUNCT Rbrace -> true
        | _ -> false
      in
      while not (stop ()) do
        body := parse_stmt st :: !body
      done;
      cases := { sc_const = const; sc_body = List.rev !body } :: !cases
    done;
    Sswitch (scrutinee, List.rev !cases)
  | KW Kfor ->
    advance st;
    eat_punct st Lparen;
    let init =
      if accept_punct st Semi then None
      else begin
        let e = parse_expr st in
        eat_punct st Semi;
        Some e
      end
    in
    let cond =
      if accept_punct st Semi then None
      else begin
        let e = parse_expr st in
        eat_punct st Semi;
        Some e
      end
    in
    let step =
      if accept_punct st Rparen then None
      else begin
        let e = parse_expr st in
        eat_punct st Rparen;
        Some e
      end
    in
    Sfor (init, cond, step, parse_stmt_as_list st)
  | KW Kreturn ->
    advance st;
    if accept_punct st Semi then Sreturn None
    else begin
      let e = parse_expr st in
      eat_punct st Semi;
      Sreturn (Some e)
    end
  | KW Kbreak ->
    advance st;
    eat_punct st Semi;
    Sbreak
  | KW Kcontinue ->
    advance st;
    eat_punct st Semi;
    Scontinue
  | KW Kstatic ->
    advance st;
    let d = parse_local_decl st ~static:true in
    Sdecl d
  | _ when is_type_start st ->
    let d = parse_local_decl st ~static:false in
    Sdecl d
  | _ ->
    let e = parse_expr st in
    eat_punct st Semi;
    Sexpr e

and parse_stmt_as_list st =
  match parse_stmt st with Sblock l -> l | s -> [ s ]

and parse_block st =
  eat_punct st Lbrace;
  let stmts = ref [] in
  while not (accept_punct st Rbrace) do
    stmts := parse_stmt st :: !stmts
  done;
  List.rev !stmts

and parse_local_decl st ~static =
  let ty = parse_type st in
  let name = expect_ident st in
  let ty =
    if accept_punct st Lbracket then begin
      let n =
        match peek st with
        | INT v ->
          advance st;
          Int32.to_int v
        | _ -> err st "expected array size"
      in
      eat_punct st Rbracket;
      Array (ty, n)
    end
    else ty
  in
  let init =
    if accept_punct st Assign then Some (parse_expr st) else None
  in
  eat_punct st Semi;
  { d_static = static; d_ty = ty; d_name = name; d_init = init }

(* --- top level --- *)

let parse_initializer st =
  if accept_punct st Lbrace then begin
    let items = ref [ parse_expr st ] in
    while accept_punct st Comma do
      items := parse_expr st :: !items
    done;
    eat_punct st Rbrace;
    Init_list (List.rev !items)
  end
  else
    match peek st with
    | STRING s ->
      advance st;
      Init_string s
    | _ -> Init_scalar (parse_expr st)

let parse_params st =
  eat_punct st Lparen;
  if accept_punct st Rparen then []
  else if (match (peek st, peek2 st) with
           | KW Kvoid, PUNCT Rparen -> true
           | _ -> false)
  then begin
    advance st;
    eat_punct st Rparen;
    []
  end
  else begin
    let param () =
      let ty = parse_type st in
      let name =
        match peek st with
        | IDENT s ->
          advance st;
          s
        | _ -> err st "expected parameter name"
      in
      (ty, name)
    in
    let ps = ref [ param () ] in
    while accept_punct st Comma do
      ps := param () :: !ps
    done;
    eat_punct st Rparen;
    List.rev !ps
  end

let parse_topdecl st =
  match peek st with
  | KW (Khook kind) ->
    advance st;
    eat_punct st Lparen;
    let f = expect_ident st in
    eat_punct st Rparen;
    eat_punct st Semi;
    Thook (kind, f)
  | KW Kstruct when st.pos + 2 < Array.length st.toks
                    && (match st.toks.(st.pos + 2).tok with
                        | PUNCT Lbrace -> true
                        | _ -> false) ->
    advance st;
    let name = expect_ident st in
    eat_punct st Lbrace;
    let fields = ref [] in
    while not (accept_punct st Rbrace) do
      let ty = parse_type st in
      let fname = expect_ident st in
      eat_punct st Semi;
      fields := (ty, fname) :: !fields
    done;
    eat_punct st Semi;
    Tstruct { s_name = name; s_fields = List.rev !fields }
  | _ ->
    let static = ref false and inline = ref false and extern = ref false in
    let quals = ref true in
    while !quals do
      if accept_kw st Kstatic then static := true
      else if accept_kw st Kinline then inline := true
      else if accept_kw st Kextern then extern := true
      else quals := false
    done;
    let ty = parse_type st in
    let name = expect_ident st in
    if (match peek st with PUNCT Lparen -> true | _ -> false) then begin
      let params = parse_params st in
      if accept_punct st Semi then
        Tfunc
          { f_static = !static; f_inline = !inline; f_ret = ty; f_name = name;
            f_params = params; f_body = None }
      else
        Tfunc
          { f_static = !static; f_inline = !inline; f_ret = ty; f_name = name;
            f_params = params; f_body = Some (parse_block st) }
    end
    else begin
      let ty =
        if accept_punct st Lbracket then begin
          let n =
            match peek st with
            | INT v ->
              advance st;
              Int32.to_int v
            | _ -> err st "expected array size"
          in
          eat_punct st Rbracket;
          Array (ty, n)
        end
        else ty
      in
      let init =
        if accept_punct st Assign then Some (parse_initializer st) else None
      in
      eat_punct st Semi;
      if !extern && Option.is_some init then
        err st "extern declaration cannot have an initializer"
      else
        Tglobal
          { g_static = !static; g_extern = !extern; g_ty = ty; g_name = name;
            g_init = init }
    end

let parse src =
  let st = { toks = Array.of_list (tokenize src); pos = 0 } in
  let rec decls acc =
    match peek st with
    | EOF -> List.rev acc
    | _ -> decls (parse_topdecl st :: acc)
  in
  decls []
