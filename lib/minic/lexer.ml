type keyword =
  | Kvoid | Kchar | Kshort | Kint | Kstruct
  | Kif | Kelse | Kwhile | Kfor | Kdo | Kswitch | Kcase | Kdefault
  | Kreturn | Kbreak | Kcontinue
  | Kstatic | Kinline | Kextern | Ksizeof
  | Khook of Ast.hook_kind

type punct =
  | Shl_eq | Shr_eq | Shl | Shr
  | Le | Ge | Lt | Gt | Eq | Ne
  | Land | Lor | Bang | Arrow
  | Plus_eq | Minus_eq | Star_eq | Slash_eq
  | Percent_eq | Amp_eq | Bar_eq | Caret_eq
  | Incr | Decr | Assign | Tilde
  | Plus | Minus | Star | Slash | Percent
  | Amp | Bar | Caret
  | Lparen | Rparen | Lbrace | Rbrace
  | Lbracket | Rbracket | Semi | Comma | Dot | Colon

type token =
  | INT of int32
  | CHARLIT of char
  | STRING of string
  | IDENT of string
  | KW of keyword
  | PUNCT of punct
  | EOF

type t = {
  tok : token;
  line : int;
}

exception Error of { line : int; msg : string }

let err line fmt =
  Format.kasprintf (fun msg -> raise (Error { line; msg })) fmt

let keyword_to_string = function
  | Kvoid -> "void"
  | Kchar -> "char"
  | Kshort -> "short"
  | Kint -> "int"
  | Kstruct -> "struct"
  | Kif -> "if"
  | Kelse -> "else"
  | Kwhile -> "while"
  | Kfor -> "for"
  | Kdo -> "do"
  | Kswitch -> "switch"
  | Kcase -> "case"
  | Kdefault -> "default"
  | Kreturn -> "return"
  | Kbreak -> "break"
  | Kcontinue -> "continue"
  | Kstatic -> "static"
  | Kinline -> "inline"
  | Kextern -> "extern"
  | Ksizeof -> "sizeof"
  | Khook Ast.Hook_apply -> "ksplice_apply"
  | Khook Ast.Hook_pre_apply -> "ksplice_pre_apply"
  | Khook Ast.Hook_post_apply -> "ksplice_post_apply"
  | Khook Ast.Hook_reverse -> "ksplice_reverse"
  | Khook Ast.Hook_pre_reverse -> "ksplice_pre_reverse"
  | Khook Ast.Hook_post_reverse -> "ksplice_post_reverse"
  | Khook Ast.Hook_shadow_ctor -> "ksplice_shadow_ctor"
  | Khook Ast.Hook_shadow_dtor -> "ksplice_shadow_dtor"

(* The inverse of [keyword_to_string], or an identifier. Every token
   here is a constant, so a keyword costs only its [String.sub]. *)
let word = function
  | "void" -> KW Kvoid
  | "char" -> KW Kchar
  | "short" -> KW Kshort
  | "int" -> KW Kint
  | "struct" -> KW Kstruct
  | "if" -> KW Kif
  | "else" -> KW Kelse
  | "while" -> KW Kwhile
  | "for" -> KW Kfor
  | "do" -> KW Kdo
  | "switch" -> KW Kswitch
  | "case" -> KW Kcase
  | "default" -> KW Kdefault
  | "return" -> KW Kreturn
  | "break" -> KW Kbreak
  | "continue" -> KW Kcontinue
  | "static" -> KW Kstatic
  | "inline" -> KW Kinline
  | "extern" -> KW Kextern
  | "sizeof" -> KW Ksizeof
  | "ksplice_apply" -> KW (Khook Ast.Hook_apply)
  | "ksplice_pre_apply" -> KW (Khook Ast.Hook_pre_apply)
  | "ksplice_post_apply" -> KW (Khook Ast.Hook_post_apply)
  | "ksplice_reverse" -> KW (Khook Ast.Hook_reverse)
  | "ksplice_pre_reverse" -> KW (Khook Ast.Hook_pre_reverse)
  | "ksplice_post_reverse" -> KW (Khook Ast.Hook_post_reverse)
  | "ksplice_shadow_ctor" -> KW (Khook Ast.Hook_shadow_ctor)
  | "ksplice_shadow_dtor" -> KW (Khook Ast.Hook_shadow_dtor)
  | s -> IDENT s

let punct_to_string = function
  | Shl_eq -> "<<="
  | Shr_eq -> ">>="
  | Shl -> "<<"
  | Shr -> ">>"
  | Le -> "<="
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="
  | Land -> "&&"
  | Lor -> "||"
  | Arrow -> "->"
  | Plus_eq -> "+="
  | Minus_eq -> "-="
  | Star_eq -> "*="
  | Slash_eq -> "/="
  | Percent_eq -> "%="
  | Amp_eq -> "&="
  | Bar_eq -> "|="
  | Caret_eq -> "^="
  | Incr -> "++"
  | Decr -> "--"
  | Plus -> "+"
  | Minus -> "-"
  | Star -> "*"
  | Slash -> "/"
  | Percent -> "%"
  | Amp -> "&"
  | Bar -> "|"
  | Caret -> "^"
  | Bang -> "!"
  | Tilde -> "~"
  | Lt -> "<"
  | Gt -> ">"
  | Assign -> "="
  | Lparen -> "("
  | Rparen -> ")"
  | Lbrace -> "{"
  | Rbrace -> "}"
  | Lbracket -> "["
  | Rbracket -> "]"
  | Semi -> ";"
  | Comma -> ","
  | Dot -> "."
  | Colon -> ":"

(* The longest punctuator that starts with [c], given the two characters
   after it ('\000' past the end of the input), as a token and its
   length. Both are constants: recognising a punctuator allocates
   nothing. *)
let punct line c c1 c2 =
  match c with
  | '<' ->
    if c1 = '<' then if c2 = '=' then (PUNCT Shl_eq, 3) else (PUNCT Shl, 2)
    else if c1 = '=' then (PUNCT Le, 2)
    else (PUNCT Lt, 1)
  | '>' ->
    if c1 = '>' then if c2 = '=' then (PUNCT Shr_eq, 3) else (PUNCT Shr, 2)
    else if c1 = '=' then (PUNCT Ge, 2)
    else (PUNCT Gt, 1)
  | '=' -> if c1 = '=' then (PUNCT Eq, 2) else (PUNCT Assign, 1)
  | '!' -> if c1 = '=' then (PUNCT Ne, 2) else (PUNCT Bang, 1)
  | '&' ->
    if c1 = '&' then (PUNCT Land, 2)
    else if c1 = '=' then (PUNCT Amp_eq, 2)
    else (PUNCT Amp, 1)
  | '|' ->
    if c1 = '|' then (PUNCT Lor, 2)
    else if c1 = '=' then (PUNCT Bar_eq, 2)
    else (PUNCT Bar, 1)
  | '-' ->
    if c1 = '>' then (PUNCT Arrow, 2)
    else if c1 = '=' then (PUNCT Minus_eq, 2)
    else if c1 = '-' then (PUNCT Decr, 2)
    else (PUNCT Minus, 1)
  | '+' ->
    if c1 = '=' then (PUNCT Plus_eq, 2)
    else if c1 = '+' then (PUNCT Incr, 2)
    else (PUNCT Plus, 1)
  | '*' -> if c1 = '=' then (PUNCT Star_eq, 2) else (PUNCT Star, 1)
  | '/' -> if c1 = '=' then (PUNCT Slash_eq, 2) else (PUNCT Slash, 1)
  | '%' -> if c1 = '=' then (PUNCT Percent_eq, 2) else (PUNCT Percent, 1)
  | '^' -> if c1 = '=' then (PUNCT Caret_eq, 2) else (PUNCT Caret, 1)
  | '~' -> (PUNCT Tilde, 1)
  | '(' -> (PUNCT Lparen, 1)
  | ')' -> (PUNCT Rparen, 1)
  | '{' -> (PUNCT Lbrace, 1)
  | '}' -> (PUNCT Rbrace, 1)
  | '[' -> (PUNCT Lbracket, 1)
  | ']' -> (PUNCT Rbracket, 1)
  | ';' -> (PUNCT Semi, 1)
  | ',' -> (PUNCT Comma, 1)
  | '.' -> (PUNCT Dot, 1)
  | ':' -> (PUNCT Colon, 1)
  | c -> err line "unexpected character %C" c

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
  | _ -> false

let is_digit = function '0' .. '9' -> true | _ -> false

let unescape_char line = function
  | 'n' -> '\n'
  | 't' -> '\t'
  | 'r' -> '\r'
  | '0' -> '\000'
  | '\\' -> '\\'
  | '\'' -> '\''
  | '"' -> '"'
  | c -> err line "bad escape \\%c" c

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 in
  let push tok = toks := { tok; line = !line } :: !toks in
  let at k = if k < n then src.[k] else '\000' in
  let i = ref 0 in
  while !i < n do
    match src.[!i] with
    | '\n' ->
      incr line;
      incr i
    | ' ' | '\t' | '\r' -> incr i
    | '/' when at (!i + 1) = '/' ->
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    | '/' when at (!i + 1) = '*' ->
      i := !i + 2;
      let closed = ref false in
      while not !closed do
        if !i + 1 >= n then err !line "unterminated comment"
        else if src.[!i] = '*' && src.[!i + 1] = '/' then begin
          i := !i + 2;
          closed := true
        end
        else begin
          if src.[!i] = '\n' then incr line;
          incr i
        end
      done
    | '0' .. '9' as c -> (
      let start = !i in
      let hex = c = '0' && (at (!i + 1) = 'x' || at (!i + 1) = 'X') in
      if hex then begin
        i := !i + 2;
        while
          !i < n
          && (is_digit src.[!i]
              || match src.[!i] with 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false)
        do
          incr i
        done
      end
      else
        while !i < n && is_digit src.[!i] do
          incr i
        done;
      let s = String.sub src start (!i - start) in
      (* a decimal, like a hex literal, may reach 2^32 - 1 and wraps to 32
         bits, so INT_MIN can be written; [0u] makes [Int32.of_string]
         read it that way *)
      match Int32.of_string_opt (if hex then s else "0u" ^ s) with
      | Some v -> push (INT v)
      | None -> err !line "bad integer literal %S" s)
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
      let start = !i in
      while !i < n && is_ident_char src.[!i] do
        incr i
      done;
      push (word (String.sub src start (!i - start)))
    | '"' ->
      incr i;
      let b = Buffer.create 16 in
      let closed = ref false in
      while not !closed do
        if !i >= n then err !line "unterminated string"
        else if src.[!i] = '"' then begin
          incr i;
          closed := true
        end
        else if src.[!i] = '\\' then begin
          if !i + 1 >= n then err !line "unterminated string";
          Buffer.add_char b (unescape_char !line src.[!i + 1]);
          i := !i + 2
        end
        else begin
          if src.[!i] = '\n' then err !line "newline in string";
          Buffer.add_char b src.[!i];
          incr i
        end
      done;
      push (STRING (Buffer.contents b))
    | '\'' ->
      if !i + 2 >= n then err !line "bad char literal";
      if src.[!i + 1] = '\\' then begin
        if !i + 3 >= n || src.[!i + 3] <> '\'' then err !line "bad char literal";
        push (CHARLIT (unescape_char !line src.[!i + 2]));
        i := !i + 4
      end
      else begin
        if src.[!i + 2] <> '\'' then err !line "bad char literal";
        push (CHARLIT src.[!i + 1]);
        i := !i + 3
      end
    | c ->
      let tok, len = punct !line c (at (!i + 1)) (at (!i + 2)) in
      push tok;
      i := !i + len
  done;
  push EOF;
  List.rev !toks
