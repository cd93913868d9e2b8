(** Lexer for MiniC.

    Keywords and punctuators are constant constructors, so lexing them
    allocates no payload: only identifiers and literals carry a string
    or a boxed value. Each keyword and punctuator prints back as its
    source spelling for error messages. *)

type keyword =
  | Kvoid | Kchar | Kshort | Kint | Kstruct
  | Kif | Kelse | Kwhile | Kfor | Kdo | Kswitch | Kcase | Kdefault
  | Kreturn | Kbreak | Kcontinue
  | Kstatic | Kinline | Kextern | Ksizeof
  | Khook of Ast.hook_kind
      (** [ksplice_apply], [ksplice_pre_apply], ...: the custom-code hook
          registrations, one per hook kind *)

(** Operators and punctuation; each line notes its spellings. *)
type punct =
  | Shl_eq | Shr_eq | Shl | Shr  (* <<= >>= << >> *)
  | Le | Ge | Lt | Gt | Eq | Ne  (* <= >= < > == != *)
  | Land | Lor | Bang | Arrow  (* && || ! -> *)
  | Plus_eq | Minus_eq | Star_eq | Slash_eq  (* += -= *= /= *)
  | Percent_eq | Amp_eq | Bar_eq | Caret_eq  (* %= &= |= ^= *)
  | Incr | Decr | Assign | Tilde  (* ++ -- = ~ *)
  | Plus | Minus | Star | Slash | Percent  (* + - * / % *)
  | Amp | Bar | Caret  (* & | ^ *)
  | Lparen | Rparen | Lbrace | Rbrace  (* ( ) { } *)
  | Lbracket | Rbracket | Semi | Comma | Dot | Colon  (* [ ] ; , . : *)

type token =
  | INT of int32  (** decimal or [0x] hex, wrapping to 32 bits *)
  | CHARLIT of char
  | STRING of string  (** escapes already resolved *)
  | IDENT of string  (** also a word that only starts with a keyword *)
  | KW of keyword
  | PUNCT of punct  (** longest match: [a<<=b] is [a], [<<=], [b] *)
  | EOF

type t = {
  tok : token;
  line : int;  (** 1-based; a block comment counts the newlines it spans *)
}

exception Error of { line : int; msg : string }

(** The source spelling: [keyword_to_string Kint] is ["int"]. *)
val keyword_to_string : keyword -> string

(** The source spelling: [punct_to_string Shl_eq] is ["<<="]. *)
val punct_to_string : punct -> string

(** [tokenize src] lexes the whole source; the last token is [EOF].
    @raise Error on bad input, with the line it was found on. *)
val tokenize : string -> t list
