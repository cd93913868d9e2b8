(* MiniC lexer and parser front-end tests: every keyword and punctuator,
   longest match, literals and escapes, comments against line numbers,
   and every lexer and parser error with its message and line. The error
   cases go through [Driver.compile], the way a build reports them. *)

module Lexer = Minic.Lexer
module Driver = Minic.Driver

let t name f = Alcotest.test_case name `Quick f
let strings = Alcotest.(list string)

(* a token as the parser's error messages name it *)
let render = function
  | Lexer.IDENT s -> Printf.sprintf "identifier %S" s
  | Lexer.KW k -> Printf.sprintf "keyword %S" (Lexer.keyword_to_string k)
  | Lexer.PUNCT p -> Printf.sprintf "%S" (Lexer.punct_to_string p)
  | Lexer.INT v -> Printf.sprintf "integer %ld" v
  | Lexer.CHARLIT c -> Printf.sprintf "char %C" c
  | Lexer.STRING s -> Printf.sprintf "string %S" s
  | Lexer.EOF -> "end of file"

let lex src = List.map (fun (tk : Lexer.t) -> render tk.tok) (Lexer.tokenize src)
let eof = "end of file"

let keywords =
  [ "void"; "char"; "short"; "int"; "struct"; "if"; "else"; "while"; "for";
    "do"; "switch"; "case"; "default"; "return"; "break"; "continue";
    "static"; "inline"; "extern"; "sizeof"; "ksplice_apply";
    "ksplice_pre_apply"; "ksplice_post_apply"; "ksplice_reverse";
    "ksplice_pre_reverse"; "ksplice_post_reverse"; "ksplice_shadow_ctor";
    "ksplice_shadow_dtor" ]

let puncts =
  [ "<<="; ">>="; "<<"; ">>"; "<="; ">="; "=="; "!="; "&&"; "||"; "->";
    "+="; "-="; "*="; "/="; "%="; "&="; "|="; "^="; "++"; "--"; "+"; "-";
    "*"; "/"; "%"; "&"; "|"; "^"; "!"; "~"; "<"; ">"; "="; "("; ")"; "{";
    "}"; "["; "]"; ";"; ","; "."; ":" ]

let test_keywords () =
  List.iter
    (fun kw ->
      Alcotest.check strings kw [ Printf.sprintf "keyword %S" kw; eof ] (lex kw))
    keywords;
  (* an identifier that merely starts with a keyword is an identifier *)
  List.iter
    (fun id ->
      Alcotest.check strings id [ Printf.sprintf "identifier %S" id; eof ] (lex id))
    [ "intx"; "if_"; "returned"; "ksplice_applyx"; "Int"; "_do"; "sizeof2" ]

let test_punctuators () =
  List.iter
    (fun p -> Alcotest.check strings p [ Printf.sprintf "%S" p; eof ] (lex p))
    puncts;
  Alcotest.check strings "all, space-separated"
    (List.map (Printf.sprintf "%S") puncts @ [ eof ])
    (lex (String.concat " " puncts));
  let id s = Printf.sprintf "identifier %S" s and p s = Printf.sprintf "%S" s in
  List.iter
    (fun (src, want) -> Alcotest.check strings src (want @ [ eof ]) (lex src))
    [
      ("a<<=b>>=c", [ id "a"; p "<<="; id "b"; p ">>="; id "c" ]);
      ("p->q", [ id "p"; p "->"; id "q" ]);
      ("x---y", [ id "x"; p "--"; p "-"; id "y" ]);
      ("!x!=y", [ p "!"; id "x"; p "!="; id "y" ]);
      ("a&&&b||c|d", [ id "a"; p "&&"; p "&"; id "b"; p "||"; id "c"; p "|"; id "d" ]);
      ("a<<b<c<=d", [ id "a"; p "<<"; id "b"; p "<"; id "c"; p "<="; id "d" ]);
      ("i+++j", [ id "i"; p "++"; p "+"; id "j" ]);
      ("a==b=c", [ id "a"; p "=="; id "b"; p "="; id "c" ]);
      ("a/b/=c", [ id "a"; p "/"; id "b"; p "/="; id "c" ]);
      (* a punctuator cut short by the end of the input *)
      ("a<", [ id "a"; p "<" ]);
      ("a<<", [ id "a"; p "<<" ]);
      ("a-", [ id "a"; p "-" ]);
      ("s.f:", [ id "s"; p "."; id "f"; p ":" ]);
    ]

let test_literals () =
  Alcotest.check strings "integers"
    [ "integer 31"; "integer 42"; "integer 0"; "integer -1"; "integer 255";
      "integer 7"; "integer 123"; "identifier \"abc\""; eof ]
    (lex "0x1F 42 0 0xFFFFFFFF 0Xff 07 123abc");
  (* decimals wrap to 32 bits like hex, so INT_MIN can be written *)
  Alcotest.check strings "decimal INT_MIN and UINT_MAX"
    [ "integer 2147483647"; "integer -2147483648"; "integer -1"; eof ]
    (lex "2147483647 2147483648 4294967295");
  Alcotest.check strings "chars"
    [ "char 'a'"; "char '\\n'"; "char '\\''"; "char '\\\\'"; "char '\\000'";
      "char '\"'"; eof ]
    (lex {|'a' '\n' '\'' '\\' '\0' '"'|});
  Alcotest.check strings "strings"
    [ Printf.sprintf "string %S" "a\tb\"c\\d\r\n\000'"; Printf.sprintf "string %S" "";
      eof ]
    (lex {|"a\tb\"c\\d\r\n\0\'" ""|})

let test_comments_and_lines () =
  let src = "a // one\n/* two\nthree */ b\n\"s\" /**/ c /* x */\n// end" in
  Alcotest.(check (list (pair string int)))
    "tokens with their lines"
    [ ({|identifier "a"|}, 1); ({|identifier "b"|}, 3); ({|string "s"|}, 4);
      ({|identifier "c"|}, 4); (eof, 5) ]
    (List.map (fun (tk : Lexer.t) -> (render tk.tok, tk.line)) (Lexer.tokenize src));
  Alcotest.check strings "a comment is not division" [ {|identifier "x"|}; eof ]
    (lex "x//y\n/**//**/")

(* the message a build reports for [src] in unit t.c *)
let error_of src =
  match Driver.compile ~options:Driver.run_build ~unit_name:"t.c" src with
  | Ok _ -> Alcotest.failf "expected an error for %S" src
  | Error e -> Format.asprintf "%a" Driver.pp_error e

let check_errors cases =
  List.iter (fun (src, want) -> Alcotest.(check string) src want (error_of src)) cases

let test_lexer_errors () =
  check_errors
    [
      ("int x;\n@", "t.c:2: unexpected character '@'");
      ("int x;\nint y = 1 # 2;", "t.c:2: unexpected character '#'");
      ("int x;\n/* never\nclosed", "t.c:3: unterminated comment");
      ("int x; /*", "t.c:1: unterminated comment");
      ("int x;\nchar *s = \"abc", "t.c:2: unterminated string");
      ("char *s = \"abc\\", "t.c:1: unterminated string");
      ("int x;\nchar *s = \"ab\ncd\";", "t.c:2: newline in string");
      ("int c = 'ab';", "t.c:1: bad char literal");
      ("int c = '\\n;", "t.c:1: bad char literal");
      ("int c = 'a", "t.c:1: bad char literal");
      ("\nchar *s = \"a\\qb\";", "t.c:2: bad escape \\q");
      ("int c = '\\z';", "t.c:1: bad escape \\z");
      ("int x = 0x;", "t.c:1: bad integer literal \"0x\"");
      ("int x =\n 99999999999;", "t.c:2: bad integer literal \"99999999999\"");
      ("int x = 4294967296;", "t.c:1: bad integer literal \"4294967296\"");
    ]

let test_parser_errors () =
  check_errors
    [
      ("int f() { return 1 x; }", {|t.c:1: expected ";", got identifier "x"|});
      ("int f(int a", {|t.c:1: expected ")", got end of file|});
      ("int x\nint y;", {|t.c:2: expected ";", got keyword "int"|});
      ("int f() { return (1 2); }", {|t.c:1: expected ")", got integer 2|});
      ("int f() { return g(1 'c'); }", {|t.c:1: expected ")", got char 'c'|});
      ("int f() {\n return (1 \"s\"); }", {|t.c:2: expected ")", got string "s"|});
      ("int a[3 + 1];", {|t.c:1: expected "]", got "+"|});
      ("int f() { return 1 +; }", "t.c:1: expected expression");
      ("int f() {\n  return 1 +;\n}", "t.c:2: expected expression");
      ("int 3;", "t.c:1: expected identifier");
      ("x y;", "t.c:1: expected type");
      ("int f(int) { return 0; }", "t.c:1: expected parameter name");
      ("int a[n];", "t.c:1: expected array size");
      ("int f() { do ; until (1); }", "t.c:1: expected while after do body");
      ("int f(int x) { switch (x) { x; } }", "t.c:1: expected case or default");
      ("extern int x = 1;", "t.c:1: extern declaration cannot have an initializer");
      ("ksplice_apply(1);", "t.c:1: expected identifier");
    ]

let suite =
  [
    ( "lexer",
      [
        t "keywords" test_keywords;
        t "punctuators" test_punctuators;
        t "literals" test_literals;
        t "comments and lines" test_comments_and_lines;
        t "lexer errors" test_lexer_errors;
        t "parser errors" test_parser_errors;
      ] );
  ]
