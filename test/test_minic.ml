(* End-to-end MiniC compiler tests: compile, link, boot, execute on the
   VM, and check results. Every test runs under both build flavours (the
   distro-style "run" build and the Ksplice-style function-sections "pre"
   build) — the two must agree observably, which is the determinism
   run-pre matching relies on. *)

module Driver = Minic.Driver
module Image = Klink.Image
module Machine = Kernel.Machine

let check = Alcotest.check
let int32_c = Alcotest.int32

let compile ?(opts = Driver.run_build) ?(unit_name = "t.c") src =
  (Fixture.compile ~options:opts ~unit_name src).obj

let rejected src =
  Result.is_error
    (Driver.compile ~options:Driver.run_build ~unit_name:"t.c" src)

let boot objs =
  let img = Fixture.link ~base:0x100000 objs in
  (img, Machine.create img)

let call m img fn args =
  let sym =
    match Image.lookup_global img fn with
    | Some s -> s
    | None -> Alcotest.failf "symbol %s not found" fn
  in
  match Machine.call_function m ~addr:sym.addr ~args with
  | Ok v -> v
  | Error f -> Alcotest.failf "%s faulted: %a" fn Machine.pp_fault f

(* run [fn args] in source [src] under both build flavours and require
   identical results *)
let exec ?unit_name src fn args =
  let results =
    List.map
      (fun opts ->
        let img, m = boot [ compile ~opts ?unit_name src ] in
        call m img fn args)
      [ Driver.run_build; Driver.pre_build ]
  in
  match results with
  | [ a; b ] ->
    check int32_c (fn ^ ": run/pre builds agree") a b;
    a
  | _ -> assert false

let t name f = Alcotest.test_case name `Quick f

let test_arith () =
  let src = "int add(int a, int b) { return a + b * 2; }" in
  check int32_c "add" 7l (exec src "add" [ 3l; 2l ])

let test_precedence () =
  let src = "int f(int a) { return 2 + a * 3 - (a - 1) / 2; }" in
  check int32_c "precedence" 15l (exec src "f" [ 5l ])

let test_recursion () =
  let src = "int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }" in
  check int32_c "fact 6" 720l (exec src "fact" [ 6l ])

let test_loops () =
  let src =
    {|
int sum_to(int n) {
  int s = 0;
  int i;
  for (i = 1; i <= n; i = i + 1)
    s = s + i;
  return s;
}
int count_odd(int n) {
  int c = 0;
  int i = 0;
  while (i < n) {
    i = i + 1;
    if (i % 2 == 0)
      continue;
    c = c + 1;
    if (c > 100)
      break;
  }
  return c;
}
|}
  in
  check int32_c "sum 1..10" 55l (exec src "sum_to" [ 10l ]);
  check int32_c "odds below 9" 5l (exec src "count_odd" [ 9l ])

let test_globals () =
  let src =
    {|
int counter = 40;
static int hidden = 100;
int bump(int by) { counter = counter + by; return counter; }
int get_hidden() { return hidden; }
|}
  in
  check int32_c "global rmw" 42l (exec src "bump" [ 2l ]);
  check int32_c "static global" 100l (exec src "get_hidden" [])

let test_static_local () =
  let src =
    {|
int next_id() {
  static int id = 7;
  id = id + 1;
  return id;
}
int twice() { next_id(); return next_id(); }
|}
  in
  check int32_c "static local persists" 9l (exec src "twice" [])

let test_pointers () =
  let src =
    {|
void swap(int *a, int *b) {
  int tmp = *a;
  *a = *b;
  *b = tmp;
}
int use() {
  int x = 3;
  int y = 9;
  swap(&x, &y);
  return x * 10 + y;
}
|}
  in
  check int32_c "swap" 93l (exec src "use" [])

let test_arrays () =
  let src =
    {|
int tab[4] = { 10, 20, 30, 40 };
int sum_tab() {
  int s = 0;
  int i;
  for (i = 0; i < 4; i = i + 1)
    s = s + tab[i];
  return s;
}
int local_buf(int n) {
  int buf[8];
  int i;
  for (i = 0; i < 8; i = i + 1)
    buf[i] = i * n;
  return buf[3] + buf[7];
}
|}
  in
  check int32_c "global array" 100l (exec src "sum_tab" []);
  check int32_c "local array" 20l (exec src "local_buf" [ 2l ])

let test_structs () =
  let src =
    {|
struct point { int x; int y; char tag; };
struct point origin;
int set_and_get(int a, int b) {
  struct point *p = &origin;
  p->x = a;
  p->y = b;
  p->tag = 'z';
  return p->x * 100 + p->y + origin.tag;
}
|}
  in
  check int32_c "struct fields" (Int32.of_int ((3 * 100) + 4 + Char.code 'z'))
    (exec src "set_and_get" [ 3l; 4l ])

let test_char_widening () =
  (* the §3.1 implicit-cast example: a char parameter truncates in the
     caller *)
  let src =
    {|
int identity_c(char c) { return c; }
int probe(int v) { return identity_c(v); }
|}
  in
  check int32_c "char truncates 300 to 44" 44l (exec src "probe" [ 300l ]);
  check int32_c "char sign-extends" (-1l) (exec src "probe" [ 255l ])

let test_short_widening () =
  let src =
    {|
int identity_s(short s) { return s; }
int probe(int v) { return identity_s(v); }
|}
  in
  check int32_c "short wraps" 0x2345l (exec src "probe" [ 0x12345l ]);
  check int32_c "short sign-extends" (-1l) (exec src "probe" [ 0xffffl ])

let test_char_return () =
  let src =
    {|
char low_byte(int v) { return v; }
int probe(int v) { return low_byte(v); }
|}
  in
  check int32_c "char return narrows" 0x44l (exec src "probe" [ 0x1244l ])

let test_char_memory () =
  let src =
    {|
char cbuf[4];
int roundtrip(int v) {
  cbuf[1] = v;
  return cbuf[1];
}
|}
  in
  check int32_c "char memory store/load" (-46l) (exec src "roundtrip" [ 210l ])

let test_strings () =
  let src =
    {|
int first_char() {
  char *s = "hello";
  return s[0] + s[4];
}
|}
  in
  check int32_c "string literal"
    (Int32.of_int (Char.code 'h' + Char.code 'o'))
    (exec src "first_char" [])

let test_short_circuit () =
  let src =
    {|
int calls = 0;
int bump() { calls = calls + 1; return 1; }
int and_false() { calls = 0; if (0 && bump()) return -1; return calls; }
int or_true() { calls = 0; if (1 || bump()) return calls; return -1; }
int and_true() { calls = 0; if (1 && bump()) return calls; return -1; }
|}
  in
  check int32_c "&& short-circuits" 0l (exec src "and_false" []);
  check int32_c "|| short-circuits" 0l (exec src "or_true" []);
  check int32_c "&& evaluates rhs" 1l (exec src "and_true" [])

let test_shifts_and_bits () =
  let src =
    {|
int f(int a, int b) {
  return ((a << 4) | (b & 15)) ^ (a >> 1);
}
|}
  in
  check int32_c "bit ops" (Int32.of_int (((6 lsl 4) lor (27 land 15)) lxor 3))
    (exec src "f" [ 6l; 27l ])

let test_div_mod () =
  let src = "int f(int a, int b) { return a / b * 100 + a % b; }" in
  check int32_c "div/mod" 302l (exec src "f" [ 17l; 5l ]);
  check int32_c "negative div" (-302l) (exec src "f" [ -17l; 5l ])

let test_comparisons () =
  let src =
    {|
int f(int a, int b) {
  return (a < b) + (a <= b) * 2 + (a > b) * 4 + (a >= b) * 8
       + (a == b) * 16 + (a != b) * 32;
}
|}
  in
  check int32_c "a<b" (Int32.of_int (1 + 2 + 32)) (exec src "f" [ 1l; 2l ]);
  check int32_c "a=b" (Int32.of_int (2 + 8 + 16)) (exec src "f" [ 2l; 2l ]);
  check int32_c "a>b" (Int32.of_int (4 + 8 + 32)) (exec src "f" [ 3l; 2l ])

let test_function_pointer () =
  let src =
    {|
int triple(int x) { return x * 3; }
int call_it(int v) {
  int fp = &triple;
  return fp(v) + 1;
}
|}
  in
  check int32_c "indirect call" 22l (exec src "call_it" [ 7l ])

let test_inlining_semantics () =
  (* probe() calls an automatically-inlined accessor; behaviour must be
     unchanged, and the decision must be recorded *)
  let src =
    {|
int level = 5;
int get_level() { return level; }
int probe(int v) { return get_level() * v; }
|}
  in
  check int32_c "inlined accessor" 15l (exec src "probe" [ 3l ]);
  let { Driver.inline_decisions; _ } =
    Fixture.compile ~options:Driver.run_build ~unit_name:"t.c" src
  in
  Alcotest.(check bool)
    "decision recorded" true
    (List.exists
       (fun (d : Minic.Inline.decision) ->
         d.caller = "probe" && d.callee = "get_level")
       inline_decisions)

let test_inlining_no_keyword () =
  (* §4.2: inlining happens without the inline keyword; an explicitly
     inline function of larger size also gets inlined *)
  let src =
    {|
inline int clamp(int v) {
  int lo = 0;
  int hi = 100;
  if (v < lo) { v = lo; }
  if (v > hi) { v = hi; }
  return v;
}
int probe(int v) { return clamp(v); }
|}
  in
  ignore (exec src "probe" [ 150l ]);
  let { Driver.inline_decisions; _ } =
    Fixture.compile ~options:Driver.run_build ~unit_name:"t.c" src
  in
  Alcotest.(check bool)
    "explicit inline honoured" true
    (List.exists
       (fun (d : Minic.Inline.decision) -> d.callee = "clamp")
       inline_decisions)
  ;
  check int32_c "clamped" 100l (exec src "probe" [ 150l ]);
  check int32_c "identity" 42l (exec src "probe" [ 42l ])

let test_inline_out_of_line_copy () =
  (* the inlined function must still exist out of line (symbol census) *)
  let src = {|
int get() { return 3; }
int probe() { return get(); }
|} in
  let obj = compile src in
  Alcotest.(check bool)
    "out-of-line copy emitted" true
    (Option.is_some (Objfile.find_symbol obj "get"))

let test_ambiguous_statics_link () =
  (* two units with identically-named static symbols — both data and
     function — must link and behave independently (the CVE-2005-4639
     "debug" situation from §6.3) *)
  let a =
    compile ~unit_name:"dst.c"
      {|
static int debug = 1;
int dst_get_debug() { return debug; }
|}
  in
  let b =
    compile ~unit_name:"dst_ca.c"
      {|
static int debug = 2;
int ca_get_debug() { return debug; }
|}
  in
  let img, m = boot [ a; b ] in
  check int32_c "dst debug" 1l (call m img "dst_get_debug" []);
  check int32_c "ca debug" 2l (call m img "ca_get_debug" []);
  let all_debug = Image.lookup img "debug" in
  Alcotest.(check int) "two debug symbols in kallsyms" 2
    (List.length all_debug)

let test_cross_unit_calls () =
  let a =
    compile ~unit_name:"a.c"
      {|
extern int base;
int helper(int x);
int entry(int v) { return helper(v) + base; }
|}
  in
  let b =
    compile ~unit_name:"b.c" {|
int base = 100;
int helper(int x) { return x * 2; }
|}
  in
  let img, m = boot [ a; b ] in
  check int32_c "cross-unit" 114l (call m img "entry" [ 7l ])

let test_sizeof () =
  let src =
    {|
struct mixed { char a; int b; short c; char d; };
int sz_int() { return sizeof(int); }
int sz_struct() { return sizeof(struct mixed); }
int sz_arr() { return sizeof(int) * 3; }
|}
  in
  check int32_c "sizeof int" 4l (exec src "sz_int" []);
  (* char(1) pad(3) int(4) short(2) char(1) pad(1) -> 12 *)
  check int32_c "sizeof struct" 12l (exec src "sz_struct" []);
  check int32_c "sizeof arr" 12l (exec src "sz_arr" [])

let test_casts () =
  let src =
    {|
int f(int v) { return (char)v; }
int g(int v) { return (short)v; }
|}
  in
  check int32_c "(char) cast" 44l (exec src "f" [ 300l ]);
  check int32_c "(short) cast" (-1l) (exec src "g" [ 0xffffl ])

let test_switch () =
  let src =
    {|
int classify(int v) {
  int r = 0;
  switch (v) {
  case 0:
    r = 100;
    break;
  case 1:
  case 2:
    r = 200;
    break;
  case 3:
    r = r + 1;      /* falls through */
  case 4:
    r = r + 300;
    break;
  default:
    r = -1;
  }
  return r;
}
|}
  in
  check int32_c "case 0" 100l (exec src "classify" [ 0l ]);
  check int32_c "case 1 shares body" 200l (exec src "classify" [ 1l ]);
  check int32_c "case 2 shares body" 200l (exec src "classify" [ 2l ]);
  check int32_c "case 3 falls through" 301l (exec src "classify" [ 3l ]);
  check int32_c "case 4" 300l (exec src "classify" [ 4l ]);
  check int32_c "default" (-1l) (exec src "classify" [ 9l ]);
  check int32_c "default negative" (-1l) (exec src "classify" [ -5l ])

let test_switch_in_loop () =
  (* break binds to the switch, continue to the loop *)
  let src =
    {|
int tally(int n) {
  int acc = 0;
  int i;
  for (i = 0; i < n; i++) {
    switch (i % 3) {
    case 0:
      continue;
    case 1:
      acc += 10;
      break;
    default:
      acc += 1;
    }
    acc += 100;
  }
  return acc;
}
|}
  in
  (* i=0 continue; i=1 +10+100; i=2 +1+100; i=3 continue; i=4 +10+100 *)
  check int32_c "switch in loop" 321l (exec src "tally" [ 5l ])

let test_do_while () =
  let src =
    {|
int count_digits(int v) {
  int n = 0;
  do {
    n++;
    v = v / 10;
  } while (v != 0);
  return n;
}
|}
  in
  check int32_c "runs at least once" 1l (exec src "count_digits" [ 0l ]);
  check int32_c "12345 has 5 digits" 5l (exec src "count_digits" [ 12345l ])

let test_compound_assignment () =
  let src =
    {|
int acc = 0;
int mix(int v) {
  acc = 7;
  acc += v;
  acc -= 1;
  acc *= 2;
  acc |= 1;
  acc ^= 2;
  acc <<= 1;
  acc >>= 1;
  acc &= 255;
  acc %= 100;
  acc /= 2;
  return acc;
}
|}
  in
  let expect =
    let a = ref 7 in
    a := !a + 5; a := !a - 1; a := !a * 2; a := !a lor 1; a := !a lxor 2;
    a := !a lsl 1; a := !a asr 1; a := !a land 255; a := !a mod 100;
    a := !a / 2;
    Int32.of_int !a
  in
  check int32_c "compound ops" expect (exec src "mix" [ 5l ])

let test_incr_decr () =
  let src =
    {|
int spin(int n) {
  int i = 0;
  int hits = 0;
  while (i < n) {
    hits++;
    i++;
  }
  --hits;
  return hits;
}
|}
  in
  check int32_c "increments" 9l (exec src "spin" [ 10l ])

let test_compound_single_eval () =
  (* regression: the lvalue of [op=] is evaluated once; a side-effecting
     index expression used to fire twice under the old desugaring *)
  let src =
    {|
int tab[4] = { 10, 20, 30, 40 };
int calls = 0;
int pick() { calls++; return 2; }
int probe() {
  calls = 0;
  tab[pick()] += 5;
  return tab[2] * 10 + calls;
}
int bump_stmt() {
  calls = 0;
  tab[2] = 30;
  tab[pick()]++;
  return tab[2] * 10 + calls;
}
|}
  in
  check int32_c "op= evaluates index once" 351l (exec src "probe" []);
  check int32_c "statement i++ evaluates index once" 311l
    (exec src "bump_stmt" [])

let test_postfix_value_semantics () =
  (* regression: postfix ++/-- in value position yields the pre-update
     value (the old desugaring gave the pre-form's new value) *)
  let src =
    {|
int tab[3] = { 7, 8, 9 };
int locals() {
  int i = 5;
  int got = i++;
  int j = 9;
  int dec = j--;
  return (got * 10 + i) * 100 + dec * 10 + j;
}
int walk() {
  int *p = tab;
  int first = *p++;
  int second = *p++;
  return first * 10 + second;
}
char c;
int narrow() {
  c = 127;
  int old = c++;
  return old * 1000 + c;
}
|}
  in
  (* got=5 i=6; dec=9 j=8 *)
  check int32_c "postfix on locals" 5698l (exec src "locals" []);
  check int32_c "*p++ walks the array" 78l (exec src "walk" []);
  (* old value is 127; the char wraps to -128 *)
  check int32_c "char postfix narrows after yielding old value"
    (Int32.of_int ((127 * 1000) - 128))
    (exec src "narrow" [])

let test_switch_duplicate_case_rejected () =
  let src =
    "int f(int v) { switch (v) { case 1: return 1; case 1: return 2; } \
     return 0; }"
  in
  Alcotest.(check bool) "duplicate case rejected" true (rejected src)

let test_type_errors () =
  let bad =
    [
      "int f() { return undeclared_thing; }";
      "int f() { return g(); }";
      "int f(int a) { int a; return a; }";
      "int f() { break; }";
      "struct s { int x; }; int f(struct s v) { return 0; }";
      "int f() { int x; return x.field; }";
      "int f(int *p) { return *p(); } int g; int h() { return *g; }";
    ]
  in
  List.iter
    (fun src ->
      Alcotest.(check bool) ("rejected: " ^ src) true (rejected src))
    bad

let test_parse_errors_have_lines () =
  let src = "int f() {\n  return 1 +;\n}" in
  match Driver.compile ~options:Driver.run_build ~unit_name:"t.c" src with
  | Ok _ -> Alcotest.fail "expected parse error"
  | Error e ->
    let m = Format.asprintf "%a" Driver.pp_error e in
    Alcotest.(check bool) "line in message" true
      (String.length m > 0
      &&
      (* message should carry unit:line *)
      String.split_on_char ':' m |> List.length >= 2)

let test_void_function () =
  let src =
    {|
int log_count = 0;
void note() { log_count = log_count + 1; }
int probe() { note(); note(); return log_count; }
|}
  in
  check int32_c "void calls" 2l (exec src "probe" [])

let test_fault_on_null_deref () =
  let src = "int f() { int *p = 0; return *p; }" in
  let img, m = boot [ compile src ] in
  let sym = Option.get (Image.lookup_global img "f") in
  (match Machine.call_function m ~addr:sym.addr ~args:[] with
   | Error (Machine.Memory_violation _) -> ()
   | Ok _ -> Alcotest.fail "expected fault"
   | Error f -> Alcotest.failf "wrong fault: %a" Machine.pp_fault f)

let test_fault_on_div_zero () =
  let src = "int f(int d) { return 10 / d; }" in
  let img, m = boot [ compile src ] in
  let sym = Option.get (Image.lookup_global img "f") in
  (match Machine.call_function m ~addr:sym.addr ~args:[ 0l ] with
   | Error (Machine.Divide_by_zero _) -> ()
   | _ -> Alcotest.fail "expected divide fault")

(* Property: random arithmetic expressions agree with an OCaml oracle. *)
let prop_arith_oracle =
  let open QCheck2.Gen in
  (* generate a small expression over two variables *)
  let rec gen_e depth =
    if depth = 0 then
      oneof [ map (fun v -> `C (Int32.of_int v)) (int_range (-50) 50);
              return `A; return `B ]
    else
      let sub = gen_e (depth - 1) in
      oneof
        [ map (fun v -> `C (Int32.of_int v)) (int_range (-50) 50);
          return `A; return `B;
          map2 (fun a b -> `Add (a, b)) sub sub;
          map2 (fun a b -> `Sub (a, b)) sub sub;
          map2 (fun a b -> `Mul (a, b)) sub sub;
          map2 (fun a b -> `Lt (a, b)) sub sub;
          map2 (fun a b -> `And (a, b)) sub sub ]
  in
  let rec to_c = function
    | `C v -> Int32.to_string v
    | `A -> "a"
    | `B -> "b"
    | `Add (a, b) -> Printf.sprintf "(%s + %s)" (to_c a) (to_c b)
    | `Sub (a, b) -> Printf.sprintf "(%s - %s)" (to_c a) (to_c b)
    | `Mul (a, b) -> Printf.sprintf "(%s * %s)" (to_c a) (to_c b)
    | `Lt (a, b) -> Printf.sprintf "(%s < %s)" (to_c a) (to_c b)
    | `And (a, b) -> Printf.sprintf "(%s & %s)" (to_c a) (to_c b)
  in
  let rec eval a b = function
    | `C v -> v
    | `A -> a
    | `B -> b
    | `Add (x, y) -> Int32.add (eval a b x) (eval a b y)
    | `Sub (x, y) -> Int32.sub (eval a b x) (eval a b y)
    | `Mul (x, y) -> Int32.mul (eval a b x) (eval a b y)
    | `Lt (x, y) -> if Int32.compare (eval a b x) (eval a b y) < 0 then 1l else 0l
    | `And (x, y) -> Int32.logand (eval a b x) (eval a b y)
  in
  QCheck2.Test.make ~name:"compiled arithmetic matches oracle" ~count:40
    (QCheck2.Gen.tup3 (gen_e 3) (int_range (-100) 100) (int_range (-100) 100))
    (fun (e, a, b) ->
      let src = Printf.sprintf "int f(int a, int b) { return %s; }" (to_c e) in
      let img, m = boot [ compile src ] in
      let sym = Option.get (Image.lookup_global img "f") in
      match
        Machine.call_function m ~addr:sym.addr
          ~args:[ Int32.of_int a; Int32.of_int b ]
      with
      | Ok v -> Int32.equal v (eval (Int32.of_int a) (Int32.of_int b) e)
      | Error _ -> false)

let suite =
  [
    ( "minic",
      [
        t "arith" test_arith;
        t "precedence" test_precedence;
        t "recursion" test_recursion;
        t "loops" test_loops;
        t "globals" test_globals;
        t "static local" test_static_local;
        t "pointers" test_pointers;
        t "arrays" test_arrays;
        t "structs" test_structs;
        t "char widening at call" test_char_widening;
        t "short widening at call" test_short_widening;
        t "char return narrowing" test_char_return;
        t "char memory access" test_char_memory;
        t "string literals" test_strings;
        t "short circuit" test_short_circuit;
        t "shifts and bits" test_shifts_and_bits;
        t "div mod" test_div_mod;
        t "comparisons" test_comparisons;
        t "function pointer" test_function_pointer;
        t "inlining semantics" test_inlining_semantics;
        t "inline keyword" test_inlining_no_keyword;
        t "out-of-line copy" test_inline_out_of_line_copy;
        t "ambiguous statics" test_ambiguous_statics_link;
        t "cross-unit calls" test_cross_unit_calls;
        t "sizeof" test_sizeof;
        t "casts" test_casts;
        t "switch" test_switch;
        t "switch in loop" test_switch_in_loop;
        t "do while" test_do_while;
        t "compound assignment" test_compound_assignment;
        t "increment/decrement" test_incr_decr;
        t "compound assignment single eval" test_compound_single_eval;
        t "postfix value semantics" test_postfix_value_semantics;
        t "duplicate case rejected" test_switch_duplicate_case_rejected;
        t "type errors" test_type_errors;
        t "parse error lines" test_parse_errors_have_lines;
        t "void function" test_void_function;
        t "null deref faults" test_fault_on_null_deref;
        t "div by zero faults" test_fault_on_div_zero;
        QCheck_alcotest.to_alcotest prop_arith_oracle;
      ] );
  ]
