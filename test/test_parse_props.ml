(* Binary-operator parsing against a shunting-yard reference: a random
   chain [e0 op1 e1 ... opn en] over all 18 binary operators, with
   unary and parenthesised operands, parses to the tree the reference
   builds from C's precedence levels, every level left-associative. *)

open Minic.Ast

(* the reference's own table: spelling, operator, precedence level *)
let operators =
  [ ("||", Blor, 1); ("&&", Bland, 2); ("|", Bor, 3); ("^", Bxor, 4);
    ("&", Band, 5); ("==", Beq, 6); ("!=", Bne, 6); ("<", Blt, 7);
    ("<=", Ble, 7); (">", Bgt, 7); (">=", Bge, 7); ("<<", Bshl, 8);
    (">>", Bshr, 8); ("+", Badd, 9); ("-", Bsub, 9); ("*", Bmul, 10);
    ("/", Bdiv, 10); ("%", Bmod, 10) ]

type operand =
  | Var of string
  | Num of int
  | Unary of string * operand  (* "-", "!" or "~" *)
  | Paren of chain

and chain = operand * ((string * binop * int) * operand) list

let rec render_operand = function
  | Var v -> v
  | Num n -> string_of_int n
  | Unary (u, e) -> u ^ " " ^ render_operand e
  | Paren c -> "( " ^ render_chain c ^ " )"

and render_chain (e0, rest) =
  String.concat " "
    (render_operand e0
     :: List.concat_map (fun ((s, _, _), e) -> [ s; render_operand e ]) rest)

let rec expect_operand = function
  | Var v -> Eident v
  | Num n -> Eint (Int32.of_int n)
  | Unary ("-", e) -> Eun (Uneg, expect_operand e)
  | Unary ("!", e) -> Eun (Unot, expect_operand e)
  | Unary (_, e) -> Eun (Ubnot, expect_operand e)
  | Paren c -> expect_chain c

(* shunting-yard: an operator first reduces every pending operator of its
   level or above, so equal levels group to the left *)
and expect_chain (e0, rest) =
  (* the operands and the pending operators, most recent first *)
  let reduce = function
    | r :: l :: operands, (op, _) :: ops -> (Ebin (op, l, r) :: operands, ops)
    | _ -> assert false
  in
  let rec reduce_from level ((_, ops) as state) =
    match ops with
    | (_, top) :: _ when top >= level -> reduce_from level (reduce state)
    | _ -> state
  in
  let state =
    List.fold_left
      (fun state ((_, op, level), e) ->
        let operands, ops = reduce_from level state in
        (expect_operand e :: operands, (op, level) :: ops))
      ([ expect_operand e0 ], []) rest
  in
  List.hd (fst (reduce_from 0 state))

let gen_chain =
  let open QCheck2.Gen in
  let var = map (fun c -> Var (String.make 1 c)) (char_range 'a' 'e') in
  let num = map (fun n -> Num n) (int_range 0 99) in
  let unop = oneofl [ "-"; "!"; "~" ] in
  fix
    (fun self depth ->
      let operand =
        fix
          (fun operand d ->
            if d = 0 then oneof [ var; num ]
            else
              frequency
                [ (6, var); (2, num);
                  (2, map2 (fun u e -> Unary (u, e)) unop (operand (d - 1)));
                  (1, map (fun c -> Paren c) (self (depth - 1))) ])
          (min depth 2)
      in
      pair operand
        (list_size (int_range 0 (if depth = 0 then 3 else 7))
           (pair (oneofl operators) operand)))
    2

let parse_return src =
  match Minic.Parser.parse ("int f() { return " ^ src ^ "; }") with
  | [ Tfunc { f_body = Some [ Sreturn (Some e) ]; _ } ] -> Some e
  | _ -> None

let prop_chains_parse_as_reference =
  QCheck2.Test.make ~name:"operator chains parse as shunting-yard builds them"
    ~count:1000 ~print:render_chain gen_chain (fun c ->
      parse_return (render_chain c) = Some (expect_chain c))

let suite =
  [ ("parse-props", [ QCheck_alcotest.to_alcotest prop_chains_parse_as_reference ]) ]
