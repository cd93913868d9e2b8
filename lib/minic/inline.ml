open Ast

type decision = {
  caller : string;
  callee : string;
}

type result = {
  program : Ast.program;
  decisions : decision list;
}

(* --- eligibility --- *)

let rec stmt_weight = function
  | Sexpr _ | Sreturn _ | Sbreak | Scontinue | Sdecl _ -> 1
  | Sif (_, a, b) -> 1 + stmts_weight a + stmts_weight b
  | Swhile (_, b) -> 1 + stmts_weight b
  | Sdowhile (b, _) -> 1 + stmts_weight b
  | Sfor (_, _, _, b) -> 1 + stmts_weight b
  | Sswitch (_, cases) ->
    1 + List.fold_left (fun a c -> a + stmts_weight c.sc_body) 0 cases
  | Sblock b -> stmts_weight b

and stmts_weight l = List.fold_left (fun a s -> a + stmt_weight s) 0 l

let rec has_return_stmt s =
  match s with
  | Sreturn _ -> true
  | Sif (_, a, b) -> List.exists has_return_stmt (a @ b)
  | Swhile (_, b) | Sdowhile (b, _) | Sfor (_, _, _, b) | Sblock b ->
    List.exists has_return_stmt b
  | Sswitch (_, cases) ->
    List.exists (fun c -> List.exists has_return_stmt c.sc_body) cases
  | _ -> false

let rec has_static_decl s =
  match s with
  | Sdecl d -> d.d_static
  | Sif (_, a, b) -> List.exists has_static_decl (a @ b)
  | Swhile (_, b) | Sdowhile (b, _) | Sfor (_, _, _, b) | Sblock b ->
    List.exists has_static_decl b
  | Sswitch (_, cases) ->
    List.exists (fun c -> List.exists has_static_decl c.sc_body) cases
  | _ -> false

let rec expr_calls e acc =
  match e with
  | Ecall (f, args) -> f :: List.fold_right expr_calls args acc
  | Eicall (c, args) -> expr_calls c (List.fold_right expr_calls args acc)
  | Ebin (_, a, b) -> expr_calls a (expr_calls b acc)
  | Eun (_, a) | Ederef a | Eaddr a | Ecast (_, a) -> expr_calls a acc
  | Eindex (a, b) | Eassign (a, b) | Ecompound (_, a, b) ->
    expr_calls a (expr_calls b acc)
  | Efield (a, _) | Earrow (a, _) | Epostop (_, a) -> expr_calls a acc
  | Eint _ | Echar _ | Estr _ | Eident _ | Esizeof _ -> acc

let rec stmt_calls s acc =
  match s with
  | Sexpr e -> expr_calls e acc
  | Sif (c, a, b) ->
    expr_calls c (List.fold_right stmt_calls a (List.fold_right stmt_calls b acc))
  | Swhile (c, b) -> expr_calls c (List.fold_right stmt_calls b acc)
  | Sdowhile (b, c) -> expr_calls c (List.fold_right stmt_calls b acc)
  | Sswitch (c, cases) ->
    expr_calls c
      (List.fold_right
         (fun case acc -> List.fold_right stmt_calls case.sc_body acc)
         cases acc)
  | Sfor (i, c, st, b) ->
    let acc = List.fold_right stmt_calls b acc in
    let acc = Option.fold ~none:acc ~some:(fun e -> expr_calls e acc) i in
    let acc = Option.fold ~none:acc ~some:(fun e -> expr_calls e acc) c in
    Option.fold ~none:acc ~some:(fun e -> expr_calls e acc) st
  | Sreturn (Some e) -> expr_calls e acc
  | Sreturn None | Sbreak | Scontinue -> acc
  | Sdecl { d_init = Some e; _ } -> expr_calls e acc
  | Sdecl _ -> acc
  | Sblock b -> List.fold_right stmt_calls b acc

(* A body is spliceable when its only return, if any, is the final
   top-level statement. *)
let spliceable_body body ~ret_void =
  let rec body_ok = function
    | [] -> ret_void
    | [ Sreturn (Some _) ] -> not ret_void
    | [ Sreturn None ] -> ret_void
    | [ s ] -> (not (has_return_stmt s)) && ret_void
    | s :: rest -> (not (has_return_stmt s)) && body_ok rest
  in
  body_ok body

(* statement-weight bounds: without and with the [inline] keyword *)
let auto_max = 3
let explicit_max = 12

let eligible (f : func) =
  match f.f_body with
  | None -> false
  | Some body ->
    let weight = stmts_weight body in
    let bound = if f.f_inline then explicit_max else auto_max in
    weight <= bound
    && (not (List.mem f.f_name (List.fold_right stmt_calls body [])))
    && (not (List.exists has_static_decl body))
    && spliceable_body body ~ret_void:(f.f_ret = Void)
    && List.for_all
         (fun (t, _) -> match t with Array _ | Struct _ -> false | _ -> true)
         f.f_params

(* --- capture-safe renaming --- *)

(* Rename every local declaration in the spliced body with [suffix], and
   map parameter names to their temp variables. The mapping threads
   through statement lists (a decl affects later statements) and is copied
   into nested blocks (scoping). *)
let rec rename_expr map e =
  match e with
  | Eident n -> (
    match List.assoc_opt n map with Some n' -> Eident n' | None -> e)
  | Eint _ | Echar _ | Estr _ | Esizeof _ -> e
  | Ecall (f, args) -> Ecall (f, List.map (rename_expr map) args)
  | Eicall (c, args) ->
    Eicall (rename_expr map c, List.map (rename_expr map) args)
  | Ebin (op, a, b) -> Ebin (op, rename_expr map a, rename_expr map b)
  | Eun (op, a) -> Eun (op, rename_expr map a)
  | Ederef a -> Ederef (rename_expr map a)
  | Eaddr a -> Eaddr (rename_expr map a)
  | Eindex (a, b) -> Eindex (rename_expr map a, rename_expr map b)
  | Efield (a, f) -> Efield (rename_expr map a, f)
  | Earrow (a, f) -> Earrow (rename_expr map a, f)
  | Eassign (a, b) -> Eassign (rename_expr map a, rename_expr map b)
  | Ecompound (op, a, b) ->
    Ecompound (op, rename_expr map a, rename_expr map b)
  | Epostop (op, a) -> Epostop (op, rename_expr map a)
  | Ecast (t, a) -> Ecast (t, rename_expr map a)

let rec rename_stmts suffix map stmts =
  match stmts with
  | [] -> []
  | Sdecl d :: rest ->
    let n' = d.d_name ^ suffix in
    let d' =
      { d with d_name = n'; d_init = Option.map (rename_expr map) d.d_init }
    in
    Sdecl d' :: rename_stmts suffix ((d.d_name, n') :: map) rest
  | s :: rest -> rename_stmt suffix map s :: rename_stmts suffix map rest

and rename_stmt suffix map s =
  match s with
  | Sexpr e -> Sexpr (rename_expr map e)
  | Sif (c, a, b) ->
    Sif (rename_expr map c, rename_stmts suffix map a, rename_stmts suffix map b)
  | Swhile (c, b) -> Swhile (rename_expr map c, rename_stmts suffix map b)
  | Sdowhile (b, c) -> Sdowhile (rename_stmts suffix map b, rename_expr map c)
  | Sswitch (c, cases) ->
    Sswitch
      ( rename_expr map c,
        List.map
          (fun case ->
            { case with sc_body = rename_stmts suffix map case.sc_body })
          cases )
  | Sfor (i, c, st, b) ->
    Sfor
      ( Option.map (rename_expr map) i,
        Option.map (rename_expr map) c,
        Option.map (rename_expr map) st,
        rename_stmts suffix map b )
  | Sreturn e -> Sreturn (Option.map (rename_expr map) e)
  | Sbreak -> Sbreak
  | Scontinue -> Scontinue
  | Sdecl _ -> assert false (* handled in rename_stmts *)
  | Sblock b -> Sblock (rename_stmts suffix map b)

(* --- the transformation --- *)

type ctx = {
  inlinable : (string, func) Hashtbl.t;
  mutable fresh : int;
  mutable decisions : decision list;
  mutable caller : string;
}

let max_depth = 4

(* Extract inlinable calls from [e], which sits in an unconditionally
   evaluated position. Returns the rewritten expression plus prelude
   statements (reversed accumulation happens at the caller). *)
let rec extract ctx depth (e : expr) (prelude : stmt list ref) : expr =
  let recur e = extract ctx depth e prelude in
  match e with
  | Ecall (fname, args) -> (
    let args = List.map recur args in
    match
      if depth >= max_depth then None else Hashtbl.find_opt ctx.inlinable fname
    with
    | Some callee when List.compare_lengths callee.f_params args = 0 ->
      let n = ctx.fresh in
      ctx.fresh <- n + 1;
      ctx.decisions <-
        { caller = ctx.caller; callee = fname } :: ctx.decisions;
      let suffix = Printf.sprintf "__i%d" n in
      (* bind arguments to parameter temps *)
      let param_map =
        List.map (fun (_, pname) -> (pname, pname ^ suffix)) callee.f_params
      in
      List.iter2
        (fun (pty, pname) arg ->
          prelude :=
            Sdecl
              { d_static = false; d_ty = pty; d_name = pname ^ suffix;
                d_init = Some arg }
            :: !prelude)
        callee.f_params args;
      let body = rename_stmts suffix param_map (Option.get callee.f_body) in
      let ret_name = Printf.sprintf "__ret%s" suffix in
      let body, replacement =
        if callee.f_ret = Void then (body, Eint 0l)
        else begin
          match List.rev body with
          | Sreturn (Some re) :: before ->
            prelude :=
              Sdecl
                { d_static = false; d_ty = callee.f_ret; d_name = ret_name;
                  d_init = None }
              :: !prelude;
            ( List.rev (Sexpr (Eassign (Eident ret_name, re)) :: before),
              Eident ret_name )
          | _ -> assert false (* spliceable_body guarantees the shape *)
        end
      in
      (* recursively inline within the spliced body *)
      let body = List.concat_map (transform_stmt ctx (depth + 1)) body in
      prelude := List.rev_append body !prelude;
      replacement
    | _ ->
      (* not inlinable here; a call of the wrong arity stays a call, for
         the typecheck to report *)
      Ecall (fname, args))
  | Eicall (c, args) -> Eicall (recur c, List.map recur args)
  | Ebin ((Bland | Blor), a, b) ->
    (* the right operand is conditionally evaluated: no extraction there *)
    Ebin ((match e with Ebin (op, _, _) -> op | _ -> assert false),
          recur a, b)
  | Ebin (op, a, b) -> Ebin (op, recur a, recur b)
  | Eun (op, a) -> Eun (op, recur a)
  | Ederef a -> Ederef (recur a)
  | Eaddr a -> Eaddr (recur a)
  | Eindex (a, b) -> Eindex (recur a, recur b)
  | Efield (a, f) -> Efield (recur a, f)
  | Earrow (a, f) -> Earrow (recur a, f)
  | Eassign (a, b) -> Eassign (recur a, recur b)
  | Ecompound (op, a, b) -> Ecompound (op, recur a, recur b)
  | Epostop (op, a) -> Epostop (op, recur a)
  | Ecast (t, a) -> Ecast (t, recur a)
  | Eint _ | Echar _ | Estr _ | Eident _ | Esizeof _ -> e

and transform_stmt ctx depth (s : stmt) : stmt list =
  match s with
  | Sexpr e ->
    let prelude = ref [] in
    let e' = extract ctx depth e prelude in
    List.rev (Sexpr e' :: !prelude)
  | Sif (c, a, b) ->
    let prelude = ref [] in
    let c' = extract ctx depth c prelude in
    let a' = List.concat_map (transform_stmt ctx depth) a in
    let b' = List.concat_map (transform_stmt ctx depth) b in
    List.rev (Sif (c', a', b') :: !prelude)
  | Swhile (c, b) ->
    (* loop conditions are re-evaluated: leave calls in place *)
    [ Swhile (c, List.concat_map (transform_stmt ctx depth) b) ]
  | Sdowhile (b, c) ->
    [ Sdowhile (List.concat_map (transform_stmt ctx depth) b, c) ]
  | Sswitch (c, cases) ->
    (* the scrutinee is evaluated exactly once *)
    let prelude = ref [] in
    let c' = extract ctx depth c prelude in
    let cases' =
      List.map
        (fun case ->
          { case with
            sc_body = List.concat_map (transform_stmt ctx depth) case.sc_body })
        cases
    in
    List.rev (Sswitch (c', cases') :: !prelude)
  | Sfor (i, c, st, b) ->
    let prelude = ref [] in
    let i' = Option.map (fun e -> extract ctx depth e prelude) i in
    let b' = List.concat_map (transform_stmt ctx depth) b in
    List.rev (Sfor (i', c, st, b') :: !prelude)
  | Sreturn (Some e) ->
    let prelude = ref [] in
    let e' = extract ctx depth e prelude in
    List.rev (Sreturn (Some e') :: !prelude)
  | Sreturn None | Sbreak | Scontinue -> [ s ]
  | Sdecl ({ d_init = Some e; d_static = false; _ } as d) ->
    let prelude = ref [] in
    let e' = extract ctx depth e prelude in
    List.rev (Sdecl { d with d_init = Some e' } :: !prelude)
  | Sdecl _ -> [ s ]
  | Sblock b -> [ Sblock (List.concat_map (transform_stmt ctx depth) b) ]

let run (prog : program) : result =
  let inlinable = Hashtbl.create 16 in
  List.iter
    (function
      | Tfunc f when eligible f ->
        Hashtbl.replace inlinable f.f_name f
      | _ -> ())
    prog;
  let ctx = { inlinable; fresh = 0; decisions = []; caller = "" } in
  let prog' =
    List.map
      (function
        | Tfunc ({ f_body = Some body; _ } as f) ->
          ctx.caller <- f.f_name;
          (* don't inline a function into itself *)
          let saved = Hashtbl.find_opt inlinable f.f_name in
          Hashtbl.remove inlinable f.f_name;
          let body' = List.concat_map (transform_stmt ctx 0) body in
          (match saved with
           | Some orig -> Hashtbl.replace inlinable f.f_name orig
           | None -> ());
          Tfunc { f with f_body = Some body' }
        | td -> td)
      prog
  in
  { program = prog'; decisions = List.rev ctx.decisions }
