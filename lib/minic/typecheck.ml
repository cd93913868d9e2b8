open Ast
open Tast

exception Error of string

let err fmt = Format.kasprintf (fun m -> raise (Error m)) fmt

(* the compiler builtins (host escapes): name, INT code, arity, and
   whether they return a value in r0 *)
let builtins =
  [
    { b_name = "__putc"; b_code = 0; b_args = 1; b_ret = false };
    { b_name = "__exit"; b_code = 1; b_args = 1; b_ret = false };
    { b_name = "__yield"; b_code = 2; b_args = 0; b_ret = false };
    { b_name = "__gettick"; b_code = 3; b_args = 0; b_ret = true };
    { b_name = "__getuid"; b_code = 4; b_args = 0; b_ret = true };
    { b_name = "__setuid"; b_code = 5; b_args = 1; b_ret = false };
    { b_name = "__sleep"; b_code = 6; b_args = 1; b_ret = false };
    { b_name = "__shadow_attach"; b_code = 8; b_args = 3; b_ret = true };
    { b_name = "__shadow_get"; b_code = 9; b_args = 2; b_ret = true };
    { b_name = "__shadow_detach"; b_code = 10; b_args = 2; b_ret = false };
    { b_name = "__syscall0"; b_code = 0x80; b_args = 1; b_ret = true };
    { b_name = "__syscall1"; b_code = 0x80; b_args = 2; b_ret = true };
    { b_name = "__syscall2"; b_code = 0x80; b_args = 3; b_ret = true };
    { b_name = "__syscall3"; b_code = 0x80; b_args = 4; b_ret = true };
  ]

let find_builtin name = List.find_opt (fun b -> b.b_name = name) builtins

(* --- layout --- *)

let rec align_of structs = function
  | Void -> 1
  | Char -> 1
  | Short -> 2
  | Int | Ptr _ -> 4
  | Array (t, _) -> align_of structs t
  | Struct tag -> (
    match List.assoc_opt tag structs with
    | None -> err "unknown struct %s" tag
    | Some fields ->
      List.fold_left (fun a (t, _) -> max a (align_of structs t)) 1 fields)

let round_up v a = (v + a - 1) / a * a

let rec sizeof structs = function
  | Void -> err "sizeof(void)"
  | Char -> 1
  | Short -> 2
  | Int | Ptr _ -> 4
  | Array (t, n) -> n * sizeof structs t
  | Struct tag -> (
    match List.assoc_opt tag structs with
    | None -> err "unknown struct %s" tag
    | Some fields ->
      let off =
        List.fold_left
          (fun off (t, _) ->
            round_up off (align_of structs t) + sizeof structs t)
          0 fields
      in
      round_up off (align_of structs (Struct tag)))

let field_info structs tag field =
  match List.assoc_opt tag structs with
  | None -> err "unknown struct %s" tag
  | Some fields ->
    let rec walk off = function
      | [] -> err "struct %s has no field %s" tag field
      | (t, f) :: rest ->
        let off = round_up off (align_of structs t) in
        if String.equal f field then (off, t)
        else walk (off + sizeof structs t) rest
    in
    walk 0 fields

let field_offset structs tag field = fst (field_info structs tag field)

(* --- environment --- *)

type fsig = { fs_ret : ty; fs_params : ty list; fs_defined : bool }

type binding =
  | Blocal of int * ty
  | Bparam of int * ty
  | Bstatic of string * ty  (* mangled data symbol *)

type env = {
  unit_name : string;
  structs : (string * (ty * string) list) list;
  funcs : (string, fsig) Hashtbl.t;
  globals : (string, ty) Hashtbl.t;  (* both defined-here and extern *)
  (* per-function state *)
  mutable scopes : (string, binding) Hashtbl.t list;
  mutable locals : local list;  (* reversed *)
  mutable next_local : int;
  mutable loop_depth : int;
  mutable switch_depth : int;
  mutable cur_fname : string;
  mutable cur_ret : ty;
  mutable extra_globals : gitem list;  (* static locals, reversed *)
}

let lookup_var env name =
  let rec go = function
    | [] -> None
    | scope :: rest -> (
      match Hashtbl.find_opt scope name with
      | Some b -> Some b
      | None -> go rest)
  in
  go env.scopes

let push_scope env = env.scopes <- Hashtbl.create 8 :: env.scopes
let pop_scope env = env.scopes <- List.tl env.scopes

let bind env name b =
  match env.scopes with
  | scope :: _ ->
    if Hashtbl.mem scope name then err "duplicate declaration of %s" name;
    Hashtbl.replace scope name b
  | [] -> assert false

(* --- type utilities --- *)

let is_intish = function Char | Short | Int -> true | _ -> false
let is_scalar = function Char | Short | Int | Ptr _ -> true | _ -> false

let decay = function Array (t, _) -> Ptr t | t -> t

let width_of = function
  | Char -> M8
  | Short -> M16
  | Int | Ptr _ -> M32
  | t -> err "cannot access %s as a scalar" (string_of_ty t)

let mk desc ty = { desc; ty }

(* widen/truncate a value to fit a narrow type, keeping registers
   canonical (sign-extended) *)
let narrowed ty (e : texpr) =
  match ty with
  | Char -> mk (Twiden (Wsext8, e)) Int
  | Short -> mk (Twiden (Wsext16, e)) Int
  | _ -> e

(* an lvalue is a frame slot or a memory address *)
type lv =
  | LVlocal of int * ty
  | LVparam of int * ty
  | LVmem of texpr * ty  (* address, pointee type *)

let lv_ty = function
  | LVlocal (_, t) | LVparam (_, t) | LVmem (_, t) -> t

let addr_of_lv = function
  | LVlocal (slot, t) -> mk (Tlocal_addr slot) (Ptr t)
  | LVparam (i, t) -> mk (Tparam_addr i) (Ptr t)
  | LVmem (addr, t) -> { addr with ty = Ptr t }

let add_offset addr off =
  if off = 0 then addr
  else mk (Tbin (Badd, addr, mk (Tconst (Int32.of_int off)) Int)) addr.ty

(* a compiler-generated frame slot, used to evaluate a side-effecting
   lvalue address (or a postfix operand's old value) exactly once *)
let tmp_local env ty =
  let slot = env.next_local in
  env.next_local <- slot + 1;
  env.locals <- { l_id = slot; l_ty = ty; l_size = 4 } :: env.locals;
  slot

(* can re-evaluating this address change observable state or yield a
   different value? loads are pure here (no volatile in the subset) *)
let rec addr_pure (e : texpr) =
  match e.desc with
  | Tconst _ | Tstring _ | Tsym_addr _ | Tlocal_get _ | Tlocal_addr _
  | Tparam_get _ | Tparam_addr _ -> true
  | Tbin (_, a, b) -> addr_pure a && addr_pure b
  | Tun (_, a) | Twiden (_, a) | Tload (_, a) -> addr_pure a
  | Tseq _ | Tlocal_set _ | Tparam_set _ | Tstore _ | Tcall _ | Tbuiltin _
  | Ticall _ -> false

(* [addr] evaluated exactly once: pure addresses pass through, impure
   ones are spilled to a temp slot read back at each use site *)
let cached_addr env (addr : texpr) =
  if addr_pure addr then (addr, None)
  else begin
    let slot = tmp_local env addr.ty in
    (mk (Tlocal_get slot) addr.ty,
     Some (mk (Tlocal_set (slot, addr)) addr.ty))
  end

let seq pre e =
  match pre with None -> e | Some p -> mk (Tseq (p, e)) e.ty

(* --- expression checking --- *)

let rec check_expr env (e : expr) : texpr =
  match e with
  | Eint v -> mk (Tconst v) Int
  | Echar c -> mk (Tconst (Int32.of_int (Char.code c))) Int
  | Estr s -> mk (Tstring s) (Ptr Char)
  | Esizeof t -> mk (Tconst (Int32.of_int (sizeof env.structs t))) Int
  | Eident name -> (
    match lookup_var env name with
    | Some b -> rvalue env (lv_of_binding b)
    | None ->
      if Hashtbl.mem env.globals name then
        rvalue env (LVmem (mk (Tsym_addr name) (Ptr (Hashtbl.find env.globals name)),
                           Hashtbl.find env.globals name))
      else if Hashtbl.mem env.funcs name then mk (Tsym_addr name) Int
      else err "%s: undeclared identifier %s" env.cur_fname name)
  | Ecall (name, args) -> check_call env name args
  | Eicall (callee, args) ->
    let c = check_expr env callee in
    if not (is_scalar (decay c.ty)) then err "indirect call through non-scalar";
    let args = List.map (check_expr env) args in
    mk (Ticall (c, args)) Int
  | Ebin (op, a, b) -> check_binop env op a b
  | Eun (op, a) ->
    let a' = check_expr env a in
    (match op with
     | Uneg | Ubnot ->
       if not (is_intish (decay a'.ty)) then err "arithmetic on non-integer";
       mk (Tun (op, a')) Int
     | Unot ->
       if not (is_scalar (decay a'.ty)) then err "! on non-scalar";
       mk (Tun (op, a')) Int)
  | Ederef e -> rvalue env (lv_deref env e)
  | Eaddr (Eident f)
    when lookup_var env f = None
         && (not (Hashtbl.mem env.globals f))
         && Hashtbl.mem env.funcs f ->
    mk (Tsym_addr f) Int
  | Eaddr e -> addr_of_lv (check_lvalue env e)
  | Eindex (a, i) -> rvalue env (lv_index env a i)
  | Efield (e, f) -> rvalue env (lv_field env e f)
  | Earrow (e, f) -> rvalue env (lv_arrow env e f)
  | Eassign (lhs, rhs) ->
    let lv = check_lvalue env lhs in
    let rhs' = check_expr env rhs in
    let t = lv_ty lv in
    if not (is_scalar t) then err "assignment to non-scalar";
    if not (is_scalar (decay rhs'.ty)) then err "assignment of non-scalar";
    (match lv with
     | LVlocal (slot, _) -> mk (Tlocal_set (slot, narrowed t rhs')) t
     | LVparam (i, _) -> mk (Tparam_set (i, narrowed t rhs')) t
     | LVmem (addr, _) ->
       narrowed t (mk (Tstore (width_of t, addr, rhs')) t))
  | Ecompound (op, lhs, rhs) ->
    let lv = check_lvalue env lhs in
    let rhs' = check_expr env rhs in
    let t = lv_ty lv in
    if not (is_scalar t) then err "assignment to non-scalar";
    if not (is_scalar (decay rhs'.ty)) then err "assignment of non-scalar";
    (match lv with
     | LVlocal (slot, _) ->
       let nv = binop_texpr env op (rvalue env lv) rhs' in
       mk (Tlocal_set (slot, narrowed t nv)) t
     | LVparam (i, _) ->
       let nv = binop_texpr env op (rvalue env lv) rhs' in
       mk (Tparam_set (i, narrowed t nv)) t
     | LVmem (addr, _) ->
       (* the address is computed once and reused for the read-back and
          the store, so side effects in the lvalue fire exactly once *)
       let caddr, pre = cached_addr env addr in
       let old = rvalue env (LVmem (caddr, t)) in
       let nv = binop_texpr env op old rhs' in
       seq pre (narrowed t (mk (Tstore (width_of t, caddr, nv)) t)))
  | Epostop (op, lhs) ->
    let lv = check_lvalue env lhs in
    let t = lv_ty lv in
    if not (is_scalar t) then err "++/-- on non-scalar";
    let lv, pre =
      match lv with
      | LVmem (addr, pt) ->
        let caddr, apre = cached_addr env addr in
        (LVmem (caddr, pt), apre)
      | other -> (other, None)
    in
    (* stash the pre-update value in a temp: it is the expression's
       value, and it must survive the write-back *)
    let old = rvalue env lv in
    let otmp = tmp_local env old.ty in
    let save = mk (Tlocal_set (otmp, old)) old.ty in
    let oldv = mk (Tlocal_get otmp) old.ty in
    let nv = narrowed t (binop_texpr env op oldv (mk (Tconst 1l) Int)) in
    let wrote =
      match lv with
      | LVlocal (slot, _) -> mk (Tlocal_set (slot, nv)) t
      | LVparam (i, _) -> mk (Tparam_set (i, nv)) t
      | LVmem (caddr, _) -> mk (Tstore (width_of t, caddr, nv)) t
    in
    let result = mk (Tlocal_get otmp) old.ty in
    seq pre
      (mk (Tseq (save, mk (Tseq (wrote, result)) result.ty)) result.ty)
  | Ecast (t, e) ->
    let e' = check_expr env e in
    (match t with
     | Void -> mk e'.desc Void
     | Char | Short -> { (narrowed t e') with ty = Int }
     | Int | Ptr _ ->
       if not (is_scalar (decay e'.ty)) then err "cast of non-scalar";
       { e' with ty = t }
     | Array _ | Struct _ -> err "cannot cast to %s" (string_of_ty t))

and lv_of_binding = function
  | Blocal (slot, t) -> LVlocal (slot, t)
  | Bparam (i, t) -> LVparam (i, t)
  | Bstatic (sym, t) -> LVmem (mk (Tsym_addr sym) (Ptr t), t)

and rvalue env lv =
  match lv with
  | LVlocal (slot, (Array (t, _))) -> mk (Tlocal_addr slot) (Ptr t)
  | LVlocal (_, Struct _) -> err "struct value used as scalar"
  | LVlocal (slot, t) -> mk (Tlocal_get slot) t
  | LVparam (_, (Array _ | Struct _)) -> err "aggregate parameter"
  | LVparam (i, t) -> mk (Tparam_get i) t
  | LVmem (addr, Array (t, _)) -> { addr with ty = Ptr t }
  | LVmem (_, Struct tag) -> err "struct %s value used as scalar" tag
  | LVmem (addr, t) ->
    ignore env;
    (match t with
     | Char -> mk (Twiden (Wsext8, mk (Tload (M8, addr)) Int)) Int
     | Short -> mk (Twiden (Wsext16, mk (Tload (M16, addr)) Int)) Int
     | _ -> mk (Tload (M32, addr)) t)

and check_lvalue env (e : expr) : lv =
  match e with
  | Eident name -> (
    match lookup_var env name with
    | Some b -> lv_of_binding b
    | None ->
      (match Hashtbl.find_opt env.globals name with
       | Some t -> LVmem (mk (Tsym_addr name) (Ptr t), t)
       | None -> err "%s: undeclared identifier %s" env.cur_fname name))
  | Ederef e -> lv_deref env e
  | Eindex (a, i) -> lv_index env a i
  | Efield (e, f) -> lv_field env e f
  | Earrow (e, f) -> lv_arrow env e f
  | _ -> err "expression is not an lvalue"

and lv_deref env e =
  let e' = check_expr env e in
  match decay e'.ty with
  | Ptr Void -> err "dereference of void pointer"
  | Ptr t -> LVmem ({ e' with ty = Ptr t }, t)
  | _ -> err "dereference of non-pointer"

and lv_index env a i =
  let a' = check_expr env a in
  let i' = check_expr env i in
  if not (is_intish (decay i'.ty)) then err "array index must be integer";
  match decay a'.ty with
  | Ptr Void -> err "indexing a void pointer"
  | Ptr t ->
    let sz = sizeof env.structs t in
    let scaled =
      if sz = 1 then i'
      else mk (Tbin (Bmul, i', mk (Tconst (Int32.of_int sz)) Int)) Int
    in
    LVmem (mk (Tbin (Badd, { a' with ty = Ptr t }, scaled)) (Ptr t), t)
  | _ -> err "indexing a non-pointer"

and lv_field env e f =
  let lv = check_lvalue env e in
  match lv_ty lv with
  | Struct tag ->
    let off, fty = field_info env.structs tag f in
    LVmem (add_offset (addr_of_lv lv) off, fty)
  | t -> err ". applied to non-struct %s" (string_of_ty t)

and lv_arrow env e f =
  let e' = check_expr env e in
  match decay e'.ty with
  | Ptr (Struct tag) ->
    let off, fty = field_info env.structs tag f in
    LVmem (add_offset { e' with ty = Ptr (Struct tag) } off, fty)
  | t -> err "-> applied to %s" (string_of_ty t)

and check_call env name args =
  match find_builtin name with
  | Some b ->
    if List.length args <> b.b_args then
      err "builtin %s expects %d arguments" name b.b_args;
    let args = List.map (check_expr env) args in
    List.iter
      (fun (a : texpr) ->
        if not (is_scalar (decay a.ty)) then
          err "non-scalar argument to %s" name)
      args;
    mk (Tbuiltin (b, args)) (if b.b_ret then Int else Void)
  | None -> (
    match Hashtbl.find_opt env.funcs name with
    | Some fs ->
      if List.length args <> List.length fs.fs_params then
        err "%s expects %d arguments, got %d" name
          (List.length fs.fs_params) (List.length args);
      let args =
        List.map2
          (fun pty a ->
            let a' = check_expr env a in
            if not (is_scalar (decay a'.ty)) then
              err "non-scalar argument to %s" name;
            (* implicit conversion to the parameter type happens in the
               caller: this is the §3.1 prototype-change ripple *)
            narrowed pty a')
          fs.fs_params args
      in
      let call = mk (Tcall (name, args)) fs.fs_ret in
      (match fs.fs_ret with
       | Char | Short -> narrowed fs.fs_ret call
       | _ -> call)
    | None -> (
      (* maybe a variable holding a function address: indirect call *)
      match lookup_var env name, Hashtbl.find_opt env.globals name with
      | Some _, _ | None, Some _ ->
        check_expr env (Eicall (Eident name, args))
      | None, None -> err "call to undeclared function %s" name))

and check_binop env op a b =
  let a' = check_expr env a and b' = check_expr env b in
  binop_texpr env op a' b'

(* apply [op] to two already-checked operands; compound assignment and
   the ++/-- forms reuse this on a cached lvalue value *)
and binop_texpr env op a' b' =
  match op with
  | Bland | Blor ->
    if not (is_scalar (decay a'.ty) && is_scalar (decay b'.ty)) then
      err "logical operator on non-scalar";
    mk (Tbin (op, a', b')) Int
  | Beq | Bne | Blt | Ble | Bgt | Bge ->
    if not (is_scalar (decay a'.ty) && is_scalar (decay b'.ty)) then
      err "comparison of non-scalar";
    mk (Tbin (op, a', b')) Int
  | Badd | Bsub ->
    let ta = decay a'.ty and tb = decay b'.ty in
    (match ta, tb, op with
     | Ptr t, i, _ when is_intish i ->
       let sz = sizeof env.structs t in
       let scaled =
         if sz = 1 then b'
         else mk (Tbin (Bmul, b', mk (Tconst (Int32.of_int sz)) Int)) Int
       in
       mk (Tbin (op, { a' with ty = Ptr t }, scaled)) (Ptr t)
     | i, Ptr t, Badd when is_intish i ->
       let sz = sizeof env.structs t in
       let scaled =
         if sz = 1 then a'
         else mk (Tbin (Bmul, a', mk (Tconst (Int32.of_int sz)) Int)) Int
       in
       mk (Tbin (Badd, { b' with ty = Ptr t }, scaled)) (Ptr t)
     | Ptr t, Ptr _, Bsub ->
       let sz = sizeof env.structs t in
       let diff = mk (Tbin (Bsub, a', b')) Int in
       if sz = 1 then diff
       else mk (Tbin (Bdiv, diff, mk (Tconst (Int32.of_int sz)) Int)) Int
     | ia, ib, _ when is_intish ia && is_intish ib ->
       mk (Tbin (op, a', b')) Int
     | _ -> err "invalid operands to +/-")
  | Bmul | Bdiv | Bmod | Band | Bor | Bxor | Bshl | Bshr ->
    if not (is_intish (decay a'.ty) && is_intish (decay b'.ty)) then
      err "arithmetic on non-integer";
    mk (Tbin (op, a', b')) Int

(* A discarded postfix update is the matching compound assignment: the
   old-value temp only exists to produce the result, so statement-position
   [i++] (loop steps, expression statements) stays a plain read-op-write. *)
let check_expr_discard env (e : expr) : texpr =
  match e with
  | Epostop (op, lhs) -> check_expr env (Ecompound (op, lhs, Eint 1l))
  | e -> check_expr env e

(* --- constant expressions (global initialisers) --- *)

let rec const_value env (e : expr) : gword =
  match e with
  | Eint v -> Wconst v
  | Echar c -> Wconst (Int32.of_int (Char.code c))
  | Esizeof t -> Wconst (Int32.of_int (sizeof env.structs t))
  | Eun (Uneg, e) -> (
    match const_value env e with
    | Wconst v -> Wconst (Int32.neg v)
    | Waddr _ -> err "cannot negate an address constant")
  | Ebin (op, a, b) -> (
    match const_value env a, const_value env b with
    | Wconst x, Wconst y ->
      let f =
        match op with
        | Badd -> Int32.add
        | Bsub -> Int32.sub
        | Bmul -> Int32.mul
        | Bor -> Int32.logor
        | Band -> Int32.logand
        | Bxor -> Int32.logxor
        | Bshl -> fun a b -> Int32.shift_left a (Int32.to_int b land 31)
        | Bshr ->
          fun a b -> Int32.shift_right_logical a (Int32.to_int b land 31)
        | _ -> err "operator not allowed in constant expression"
      in
      Wconst (f x y)
    | Waddr (s, off), Wconst d when op = Badd ->
      Waddr (s, Int32.add off d)
    | _ -> err "address arithmetic not allowed in constant expression")
  | Eident name | Eaddr (Eident name) ->
    if Hashtbl.mem env.funcs name || Hashtbl.mem env.globals name then
      Waddr (name, 0l)
    else err "unknown symbol %s in constant expression" name
  | _ -> err "not a constant expression"

let global_init env (g : global) : ginit =
  let scalar_bytes t v =
    match t, v with
    | Char, Wconst c ->
      Gbytes (Bytes.make 1 (Char.chr (Int32.to_int c land 0xff)))
    | Short, Wconst c ->
      let b = Bytes.create 2 in
      Bytes.set_uint16_le b 0 (Int32.to_int c land 0xffff);
      Gbytes b
    | (Int | Ptr _), w -> Gwords [ w ]
    | _ -> err "bad initializer for %s" g.g_name
  in
  match g.g_init with
  | None -> Gzero (sizeof env.structs g.g_ty)
  | Some (Init_scalar e) -> scalar_bytes g.g_ty (const_value env e)
  | Some (Init_string s) -> (
    match g.g_ty with
    | Array (Char, n) ->
      if String.length s + 1 > n then err "%s: string too long" g.g_name;
      let b = Bytes.make n '\000' in
      Bytes.blit_string s 0 b 0 (String.length s);
      Gbytes b
    | _ -> err "%s: string initializer requires char array" g.g_name)
  | Some (Init_list items) -> (
    match g.g_ty with
    | Array ((Int | Ptr _), n) ->
      if List.length items > n then err "%s: too many initializers" g.g_name;
      let words = List.map (const_value env) items in
      let pad = List.init (n - List.length items) (fun _ -> Wconst 0l) in
      Gwords (words @ pad)
    | Array (Char, n) ->
      if List.length items > n then err "%s: too many initializers" g.g_name;
      let b = Bytes.make n '\000' in
      List.iteri
        (fun i e ->
          match const_value env e with
          | Wconst v -> Bytes.set b i (Char.chr (Int32.to_int v land 0xff))
          | Waddr _ -> err "%s: address in char array" g.g_name)
        items;
      Gbytes b
    | _ -> err "%s: initializer list requires array type" g.g_name)

(* --- statements --- *)

let rec check_stmts env stmts = List.concat_map (check_stmt env) stmts

and check_stmt env (s : stmt) : tstmt list =
  match s with
  | Sexpr e -> [ TSexpr (check_expr_discard env e) ]
  | Sblock stmts ->
    push_scope env;
    let r = check_stmts env stmts in
    pop_scope env;
    r
  | Sif (cond, then_, else_) ->
    let c = check_expr env cond in
    if not (is_scalar (decay c.ty)) then err "if condition must be scalar";
    push_scope env;
    let t = check_stmts env then_ in
    pop_scope env;
    push_scope env;
    let e = check_stmts env else_ in
    pop_scope env;
    [ TSif (c, t, e) ]
  | Swhile (cond, body) ->
    let c = check_expr env cond in
    if not (is_scalar (decay c.ty)) then err "while condition must be scalar";
    env.loop_depth <- env.loop_depth + 1;
    push_scope env;
    let b = check_stmts env body in
    pop_scope env;
    env.loop_depth <- env.loop_depth - 1;
    [ TSloop (Some c, None, b) ]
  | Sdowhile (body, cond) ->
    env.loop_depth <- env.loop_depth + 1;
    push_scope env;
    let b = check_stmts env body in
    pop_scope env;
    env.loop_depth <- env.loop_depth - 1;
    let c = check_expr env cond in
    if not (is_scalar (decay c.ty)) then
      err "do-while condition must be scalar";
    [ TSdowhile (b, c) ]
  | Sswitch (scrutinee, cases) ->
    let sc = check_expr env scrutinee in
    if not (is_intish (decay sc.ty)) then
      err "switch scrutinee must be an integer";
    let seen = ref [] in
    let defaults = ref 0 in
    env.switch_depth <- env.switch_depth + 1;
    let cases' =
      List.map
        (fun (c : switch_case) ->
          let const =
            match c.sc_const with
            | None ->
              incr defaults;
              if !defaults > 1 then err "%s: duplicate default" env.cur_fname;
              None
            | Some e -> (
              match const_value env e with
              | Wconst v ->
                if List.mem v !seen then
                  err "%s: duplicate case %ld" env.cur_fname v;
                seen := v :: !seen;
                Some v
              | Waddr _ -> err "case label must be an integer constant")
          in
          push_scope env;
          let body = check_stmts env c.sc_body in
          pop_scope env;
          (const, body))
        cases
    in
    env.switch_depth <- env.switch_depth - 1;
    [ TSswitch (sc, cases') ]
  | Sfor (init, cond, step, body) ->
    let init' = Option.map (check_expr_discard env) init in
    let cond' = Option.map (check_expr env) cond in
    let step' = Option.map (check_expr_discard env) step in
    (match cond' with
     | Some c when not (is_scalar (decay c.ty)) ->
       err "for condition must be scalar"
     | _ -> ());
    env.loop_depth <- env.loop_depth + 1;
    push_scope env;
    let b = check_stmts env body in
    pop_scope env;
    env.loop_depth <- env.loop_depth - 1;
    let loop = TSloop (cond', step', b) in
    (match init' with None -> [ loop ] | Some i -> [ TSexpr i; loop ])
  | Sreturn None ->
    if env.cur_ret <> Void then err "%s: return without value" env.cur_fname;
    [ TSreturn None ]
  | Sreturn (Some e) ->
    if env.cur_ret = Void then err "%s: void return with value" env.cur_fname;
    let e' = check_expr env e in
    if not (is_scalar (decay e'.ty)) then err "return of non-scalar";
    [ TSreturn (Some (narrowed env.cur_ret e')) ]
  | Sbreak ->
    if env.loop_depth = 0 && env.switch_depth = 0 then
      err "%s: break outside loop or switch" env.cur_fname;
    [ TSbreak ]
  | Scontinue ->
    if env.loop_depth = 0 then err "%s: continue outside loop" env.cur_fname;
    [ TScontinue ]
  | Sdecl d when d.d_static ->
    let sym = env.cur_fname ^ "." ^ d.d_name in
    let init =
      match d.d_init with
      | None -> Gzero (sizeof env.structs d.d_ty)
      | Some e ->
        global_init env
          { g_static = true; g_extern = false; g_ty = d.d_ty;
            g_name = sym; g_init = Some (Init_scalar e) }
    in
    env.extra_globals <-
      { gi_name = sym; gi_static = true; gi_ty = d.d_ty; gi_init = init }
      :: env.extra_globals;
    bind env d.d_name (Bstatic (sym, d.d_ty));
    []
  | Sdecl d ->
    let size = round_up (max 4 (sizeof env.structs d.d_ty)) 4 in
    let slot = env.next_local in
    env.next_local <- slot + 1;
    env.locals <- { l_id = slot; l_ty = d.d_ty; l_size = size } :: env.locals;
    bind env d.d_name (Blocal (slot, d.d_ty));
    (match d.d_init with
     | None -> []
     | Some e ->
       if not (is_scalar d.d_ty) then err "%s: aggregate initializer" d.d_name;
       let e' = check_expr env e in
       [ TSexpr (mk (Tlocal_set (slot, narrowed d.d_ty e')) d.d_ty) ])

(* --- top level --- *)

let check ~unit_name (prog : program) : tunit =
  (* pass 1: collect structs, function signatures, globals *)
  let structs = ref [] in
  let funcs : (string, fsig) Hashtbl.t = Hashtbl.create 32 in
  let globals : (string, ty) Hashtbl.t = Hashtbl.create 32 in
  let defined_globals = ref [] in
  List.iter
    (function
      | Tstruct s ->
        if List.mem_assoc s.s_name !structs then
          err "duplicate struct %s" s.s_name;
        structs := (s.s_name, s.s_fields) :: !structs
      | Tfunc f ->
        let fs =
          { fs_ret = f.f_ret; fs_params = List.map fst f.f_params;
            fs_defined = Option.is_some f.f_body }
        in
        (match Hashtbl.find_opt funcs f.f_name with
         | Some prev ->
           if prev.fs_ret <> fs.fs_ret || prev.fs_params <> fs.fs_params then
             err "conflicting declarations of %s" f.f_name;
           if prev.fs_defined && fs.fs_defined then
             err "duplicate definition of %s" f.f_name;
           if fs.fs_defined then Hashtbl.replace funcs f.f_name fs
         | None -> Hashtbl.replace funcs f.f_name fs)
      | Tglobal g ->
        (match Hashtbl.find_opt globals g.g_name with
         | Some t when t <> g.g_ty ->
           err "conflicting declarations of %s" g.g_name
         | _ -> ());
        Hashtbl.replace globals g.g_name g.g_ty;
        if not g.g_extern then begin
          if List.mem g.g_name !defined_globals then
            err "duplicate definition of %s" g.g_name;
          defined_globals := g.g_name :: !defined_globals
        end
      | Thook _ -> ())
    prog;
  let env =
    { unit_name; structs = !structs; funcs; globals; scopes = [];
      locals = []; next_local = 0; loop_depth = 0; switch_depth = 0;
      cur_fname = "";
      cur_ret = Void; extra_globals = [] }
  in
  (* pass 2: check bodies, build items *)
  let tfuncs = ref [] in
  let gitems = ref [] in
  let hooks = ref [] in
  List.iter
    (function
      | Tstruct _ -> ()
      | Tglobal g when g.g_extern -> ()
      | Tglobal g ->
        (match g.g_ty with
         | Void -> err "%s: void variable" g.g_name
         | _ -> ());
        gitems :=
          { gi_name = g.g_name; gi_static = g.g_static; gi_ty = g.g_ty;
            gi_init = global_init env g }
          :: !gitems
      | Tfunc { f_body = None; _ } -> ()
      | Tfunc f ->
        let body = Option.get f.f_body in
        env.scopes <- [ Hashtbl.create 8 ];
        env.locals <- [];
        env.next_local <- 0;
        env.loop_depth <- 0;
        env.switch_depth <- 0;
        env.cur_fname <- f.f_name;
        env.cur_ret <- f.f_ret;
        List.iteri
          (fun i (t, name) ->
            (match t with
             | Array _ | Struct _ | Void -> err "%s: bad parameter type" name
             | _ -> ());
            bind env name (Bparam (i, t)))
          f.f_params;
        let tbody = check_stmts env body in
        tfuncs :=
          { tf_name = f.f_name; tf_static = f.f_static;
            tf_inline = f.f_inline; tf_ret = f.f_ret;
            tf_params = f.f_params; tf_locals = List.rev env.locals;
            tf_body = tbody }
          :: !tfuncs;
        env.scopes <- []
      | Thook (k, fname) ->
        (match Hashtbl.find_opt funcs fname with
         | Some { fs_defined = true; _ } -> hooks := (k, fname) :: !hooks
         | _ -> err "hook %s references undefined function" fname))
    prog;
  let defined_funcs =
    List.rev_map (fun (f : tfunc) -> f.tf_name) !tfuncs
  in
  {
    tu_name = unit_name;
    tu_funcs = List.rev !tfuncs;
    tu_globals = List.rev !gitems @ List.rev env.extra_globals;
    tu_hooks = List.rev !hooks;
    tu_defined_funcs = defined_funcs;
  }
