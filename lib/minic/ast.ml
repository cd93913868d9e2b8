(* Abstract syntax for MiniC, the C subset the simulated kernel is written
   in. The subset is chosen to exercise every language feature the paper's
   object-code argument leans on: static file-scope variables and functions
   (ambiguous symbols), static locals, implicit integer widening at call
   boundaries, small functions subject to automatic inlining, structs and
   pointers, and Ksplice's custom-code hooks. *)

type ty =
  | Void
  | Char
  | Short
  | Int
  | Ptr of ty
  | Array of ty * int
  | Struct of string

type binop =
  | Badd | Bsub | Bmul | Bdiv | Bmod
  | Band | Bor | Bxor | Bshl | Bshr
  | Beq | Bne | Blt | Ble | Bgt | Bge
  | Bland | Blor  (* short-circuit && and || *)

type unop = Uneg | Unot (* logical ! *) | Ubnot (* bitwise ~ *)

type expr =
  | Eint of int32
  | Echar of char
  | Estr of string
  | Eident of string
  | Ecall of string * expr list  (* direct call or builtin *)
  | Eicall of expr * expr list  (* indirect call through a value *)
  | Ebin of binop * expr * expr
  | Eun of unop * expr
  | Ederef of expr
  | Eaddr of expr  (* &lvalue or &function *)
  | Eindex of expr * expr  (* a[i] *)
  | Efield of expr * string  (* e.f  (e a struct lvalue) *)
  | Earrow of expr * string  (* e->f *)
  | Eassign of expr * expr  (* lvalue = e *)
  | Ecompound of binop * expr * expr  (* lvalue op= e; lvalue evaluated once *)
  | Epostop of binop * expr  (* lvalue++/--: yields the pre-update value *)
  | Ecast of ty * expr
  | Esizeof of ty

type stmt =
  | Sexpr of expr
  | Sif of expr * stmt list * stmt list
  | Swhile of expr * stmt list
  | Sdowhile of stmt list * expr
  | Sfor of expr option * expr option * expr option * stmt list
  | Sswitch of expr * switch_case list
  | Sreturn of expr option
  | Sbreak
  | Scontinue
  | Sdecl of decl
  | Sblock of stmt list

and switch_case = {
  sc_const : expr option;  (* None for default: *)
  sc_body : stmt list;  (* falls through to the next case *)
}

and decl = {
  d_static : bool;  (* static local: becomes a hidden data symbol *)
  d_ty : ty;
  d_name : string;
  d_init : expr option;
}

type initializer_ =
  | Init_scalar of expr  (* must be a constant expression *)
  | Init_string of string
  | Init_list of expr list

type global = {
  g_static : bool;
  g_extern : bool;  (* declaration only; storage lives in another unit *)
  g_ty : ty;
  g_name : string;
  g_init : initializer_ option;
}

type func = {
  f_static : bool;
  f_inline : bool;
  f_ret : ty;
  f_name : string;
  f_params : (ty * string) list;
  f_body : stmt list option;  (* None for a declaration/prototype *)
}

(* Ksplice custom-code hook registrations (paper §5.3): each emits a
   function pointer into a special .ksplice.* section. *)
type hook_kind =
  | Hook_apply
  | Hook_pre_apply
  | Hook_post_apply
  | Hook_reverse
  | Hook_pre_reverse
  | Hook_post_reverse
  (* shadow-variable hooks: constructors run once the replacement code is
     live, destructors when the update is removed (§5.3's shadow data
     structures — patches that extend a struct layout) *)
  | Hook_shadow_ctor
  | Hook_shadow_dtor

let hook_section = function
  | Hook_apply -> ".ksplice.apply"
  | Hook_pre_apply -> ".ksplice.pre_apply"
  | Hook_post_apply -> ".ksplice.post_apply"
  | Hook_reverse -> ".ksplice.reverse"
  | Hook_pre_reverse -> ".ksplice.pre_reverse"
  | Hook_post_reverse -> ".ksplice.post_reverse"
  | Hook_shadow_ctor -> ".ksplice.shadow_ctor"
  | Hook_shadow_dtor -> ".ksplice.shadow_dtor"

type struct_def = {
  s_name : string;
  s_fields : (ty * string) list;
}

type topdecl =
  | Tstruct of struct_def
  | Tglobal of global
  | Tfunc of func
  | Thook of hook_kind * string  (* hook kind, function name *)

type program = topdecl list

let rec string_of_ty = function
  | Void -> "void"
  | Char -> "char"
  | Short -> "short"
  | Int -> "int"
  | Ptr t -> string_of_ty t ^ "*"
  | Array (t, n) -> Printf.sprintf "%s[%d]" (string_of_ty t) n
  | Struct s -> "struct " ^ s
