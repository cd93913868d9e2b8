(** Typechecker: resolves names, computes struct layouts, inserts implicit
    widenings and pointer scaling, and lowers to {!Tast}. *)

exception Error of string

(** [sizeof structs ty] is the byte size of [ty] given struct layouts from
    the program being checked. Exposed for tests. *)
val sizeof : (string * (Ast.ty * string) list) list -> Ast.ty -> int

(** [field_offset structs tag field] is the byte offset of [field] in
    [struct tag]. @raise Error if unknown. *)
val field_offset :
  (string * (Ast.ty * string) list) list -> string -> string -> int

(** [check ~unit_name program] typechecks and lowers a compilation unit.
    @raise Error with a descriptive message on any type or name error. *)
val check : unit_name:string -> Ast.program -> Tast.tunit
