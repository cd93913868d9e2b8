(** MiniC compiler driver: source text to object file. *)

(** Every build inlines with {!Inline}'s fixed bounds; the builds
    differ only in code generation. *)
type options = { codegen : Codegen.options }

(** Distro-kernel-style build (the "run" kernel): single text section per
    unit, aligned loops, inlining on. *)
val run_build : options

(** Ksplice pre/post build: function/data sections, inlining on (the same
    inlining decisions as the run build — determinism across builds is
    what makes run-pre matching succeed). *)
val pre_build : options

type compiled = {
  obj : Objfile.t;
  inline_decisions : Inline.decision list;
}

(** Compilation failure as data: a lex/parse error with its line, or a
    type error — each carrying the unit name. *)
type error =
  | Parse_error of { unit_name : string; line : int; msg : string }
  | Type_error of { unit_name : string; msg : string }

val pp_error : Format.formatter -> error -> unit

(** [compile ~options ~unit_name src] compiles one unit. Total: lexer,
    parser, and typechecker failures come back as typed errors. *)
val compile :
  options:options -> unit_name:string -> string -> (compiled, error) result
