(** Function inlining, performed on the untyped AST before typechecking.

    Mirrors the compiler freedom the paper's §4.2 safety argument is about:
    "compilers commonly inline functions that do not have the [inline]
    keyword". Small same-unit functions are inlined automatically;
    [inline]-declared functions are inlined up to a larger size bound.
    Every inlined function is still emitted as an out-of-line copy, so the
    symbol table is unaffected.

    A call site is only inlined where the callee body can be spliced in
    safely: the call must be in an unconditionally-evaluated position of a
    statement (not a loop condition or the short-circuit side of &&/||),
    and the callee body must have no early returns. These are the
    conditions under which statement splicing preserves semantics without
    needing goto. *)

(** One performed inlining: [callee]'s body was spliced into [caller]. *)
type decision = {
  caller : string;
  callee : string;
}

type result = {
  program : Ast.program;
  decisions : decision list;
}

(** [run program] inlines eligible calls: functions of statement weight
    at most 3, or at most 12 when declared [inline]. *)
val run : Ast.program -> result
