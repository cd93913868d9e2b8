type options = { codegen : Codegen.options }

let run_build = { codegen = Codegen.run_options }
let pre_build = { codegen = Codegen.pre_options }

type compiled = {
  obj : Objfile.t;
  inline_decisions : Inline.decision list;
}

type error =
  | Parse_error of { unit_name : string; line : int; msg : string }
  | Type_error of { unit_name : string; msg : string }

let pp_error ppf = function
  | Parse_error { unit_name; line; msg } ->
    Format.fprintf ppf "%s:%d: %s" unit_name line msg
  | Type_error { unit_name; msg } -> Format.fprintf ppf "%s: %s" unit_name msg

let compile ~options ~unit_name src =
  match
    match Parser.parse src with
    | ast -> Ok ast
    | exception Lexer.Error { line; msg } ->
      Error (Parse_error { unit_name; line; msg })
    | exception Parser.Error { line; msg } ->
      Error (Parse_error { unit_name; line; msg })
  with
  | Error e -> Error e
  | Ok ast -> (
    let inlined = Inline.run ast in
    match Typecheck.check ~unit_name inlined.program with
    | exception Typecheck.Error msg -> Error (Type_error { unit_name; msg })
    | tunit ->
      let obj = Codegen.compile_unit ~options:options.codegen tunit in
      Ok { obj; inline_decisions = inlined.decisions })
