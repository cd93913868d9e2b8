module Tree = Patchfmt.Source_tree
module Diff = Patchfmt.Diff
module Image = Klink.Image
module Ast = Minic.Ast
module Section = Objfile.Section
module Symbol = Objfile.Symbol

type failure =
  | Missed_object_changes of string list
  | Inline_sites_missed of (string * string) list
  | Ambiguous_symbol of string list
  | Static_local_lost of string list
  | Assembly_file of string

type verdict = {
  replaced_from_source : string list;
  failures : failure list;
}

let funcs_of_source src =
  Minic.Parser.parse src
  |> List.filter_map (function
       | Ast.Tfunc ({ f_body = Some _; _ } as f) -> Some (f.f_name, f)
       | _ -> None)

(* functions whose source changed between two versions of a unit *)
let source_changed_functions pre_src post_src =
  let pre = funcs_of_source pre_src in
  let post = funcs_of_source post_src in
  List.filter_map
    (fun (name, (f : Ast.func)) ->
      match List.assoc_opt name pre with
      | Some g when g = f -> None
      | _ -> Some name (* changed or new *))
    post

let rec stmt_has_static = function
  | Ast.Sdecl d -> d.d_static
  | Ast.Sif (_, a, b) -> List.exists stmt_has_static (a @ b)
  | Ast.Swhile (_, b) | Ast.Sdowhile (b, _) | Ast.Sfor (_, _, _, b)
  | Ast.Sblock b ->
    List.exists stmt_has_static b
  | Ast.Sswitch (_, cases) ->
    List.exists
      (fun (c : Ast.switch_case) -> List.exists stmt_has_static c.sc_body)
      cases
  | _ -> false

let has_static_local (f : Ast.func) =
  match f.f_body with
  | Some body -> List.exists stmt_has_static body
  | None -> false

let is_c f = Filename.check_suffix f ".c"
let is_s f = Filename.check_suffix f ".s"

let build ~options tree =
  Kbuild.build_tree ~options tree
  |> Result.map_error (Format.asprintf "%a" Kbuild.pp_error)

let evaluate ~source ~patch ~image =
  let ( let* ) = Result.bind in
  let* post_tree =
    Diff.apply patch source
    |> Result.map_error (fun m -> "patch does not apply: " ^ m)
  in
  (* inlining decisions in the running kernel *)
  let* run_build = build ~options:Minic.Driver.run_build source in
  let* pre_build = build ~options:Minic.Driver.pre_build source in
  let* post_build = build ~options:Minic.Driver.pre_build post_tree in
  try
    let failures = ref [] in
    let add f = failures := f :: !failures in
    let replaced = ref [] in
    (* ambiguity in the running kernel's symbol table *)
    let counts = Hashtbl.create 64 in
    List.iter
      (fun (s : Image.syminfo) ->
        if not (String.length s.name >= 2 && s.name.[0] = '.') then
          Hashtbl.replace counts s.name
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts s.name)))
      image.Image.kallsyms;
    let ambiguous_name n =
      match Hashtbl.find_opt counts n with Some k -> k > 1 | None -> false
    in
    let inlined = Kbuild.inlined_callees run_build in
    List.iter
      (fun unit_name ->
        if is_s unit_name then add (Assembly_file unit_name)
        else if is_c unit_name then begin
          let pre_src =
            Option.value ~default:"" (Tree.find source unit_name)
          in
          let post_src =
            Option.value ~default:"" (Tree.find post_tree unit_name)
          in
          let changed = source_changed_functions pre_src post_src in
          replaced := !replaced @ changed;
          (* ground truth: what actually changed at the object level *)
          let obj_diff =
            match
              ( Kbuild.find_unit pre_build unit_name,
                Kbuild.find_unit post_build unit_name )
            with
            | Some pre, Some post ->
              Prepost.diff_unit ~pre:pre.obj ~post:post.obj
            | _ ->
              Prepost.diff_unit
                ~pre:(Objfile.make ~unit_name ~sections:[] ~symbols:[])
                ~post:(Objfile.make ~unit_name ~sections:[] ~symbols:[])
          in
          let missed =
            List.filter
              (fun f -> not (List.mem f changed))
              (obj_diff.changed_functions @ obj_diff.new_functions)
          in
          if missed <> [] then add (Missed_object_changes missed);
          (* stale inlined copies: callee replaced, caller is not *)
          let stale =
            List.filter_map
              (fun (u, caller, callee) ->
                if
                  String.equal u unit_name
                  && List.mem callee changed
                  && not (List.mem caller changed)
                then Some (caller, callee)
                else None)
              inlined
          in
          if stale <> [] then add (Inline_sites_missed stale);
          (* static locals in recompiled functions lose their storage *)
          let with_static =
            List.filter
              (fun name ->
                match List.assoc_opt name (funcs_of_source post_src) with
                | Some f -> has_static_local f
                | None -> false)
              changed
          in
          if with_static <> [] then add (Static_local_lost with_static);
          (* symbol resolution by name only: any reference from the
             replacement functions to a local or ambiguous symbol *)
          (match Kbuild.find_unit post_build unit_name with
           | None -> ()
           | Some u ->
             let bad = ref [] in
             List.iter
               (fun (s : Section.t) ->
                 match Prepost.fname_of_section s with
                 | Some f when List.mem f changed ->
                   List.iter
                     (fun (r : Objfile.Reloc.t) ->
                       let refs_new_code =
                         (* references to other replaced functions are
                            resolvable within the baseline's own module *)
                         List.mem r.sym changed
                       in
                       let compiler_internal =
                         (* string literals are recompiled into the
                            replacement; mangled static locals are
                            already counted as lost state *)
                         String.contains r.sym '.'
                       in
                       (* a unique symbol-table entry is resolvable even
                          for file statics (§4.1: the problem is names
                          appearing "more than once or not at all") *)
                       if
                         (not refs_new_code) && (not compiler_internal)
                         && ambiguous_name r.sym
                         && not (List.mem r.sym !bad)
                       then bad := r.sym :: !bad)
                     s.relocs
                 | _ -> ())
               u.obj.sections;
             if !bad <> [] then add (Ambiguous_symbol (List.rev !bad)))
        end)
      (List.filter (fun f -> is_c f || is_s f) (Diff.changed_files patch));
    Ok { replaced_from_source = !replaced; failures = List.rev !failures }
  with
  | Minic.Parser.Error { msg; _ } -> Error ("parse: " ^ msg)
  | Minic.Lexer.Error { msg; _ } -> Error ("lex: " ^ msg)
