module Tree = Patchfmt.Source_tree
module Diff = Patchfmt.Diff
module Section = Objfile.Section
module Symbol = Objfile.Symbol
module Reloc = Objfile.Reloc

type request = {
  source : Tree.t;
  patch : Diff.t;
  update_id : string;
  description : string;
}

type error =
  | Patch_error of string
  | Build_error of string
  | No_object_changes
  | Data_semantics_changed of (string * string) list

let pp_error ppf = function
  | Patch_error m -> Format.fprintf ppf "patch does not apply: %s" m
  | Build_error m -> Format.fprintf ppf "build failed: %s" m
  | No_object_changes -> Format.fprintf ppf "patch changed no object code"
  | Data_semantics_changed l ->
    Format.fprintf ppf
      "patch changes the initial value of persistent data (%s); custom \
       update code is required"
      (String.concat ", "
         (List.map (fun (u, d) -> Printf.sprintf "%s:%s" u d) l))

type provenance = {
  p_unit : string;
  p_patch : Diff.stats;
  p_hunks : int;
  p_shipped : (string * Prepost.reason) list;
}

type created = {
  update : Update.t;
  diffs : Prepost.unit_diff list;
  provenance : provenance list;
}

let shipped_symbols c =
  List.concat_map
    (fun p -> List.map (fun (s, r) -> (s, (p.p_unit, r))) p.p_shipped)
    c.provenance

let is_source path =
  Filename.check_suffix path ".c" || Filename.check_suffix path ".s"

let empty_obj unit_name = Objfile.make ~unit_name ~sections:[] ~symbols:[]

(* --- carving: which post sections and symbols ship ---

   Minimal mode ships exactly the diff's inclusion set: whole sections
   for functions and data (one symbol each), per-symbol slices cut out
   of the shared [.rodata.str] for read-only data, plus the [.ksplice.*]
   note sections. Whole-unit mode — the measurable baseline the bench
   and minimality sweep compare against — ships every text section, the
   whole read-only pool, and new data, kpatch's "just ship the object"
   alternative. *)

(* a shipped uncorrelated temp keeps its post identity but must not
   collide with a pre-side temp name of the same unit (run-pre inference
   resolves pre names against the unpatched kernel), so it ships under a
   [.post]-suffixed alias *)
let alias_of (d : Prepost.unit_diff) name =
  match List.assoc_opt name d.renames with
  | Some pre_name -> pre_name
  | None ->
    if Prepost.is_temp name && List.mem name d.changed_rodata then
      name ^ ".post"
    else name

let note_sections (post : Objfile.t) =
  List.filter
    (fun (s : Section.t) ->
      s.kind = Section.Note && String.starts_with ~prefix:".ksplice." s.name)
    post.sections

(* (section, defining symbols) pairs to ship, post names, in a stable
   order; rodata slices become their own single-symbol sections *)
let carve_minimal (post : Objfile.t) (d : Prepost.unit_diff) =
  let out = ref [] in
  let shipped_sections = Hashtbl.create 8 in
  List.iter
    (fun (name, _reason) ->
      match Objfile.find_symbol post name with
      | None -> ()
      | Some sym -> (
        match sym.def with
        | None -> ()
        | Some def -> (
          match Objfile.find_section post def.section with
          | None -> ()
          | Some sec ->
            if sec.kind = Section.Rodata then begin
              match Prepost.slice_of post sym with
              | None -> ()
              | Some sl ->
                let alias = alias_of d name in
                let s' =
                  Section.make ~name:(".rodata." ^ alias)
                    ~kind:Section.Rodata ~align:sec.align
                    (Prepost.slice_bytes sl) (Prepost.slice_relocs sl)
                in
                let sym' =
                  { sym with def = Some { section = s'.name; value = 0 } }
                in
                out := (s', [ sym' ]) :: !out
            end
            else if not (Hashtbl.mem shipped_sections sec.name) then begin
              Hashtbl.add shipped_sections sec.name ();
              out := (sec, Objfile.defined_symbols_in post sec.name) :: !out
            end)))
    d.inclusion;
  List.iter (fun s -> out := (s, []) :: !out) (note_sections post);
  List.rev !out

let carve_whole (post : Objfile.t) (d : Prepost.unit_diff) =
  let ship (s : Section.t) =
    match s.kind with
    | Section.Text | Section.Rodata -> true
    | Section.Data | Section.Bss -> (
      match Prepost.dataname_of_section s with
      | Some n -> List.mem n d.new_data
      | None -> false)
    | Section.Note -> String.starts_with ~prefix:".ksplice." s.name
  in
  List.filter_map
    (fun (s : Section.t) ->
      if ship s then Some (s, Objfile.defined_symbols_in post s.name)
      else None)
    post.sections

(* --- helper minimisation ---

   A helper exists to (a) anchor and §4.2-verify every replaced
   function, (b) let run-pre inference resolve the primary's undefined
   unit-local symbols from relocation holes in matched pre code, and
   (c) pin ambiguously-named local functions through a referencing
   function that matches first. Everything else in the pre object is
   dead weight that costs candidate trials, so the minimal helper keeps
   only those text sections (and the full symbol table, which carries
   the bindings and sizes matching needs). *)

let minimal_helper ~multi_defined (pre : Objfile.t) ~replaced_raw
    ~needed_locals =
  let texts =
    List.filter (fun (s : Section.t) -> s.kind = Section.Text) pre.sections
  in
  let kept = Hashtbl.create 8 in
  let keep (s : Section.t) = Hashtbl.replace kept s.name () in
  let is_kept (s : Section.t) = Hashtbl.mem kept s.name in
  let refs name (s : Section.t) =
    List.exists (fun (r : Reloc.t) -> String.equal r.sym name) s.relocs
  in
  let anchor_name s =
    Option.map (fun (a : Symbol.t) -> a.name) (Objfile.text_anchor pre s)
  in
  (* (a) replaced functions *)
  List.iter
    (fun s ->
      match anchor_name s with
      | Some f when List.mem f replaced_raw -> keep s
      | _ -> ())
    texts;
  (* (b) inference providers: one referencing section per needed local,
     preferring sections already kept; a local function nothing
     references still anchors itself *)
  List.iter
    (fun l ->
      let covered =
        List.exists (fun s -> is_kept s && refs l s) texts
        || List.exists (fun s -> is_kept s && anchor_name s = Some l) texts
      in
      if not covered then
        match List.find_opt (refs l) texts with
        | Some s -> keep s
        | None -> (
          match
            List.find_opt (fun s -> anchor_name s = Some l) texts
          with
          | Some s -> keep s
          | None -> ()))
    needed_locals;
  (* (c) disambiguators: a kept local whose raw name is defined in
     several units needs a kept referencer whose match pins its address
     through inference before its own candidates are tried *)
  let progress = ref true in
  while !progress do
    progress := false;
    List.iter
      (fun s ->
        if is_kept s then
          match Objfile.text_anchor pre s with
          | Some a when a.binding = Symbol.Local && multi_defined a.name ->
            let pinned =
              List.exists
                (fun s' ->
                  is_kept s'
                  && not (String.equal s'.Section.name s.Section.name)
                  && refs a.name s')
                texts
            in
            if not pinned then (
              match
                List.find_opt
                  (fun s' ->
                    (not (is_kept s'))
                    && not (String.equal s'.Section.name s.Section.name)
                    && refs a.name s')
                  texts
              with
              | Some s' ->
                keep s';
                progress := true
              | None -> ())
          | _ -> ())
      texts
  done;
  { pre with sections = List.filter is_kept pre.sections }

let create ?(minimal = true) ?store:(_ : Store.t option) ?(supersedes = [])
    req =
  Trace.with_span "create"
    ~fields:[ ("update", Trace.Str req.update_id) ]
  @@ fun () ->
  match Diff.apply req.patch req.source with
  | Error m -> Error (Patch_error m)
  | Ok post_tree -> (
    match
      (* pre before post, sequentially: the post build then recompiles
         only patched units, everything else hits the compile cache *)
      match Kbuild.build_tree ~options:Minic.Driver.pre_build req.source with
      | Error e -> Error e
      | Ok pre_build -> (
        match Kbuild.build_tree ~options:Minic.Driver.pre_build post_tree with
        | Error e -> Error e
        | Ok post_build -> Ok (pre_build, post_build))
    with
    | Error e -> Error (Build_error (Format.asprintf "%a" Kbuild.pp_error e))
    | Ok (pre_build, post_build) ->
      let patched_units =
        Diff.changed_files req.patch |> List.filter is_source
      in
      let diffs =
        List.map
          (fun unit_name ->
            Trace.with_span "create.unit"
              ~fields:[ ("unit", Trace.Str unit_name) ]
            @@ fun () ->
            let pre =
              match Kbuild.find_unit pre_build unit_name with
              | Some u -> u.obj
              | None -> empty_obj unit_name
            in
            let post =
              match Kbuild.find_unit post_build unit_name with
              | Some u -> u.obj
              | None -> empty_obj unit_name
            in
            Prepost.diff_unit ~pre ~post)
          patched_units
      in
      if List.for_all Prepost.is_empty diffs then Error No_object_changes
      else begin
        (* how many units of the pre build define a raw Func name: the
           helper minimiser's ambiguity oracle (kallsyms will offer one
           candidate per unit) *)
        let fn_def_counts = Hashtbl.create 64 in
        List.iter
          (fun (u : Kbuild.unit_build) ->
            List.iter
              (fun (s : Section.t) ->
                match Objfile.text_anchor u.obj s with
                | Some a ->
                  Hashtbl.replace fn_def_counts a.name
                    (1
                    + Option.value ~default:0
                        (Hashtbl.find_opt fn_def_counts a.name))
                | None -> ())
              u.obj.sections)
          pre_build.units;
        let multi_defined name =
          Option.value ~default:0 (Hashtbl.find_opt fn_def_counts name) > 1
        in
        (* assemble the primary object *)
        let prim_sections = ref [] in
        let prim_symbols = ref [] in
        let sym_units = ref [] in
        let replaced = ref [] in
        let shipped = ref [] in
        let has_hooks = ref false in
        List.iter2
          (fun unit_name (d : Prepost.unit_diff) ->
            match Kbuild.find_unit post_build unit_name with
            | None -> ()
            | Some u ->
              let post = u.obj in
              let carved =
                if minimal then carve_minimal post d else carve_whole post d
              in
              (* every local symbol of the unit is canonicalised, whether
                 its definition is included (it will be defined by the
                 primary) or not (run-pre inference will resolve it).
                 References to correlated temps use their pre-side names
                 — those resolve against the unpatched running kernel. *)
              let bindings = Objfile.bindings post in
              let rename name =
                let binding =
                  match Hashtbl.find_opt bindings name with
                  | Some b -> b
                  | None -> Symbol.Global
                in
                let name = if minimal then alias_of d name else name in
                Update.canonical ~binding ~unit_name name
              in
              List.iter
                (fun ((s : Section.t), (syms : Symbol.t list)) ->
                  if String.starts_with ~prefix:".ksplice." s.name then
                    has_hooks := true;
                  let s' =
                    { s with
                      name = s.name ^ "@" ^ unit_name;
                      relocs =
                        List.map
                          (fun (r : Reloc.t) -> { r with sym = rename r.sym })
                          s.relocs }
                  in
                  prim_sections := s' :: !prim_sections;
                  List.iter
                    (fun (sym : Symbol.t) ->
                      match sym.def with
                      | None -> ()
                      | Some def ->
                        let name' = rename sym.name in
                        prim_symbols :=
                          { sym with
                            name = name';
                            def =
                              Some
                                { def with
                                  section = def.section ^ "@" ^ unit_name } }
                          :: !prim_symbols;
                        sym_units := (name', unit_name) :: !sym_units)
                    syms)
                carved;
              List.iter
                (fun f -> replaced := (unit_name, rename f) :: !replaced)
                d.changed_functions;
              (* per-symbol provenance, canonical names *)
              let shipped_syms =
                if minimal then
                  List.map (fun (n, r) -> (rename n, r)) d.inclusion
                else
                  List.concat_map
                    (fun ((_ : Section.t), syms) ->
                      List.map
                        (fun (sym : Symbol.t) ->
                          let reason =
                            match List.assoc_opt sym.name d.inclusion with
                            | Some r -> r
                            | None -> Prepost.Closure_of "whole-unit"
                          in
                          (rename sym.name, reason))
                        syms)
                    carved
              in
              shipped := (unit_name, shipped_syms) :: !shipped)
          patched_units diffs;
        (* data-semantics gate: changed init of existing data needs custom
           code; the diff names the exact symbol, not just its section *)
        let data_changes =
          List.concat_map
            (fun (d : Prepost.unit_diff) ->
              List.map (fun n -> (d.unit_name, n)) d.changed_data)
            diffs
        in
        if data_changes <> [] && not !has_hooks then
          Error (Data_semantics_changed data_changes)
        else begin
          let primary =
            Objfile.make ~unit_name:("ksplice-" ^ req.update_id)
              ~sections:(List.rev !prim_sections)
              ~symbols:(List.rev !prim_symbols)
          in
          (* undefined references, to be resolved at apply time *)
          let undef_names = Objfile.undefined_symbols primary in
          let undef =
            List.map (fun n -> Symbol.make ~name:n None) undef_names
          in
          let primary = { primary with symbols = primary.symbols @ undef } in
          (* the raw unit-local names run-pre inference must supply, per
             unit: these drive which pre functions the minimal helper
             keeps as inference providers *)
          let needed_locals_of unit_name =
            List.filter_map
              (fun n ->
                match Update.split_canonical n with
                | raw, Some u when String.equal u unit_name -> Some raw
                | _ -> None)
              undef_names
          in
          let helpers =
            List.filter_map
              (fun (unit_name, (d : Prepost.unit_diff)) ->
                match Kbuild.find_unit pre_build unit_name with
                | None -> None
                | Some (u : Kbuild.unit_build) ->
                  if not minimal then Some u.obj
                  else if Prepost.is_empty d then None
                  else
                    let replaced_raw = d.changed_functions in
                    Some
                      (minimal_helper ~multi_defined u.obj ~replaced_raw
                         ~needed_locals:(needed_locals_of unit_name)))
              (List.combine patched_units diffs)
          in
          let update =
            {
              Update.update_id = req.update_id;
              description = req.description;
              patched_units;
              replaced_functions = List.rev !replaced;
              primary;
              helpers;
              primary_sym_units = List.rev !sym_units;
              supersedes;
              shadow_ctors =
                Update.hook_fns primary Minic.Ast.Hook_shadow_ctor;
              shadow_dtors =
                Update.hook_fns primary Minic.Ast.Hook_shadow_dtor;
            }
          in
          let provenance =
            List.map
              (fun unit_name ->
                {
                  p_unit = unit_name;
                  p_patch = Diff.file_stats req.patch unit_name;
                  p_hunks = Diff.file_hunks req.patch unit_name;
                  p_shipped =
                    (match List.assoc_opt unit_name !shipped with
                     | Some l -> l
                     | None -> []);
                })
              patched_units
          in
          Ok { update; diffs; provenance }
        end
      end)
