type unit_build = {
  source_name : string;
  obj : Objfile.t;
  inline_decisions : Minic.Inline.decision list;
}

type build = {
  units : unit_build list;
  options : Minic.Driver.options;
}

type error =
  | Unit_compile_failed of { unit_name : string; reason : string }
  | Unit_assemble_failed of { unit_name : string; line : int; reason : string }

let pp_error ppf = function
  | Unit_compile_failed { unit_name = _; reason } ->
    (* driver messages already lead with the unit name *)
    Format.pp_print_string ppf reason
  | Unit_assemble_failed { unit_name; line; reason } ->
    Format.fprintf ppf "%s:%d: %s" unit_name line reason

(* Compile cache: (digest(source), path, options fingerprint) ->
   compiled unit, a table of values under one mutex, shared by every
   build in the process (concurrent builds included). Compilation
   happens outside the lock; when two builds race to compile one key,
   the first unit inserted is the one both keep, so callers share one
   physical artifact. A full table is emptied before the next insert:
   the bound is a guard on memory that no corpus build reaches, and a
   dropped unit only costs a recompile. *)

type cache_stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

let capacity = 1024
let cache : (string, unit_build) Hashtbl.t = Hashtbl.create 256
let cache_m = Mutex.create ()
let hits = ref 0
let misses = ref 0
let evictions = ref 0

let cache_stats () =
  Mutex.protect cache_m (fun () ->
      {
        hits = !hits;
        misses = !misses;
        evictions = !evictions;
        entries = Hashtbl.length cache;
        capacity;
      })

let reset_cache () = Mutex.protect cache_m (fun () -> Hashtbl.reset cache)

let options_fingerprint (o : Minic.Driver.options) =
  Printf.sprintf "fs=%b;al=%b" o.codegen.function_sections
    o.codegen.align_loops

(* counts one hit or miss *)
let lookup key =
  let found =
    Mutex.protect cache_m (fun () ->
        let found = Hashtbl.find_opt cache key in
        incr (if Option.is_some found then hits else misses);
        found)
  in
  Trace.count
    (if Option.is_some found then "kbuild.cache_hits" else "kbuild.cache_misses")
    1;
  found

(* -> the unit the table keeps for [key]: [u], or the equal unit a
   racing build inserted first *)
let insert key u =
  let kept, evicted =
    Mutex.protect cache_m (fun () ->
        match Hashtbl.find_opt cache key with
        | Some first -> (first, 0)
        | None ->
          let evicted =
            if Hashtbl.length cache < capacity then 0 else Hashtbl.length cache
          in
          if evicted > 0 then Hashtbl.reset cache;
          evictions := !evictions + evicted;
          Hashtbl.add cache key u;
          (u, evicted))
  in
  if evicted > 0 then Trace.count "kbuild.cache_evictions" evicted;
  kept

let compile_one ~options ~fingerprint path contents digest =
  let key = String.concat "|" [ Digest.to_hex digest; path; fingerprint ] in
  match lookup key with
  | Some u -> Ok u
  | None ->
    let compiled =
      if String.ends_with ~suffix:".c" path then begin
        match Minic.Driver.compile ~options ~unit_name:path contents with
        | Ok { obj; inline_decisions } ->
          Ok { source_name = path; obj; inline_decisions }
        | Error e ->
          let reason = Format.asprintf "%a" Minic.Driver.pp_error e in
          Error (Unit_compile_failed { unit_name = path; reason })
      end
      else begin
        match
          Asm.Assembler.assemble ~unit_name:path
            ~function_sections:options.codegen.function_sections contents
        with
        | obj -> Ok { source_name = path; obj; inline_decisions = [] }
        | exception Asm.Assembler.Error { line; msg } ->
          Error (Unit_assemble_failed { unit_name = path; line; reason = msg })
      end
    in
    Result.map (insert key) compiled

let is_source path =
  String.ends_with ~suffix:".c" path || String.ends_with ~suffix:".s" path

let build_tree ~options tree =
  let fingerprint = options_fingerprint options in
  Patchfmt.Source_tree.fold
    (fun path contents digest acc ->
      match acc with
      | Ok units when is_source path ->
        Result.map
          (fun u -> u :: units)
          (compile_one ~options ~fingerprint path contents digest)
      | acc -> acc)
    tree (Ok [])
  |> Result.map (fun units -> { units = List.rev units; options })

let objects b = List.map (fun u -> u.obj) b.units

let find_unit b name =
  List.find_opt (fun u -> String.equal u.source_name name) b.units

let inlined_callees b =
  List.concat_map
    (fun u ->
      List.map
        (fun (d : Minic.Inline.decision) -> (u.source_name, d.caller, d.callee))
        u.inline_decisions)
    b.units
