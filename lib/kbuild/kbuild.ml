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

(* Content-addressed compile cache: (digest(source), options fingerprint)
   -> compiled unit, backed by the shared artifact store ({!Store}). The
   store supplies the mutex-guarded LRU discipline and the hit/miss/
   eviction accounting (mirrored as [store.kbuild.*] trace counters);
   this module contributes only the cache key and the unit codec.
   Compilation happens outside the store's lock; when two concurrent
   builds race to compile the same key, both intern byte-identical
   encodings (builds are deterministic), so the blob dedups and every
   caller shares one physical artifact. *)

type cache_stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

let the_store = Store.create ~name:"kbuild" ~capacity:1024 ()
let store () = the_store

let set_cache_capacity n = Store.set_capacity the_store n

let cache_stats () =
  let s = Store.stats the_store in
  {
    hits = s.Store.hits;
    misses = s.Store.misses;
    evictions = s.Store.evictions;
    entries = s.Store.entries;
    capacity = s.Store.capacity;
  }

let reset_cache () = Store.reset the_store

let options_fingerprint (o : Minic.Driver.options) =
  Printf.sprintf "fs=%b;al=%b" o.codegen.function_sections
    o.codegen.align_loops

(* the unit codec on {!Codec}, led by its codec id; a blob that fails to
   decode is a cache miss *)
module Unit_codec = Store.Typed (struct
  type v = unit_build

  let codec_id = "kbuild-unit/2"

  let put_decision b (d : Minic.Inline.decision) =
    Codec.put_str b d.caller;
    Codec.put_str b d.callee

  let encode u =
    let b = Buffer.create 1024 in
    Buffer.add_string b codec_id;
    Codec.put_str b u.source_name;
    Codec.put_str b (Bytes.to_string (Objfile.to_bytes u.obj));
    Codec.put_list put_decision b u.inline_decisions;
    Buffer.contents b

  let get_decision r : Minic.Inline.decision =
    let caller = Codec.get_str r in
    let callee = Codec.get_str r in
    { caller; callee }

  let decode =
    Codec.decode ~magic:codec_id (fun r ->
        let source_name = Codec.get_str r in
        let obj =
          match Objfile.of_bytes (Bytes.of_string (Codec.get_str r)) with
          | Ok o -> o
          | Error e ->
            Codec.fail r (Format.asprintf "bad object: %a" Codec.pp_error e)
        in
        let inline_decisions = Codec.get_list get_decision r in
        { source_name; obj; inline_decisions })
end)

let compile_one ~options ~fingerprint path contents digest =
  let key = String.concat "|" [ Digest.to_hex digest; path; fingerprint ] in
  match Unit_codec.lookup the_store key with
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
    Result.iter
      (fun u -> ignore (Unit_codec.remember the_store ~key u : Store.digest))
      compiled;
    compiled

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
