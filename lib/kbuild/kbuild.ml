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

(* internal: carries the typed error out of the domain pool; Parallel.map
   re-raises the smallest-index failure, so the surfaced error is
   deterministically the first failing unit in path order *)
exception Fail of error

(* Content-addressed compile cache: (digest(source), options fingerprint)
   -> compiled unit, backed by the shared artifact store ({!Store}). The
   store supplies the mutex-guarded LRU discipline and the hit/miss/
   eviction accounting (mirrored as [store.kbuild.*] trace counters);
   this module contributes only the cache key and the unit codec.
   Compilation happens outside the store's lock; when two domains race to
   compile the same key, both intern byte-identical encodings (builds are
   deterministic), so the blob dedups and every caller shares one
   physical artifact. *)

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
  Printf.sprintf "fs=%b;al=%b;inl=%b;%d;%d" o.codegen.function_sections
    o.codegen.align_loops o.inline_enabled o.auto_inline_max
    o.explicit_inline_max

(* netstring-style framing: "<decimal len>:<bytes>" per field *)
module Unit_codec = Store.Typed (struct
  type v = unit_build

  let codec_id = "kbuild-unit/1"

  let put_str b s =
    Buffer.add_string b (string_of_int (String.length s));
    Buffer.add_char b ':';
    Buffer.add_string b s

  let encode u =
    let b = Buffer.create 1024 in
    put_str b u.source_name;
    put_str b (Bytes.to_string (Objfile.to_bytes u.obj));
    put_str b (string_of_int (List.length u.inline_decisions));
    List.iter
      (fun (d : Minic.Inline.decision) ->
        put_str b d.caller;
        put_str b d.callee)
      u.inline_decisions;
    Buffer.contents b

  let decode s =
    let pos = ref 0 in
    let fail m = failwith (Printf.sprintf "%s at byte %d" m !pos) in
    let get_str () =
      match String.index_from_opt s !pos ':' with
      | None -> fail "missing length prefix"
      | Some colon ->
        let len =
          match int_of_string_opt (String.sub s !pos (colon - !pos)) with
          | Some n when n >= 0 -> n
          | _ -> fail "bad length prefix"
        in
        if colon + 1 + len > String.length s then fail "truncated field";
        pos := colon + 1 + len;
        String.sub s (colon + 1) len
    in
    match
      let source_name = get_str () in
      let obj =
        match Objfile.of_bytes (Bytes.of_string (get_str ())) with
        | Ok o -> o
        | Error e ->
          fail (Format.asprintf "bad object: %a" Objfile.pp_decode_error e)
      in
      let n =
        match int_of_string_opt (get_str ()) with
        | Some n when n >= 0 -> n
        | _ -> fail "bad decision count"
      in
      let inline_decisions =
        List.init n (fun _ ->
            let caller = get_str () in
            let callee = get_str () in
            ({ caller; callee } : Minic.Inline.decision))
      in
      { source_name; obj; inline_decisions }
    with
    | u -> Ok u
    | exception Failure m -> Error m
end)

let compile_one ~options path contents =
  let key =
    Digest.to_hex (Digest.string contents)
    ^ "|" ^ path ^ "|" ^ options_fingerprint options
  in
  match Unit_codec.lookup the_store key with
  | Some u -> u
  | None ->
    let u =
      if String.ends_with ~suffix:".c" path then begin
        match Minic.Driver.compile ~options ~unit_name:path contents with
        | Ok { obj; inline_decisions } ->
          { source_name = path; obj; inline_decisions }
        | Error e ->
          let reason = Format.asprintf "%a" Minic.Driver.pp_error e in
          raise (Fail (Unit_compile_failed { unit_name = path; reason }))
      end
      else begin
        match
          Asm.Assembler.assemble ~unit_name:path
            ~function_sections:options.codegen.function_sections contents
        with
        | obj -> { source_name = path; obj; inline_decisions = [] }
        | exception Asm.Assembler.Error { line; msg } ->
          raise
            (Fail
               (Unit_assemble_failed
                  { unit_name = path; line; reason = msg }))
      end
    in
    ignore (Unit_codec.remember the_store ~key u : Store.digest);
    u

let is_source path =
  String.ends_with ~suffix:".c" path || String.ends_with ~suffix:".s" path

let build_tree ?domains ~options tree =
  let sources =
    Patchfmt.Source_tree.bindings tree
    |> List.filter (fun (path, _) -> is_source path)
  in
  match
    Parallel.map ?domains
      (fun (path, contents) -> compile_one ~options path contents)
      sources
  with
  | units -> Ok { units; options }
  | exception Fail e -> Error e

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
