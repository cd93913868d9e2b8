module Section = Objfile.Section
module Symbol = Objfile.Symbol
module Reloc = Objfile.Reloc

type placed = {
  section : Section.t;
  addr : int;
}

type t = {
  obj : Objfile.t;
  placed : placed list;
  own_symbols : (string * int) list;
}

type error =
  | Unresolved_symbol of {
      un_module : string;
      un_symbol : string;
      un_section : string;
      un_offset : int;
    }

let pp_error ppf = function
  | Unresolved_symbol { un_module; un_symbol; un_section; un_offset } ->
    Format.fprintf ppf "module %s: unresolved symbol %s (section %s+%#x)"
      un_module un_symbol un_section un_offset

(* internal abort carrying the typed error; never escapes [relocate] *)
exception Fail of error

let layout ~alloc (obj : Objfile.t) =
  let placed =
    List.filter_map
      (fun (s : Section.t) ->
        match s.kind with
        | Section.Note -> None
        | _ -> Some { section = s; addr = alloc ~size:s.size ~align:s.align })
      obj.sections
  in
  let own_symbols =
    List.filter_map
      (fun (sym : Symbol.t) ->
        match sym.def with
        | None -> None
        | Some d ->
          List.find_map
            (fun p ->
              if String.equal p.section.name d.section then
                Some (sym.name, p.addr + d.value)
              else None)
            placed)
      obj.symbols
  in
  { obj; placed; own_symbols }

let section_addr t name =
  List.find_map
    (fun p -> if String.equal p.section.name name then Some p.addr else None)
    t.placed

let symbol_addr t name = List.assoc_opt name t.own_symbols

let relocate_result t ~resolve =
  let resolve_sym name =
    match List.assoc_opt name t.own_symbols with
    | Some a -> Some a
    | None -> resolve name
  in
  List.map
    (fun p ->
      let s = p.section in
      if s.kind = Section.Bss then (p.addr, Bytes.make s.size '\000')
      else begin
        let buf = Bytes.copy s.data in
        List.iter
          (fun (r : Reloc.t) ->
            let sym_value =
              match resolve_sym r.sym with
              | Some a -> Int32.of_int a
              | None ->
                raise
                  (Fail
                     (Unresolved_symbol
                        { un_module = t.obj.unit_name; un_symbol = r.sym;
                          un_section = s.name; un_offset = r.offset }))
            in
            let place = Int32.of_int (p.addr + r.offset) in
            let v =
              Reloc.stored_value ~kind:r.kind ~sym_value ~addend:r.addend
                ~place
            in
            Bytes.set_int32_le buf r.offset v)
          s.relocs;
        (p.addr, buf)
      end)
    t.placed

let relocate t ~resolve =
  match relocate_result t ~resolve with
  | writes -> Ok writes
  | exception Fail e -> Error e
