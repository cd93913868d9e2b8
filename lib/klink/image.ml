module Symbol = Objfile.Symbol
module Section = Objfile.Section
module Reloc = Objfile.Reloc

type syminfo = {
  name : string;
  addr : int;
  size : int;
  binding : Symbol.binding;
  kind : [ `Func | `Object | `Notype ];
  unit_name : string;
}

type t = {
  base : int;
  size : int;
  data : Bytes.t;
  kallsyms : syminfo list;
  text_range : int * int;
  placements : (string * string * int * int) list;
}

type error =
  | Missing_section of {
      ms_unit : string;
      ms_symbol : string;
      ms_section : string;
    }
  | Duplicate_global of {
      dg_symbol : string;
      dg_first_unit : string;
      dg_second_unit : string;
    }
  | Undefined_symbol of {
      us_unit : string;
      us_symbol : string;
      us_section : string;
      us_offset : int;
    }

let pp_error ppf = function
  | Missing_section { ms_unit; ms_symbol; ms_section } ->
    Format.fprintf ppf "%s: symbol %s defined in missing section %s"
      ms_unit ms_symbol ms_section
  | Duplicate_global { dg_symbol; dg_first_unit; dg_second_unit } ->
    Format.fprintf ppf "duplicate global symbol %s (defined in %s and %s)"
      dg_symbol dg_first_unit dg_second_unit
  | Undefined_symbol { us_unit; us_symbol; us_section; us_offset } ->
    Format.fprintf ppf "%s: undefined symbol %s (section %s+%#x)" us_unit
      us_symbol us_section us_offset

(* internal abort carrying the typed error; never escapes [link] *)
exception Fail of error

let err e = raise (Fail e)

let round_up v a = (v + a - 1) / a * a

let link_result ~base objects =
  (* 1. place sections, grouped text / rodata / data / bss *)
  let cursor = ref base in
  let placements = ref [] in (* (unit, section) -> addr, keep list order *)
  let place kind_filter =
    List.iter
      (fun (o : Objfile.t) ->
        List.iter
          (fun (s : Section.t) ->
            if kind_filter s.kind then begin
              let addr = round_up !cursor (max 1 s.align) in
              placements := (o.unit_name, s.name, addr, s.size) :: !placements;
              cursor := addr + s.size
            end)
          o.sections)
      objects
  in
  let text_start = base in
  place (fun k -> k = Section.Text);
  let text_end = !cursor in
  place (fun k -> k = Section.Rodata);
  place (fun k -> k = Section.Data);
  let data_end = !cursor in
  place (fun k -> k = Section.Bss);
  let total_end = !cursor in
  let placements = List.rev !placements in
  let addr_of unit_name sec_name =
    List.find_map
      (fun (u, s, a, _) ->
        if String.equal u unit_name && String.equal s sec_name then Some a
        else None)
      placements
  in
  (* 2. symbol tables *)
  let kallsyms = ref [] in
  let global_table : (string, int * string) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (o : Objfile.t) ->
      List.iter
        (fun (sym : Symbol.t) ->
          match sym.def with
          | None -> ()
          | Some d ->
            let sec_addr =
              match addr_of o.unit_name d.section with
              | Some a -> a
              | None ->
                err
                  (Missing_section
                     { ms_unit = o.unit_name; ms_symbol = sym.name;
                       ms_section = d.section })
            in
            let addr = sec_addr + d.value in
            kallsyms :=
              { name = sym.name; addr; size = sym.size;
                binding = sym.binding; kind = sym.kind;
                unit_name = o.unit_name }
              :: !kallsyms;
            if sym.binding = Symbol.Global then begin
              (match Hashtbl.find_opt global_table sym.name with
               | Some (_, prev_unit) ->
                 err
                   (Duplicate_global
                      { dg_symbol = sym.name; dg_first_unit = prev_unit;
                        dg_second_unit = o.unit_name })
               | None -> ());
              Hashtbl.replace global_table sym.name (addr, o.unit_name)
            end)
        o.symbols)
    objects;
  let kallsyms = List.rev !kallsyms in
  (* 3. copy initialised section data and apply relocations *)
  let data = Bytes.make (data_end - base) '\000' in
  List.iter
    (fun (o : Objfile.t) ->
      (* local resolution: defined symbols of this unit take precedence *)
      let local_defined name =
        List.find_map
          (fun (sym : Symbol.t) ->
            match sym.def with
            | Some d when String.equal sym.name name -> (
              match addr_of o.unit_name d.section with
              | Some a -> Some (a + d.value)
              | None -> None)
            | _ -> None)
          o.symbols
      in
      let resolve name =
        match local_defined name with
        | Some a -> Some a
        | None -> (
          match Hashtbl.find_opt global_table name with
          | Some (a, _) -> Some a
          | None -> None)
      in
      List.iter
        (fun (s : Section.t) ->
          if s.kind <> Section.Bss then begin
            match addr_of o.unit_name s.name with
            | None -> ()
            | Some sec_addr ->
              let off = sec_addr - base in
              Bytes.blit s.data 0 data off s.size;
              List.iter
                (fun (r : Reloc.t) ->
                  let sym_value =
                    match resolve r.sym with
                    | Some a -> Int32.of_int a
                    | None ->
                      err
                        (Undefined_symbol
                           { us_unit = o.unit_name; us_symbol = r.sym;
                             us_section = s.name; us_offset = r.offset })
                  in
                  let place = Int32.of_int (sec_addr + r.offset) in
                  let v =
                    Reloc.stored_value ~kind:r.kind ~sym_value
                      ~addend:r.addend ~place
                  in
                  Bytes.set_int32_le data (off + r.offset) v)
                s.relocs
          end)
        o.sections)
    objects;
  {
    base;
    size = total_end - base;
    data;
    kallsyms;
    text_range = (text_start, text_end);
    placements;
  }

let link ~base objects =
  match link_result ~base objects with
  | img -> Ok img
  | exception Fail e -> Error e

let lookup img name =
  List.filter (fun s -> String.equal s.name name) img.kallsyms

let lookup_global img name =
  List.find_opt
    (fun s -> String.equal s.name name && s.binding = Symbol.Global)
    img.kallsyms

let interesting_symbol s =
  (* compiler-internal labels (string literals etc.) are not part of the
     paper's symbol census *)
  not (String.length s.name >= 2 && s.name.[0] = '.' && s.name.[1] = 'L')

let symbol_census img =
  let syms = List.filter interesting_symbol img.kallsyms in
  let counts = Hashtbl.create 256 in
  List.iter
    (fun s ->
      Hashtbl.replace counts s.name
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts s.name)))
    syms;
  let ambiguous =
    List.length (List.filter (fun s -> Hashtbl.find counts s.name > 1) syms)
  in
  (List.length syms, ambiguous)

let units_with_ambiguous_symbol img =
  let syms = List.filter interesting_symbol img.kallsyms in
  let counts = Hashtbl.create 256 in
  List.iter
    (fun s ->
      Hashtbl.replace counts s.name
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts s.name)))
    syms;
  syms
  |> List.filter (fun s -> Hashtbl.find counts s.name > 1)
  |> List.map (fun s -> s.unit_name)
  |> List.sort_uniq compare
