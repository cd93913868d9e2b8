type t = {
  unit_name : string;
  sections : Section.t list;
  symbols : Symbol.t list;
}

let make ~unit_name ~sections ~symbols = { unit_name; sections; symbols }

let pp ppf o =
  Format.fprintf ppf "@[<v2>object %s@,%a@,%a@]" o.unit_name
    (Format.pp_print_list Section.pp)
    o.sections
    (Format.pp_print_list Symbol.pp)
    o.symbols

let find_section o name =
  List.find_opt (fun (s : Section.t) -> String.equal s.name name) o.sections

let symbols_named o name =
  List.filter (fun (s : Symbol.t) -> String.equal s.name name) o.symbols

let find_symbol o name =
  match symbols_named o name with [] -> None | s :: _ -> Some s

let defined_symbols_in o section =
  o.symbols
  |> List.filter (fun (s : Symbol.t) ->
       match s.def with
       | Some d -> String.equal d.section section
       | None -> false)
  |> List.sort (fun (a : Symbol.t) b ->
       match a.def, b.def with
       | Some da, Some db -> compare da.value db.value
       | _ -> 0)

let bindings o =
  let tbl = Hashtbl.create (List.length o.symbols) in
  List.iter
    (fun (s : Symbol.t) ->
      if Symbol.is_defined s && not (Hashtbl.mem tbl s.name) then
        Hashtbl.add tbl s.name s.binding)
    o.symbols;
  tbl

let text_anchor o (s : Section.t) =
  if s.kind <> Section.Text then None
  else
    List.find_opt
      (fun (sym : Symbol.t) ->
        match sym.def with
        | Some d -> String.equal d.section s.name && d.value = 0
        | None -> false)
      o.symbols

let undefined_symbols o =
  let defined =
    List.filter_map
      (fun (s : Symbol.t) -> if Symbol.is_defined s then Some s.name else None)
      o.symbols
  in
  let referenced =
    List.concat_map
      (fun (s : Section.t) -> List.map (fun (r : Reloc.t) -> r.sym) s.relocs)
      o.sections
  in
  referenced
  |> List.filter (fun n -> not (List.mem n defined))
  |> List.sort_uniq compare

(* --- binary format: SELF1 on {!Codec} --- *)

let magic = "SELF1"

let kind_code = function
  | Section.Text -> 0 | Section.Data -> 1 | Section.Rodata -> 2
  | Section.Bss -> 3 | Section.Note -> 4

let rkind_code = function Reloc.Abs32 -> 0 | Reloc.Pc32 -> 1
let skind_code = function `Func -> 0 | `Object -> 1 | `Notype -> 2

let to_bytes o =
  let open Codec in
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  put_str b o.unit_name;
  put_list
    (fun b (s : Section.t) ->
      put_str b s.name;
      put_u8 b (kind_code s.kind);
      put_u32 b s.size;
      put_u32 b s.align;
      put_u32 b (Bytes.length s.data);
      Buffer.add_bytes b s.data;
      put_list
        (fun b (r : Reloc.t) ->
          put_u32 b r.offset;
          put_u8 b (rkind_code r.kind);
          put_str b r.sym;
          put_i32 b r.addend)
        b s.relocs)
    b o.sections;
  put_list
    (fun b (s : Symbol.t) ->
      put_str b s.name;
      put_u8 b (match s.binding with Symbol.Local -> 0 | Symbol.Global -> 1);
      put_u8 b (skind_code s.kind);
      put_u32 b s.size;
      match s.def with
      | None -> put_u8 b 0
      | Some d ->
        put_u8 b 1;
        put_str b d.section;
        put_u32 b d.value)
    b o.symbols;
  Buffer.to_bytes b

let bad_code r what n = Codec.fail r (Printf.sprintf "bad %s %d" what n)

let read_section r =
  let open Codec in
  let name = get_str r in
  let kind =
    match get_u8 r with
    | 0 -> Section.Text | 1 -> Section.Data | 2 -> Section.Rodata
    | 3 -> Section.Bss | 4 -> Section.Note
    | n -> bad_code r "section kind" n
  in
  let size = get_u32 r in
  let align = get_u32 r in
  let data = Bytes.unsafe_of_string (get_str r) (* a fresh copy *) in
  let relocs =
    get_list
      (fun r ->
        let offset = get_u32 r in
        let kind =
          match get_u8 r with
          | 0 -> Reloc.Abs32 | 1 -> Reloc.Pc32
          | n -> bad_code r "reloc kind" n
        in
        let sym = get_str r in
        let addend = get_i32 r in
        { Reloc.offset; kind; sym; addend })
      r
  in
  { Section.name; kind; data; size; align; relocs }

let read_symbol r =
  let open Codec in
  let name = get_str r in
  let binding =
    match get_u8 r with
    | 0 -> Symbol.Local
    | 1 -> Symbol.Global
    | n -> bad_code r "binding" n
  in
  let kind =
    match get_u8 r with
    | 0 -> `Func | 1 -> `Object | 2 -> `Notype
    | n -> bad_code r "symbol kind" n
  in
  let size = get_u32 r in
  let def =
    match get_u8 r with
    | 0 -> None
    | 1 ->
      let section = get_str r in
      let value = get_u32 r in
      Some { Symbol.section; value }
    | n -> bad_code r "def flag" n
  in
  { Symbol.name; binding; def; size; kind }

(* the decoder only reads the bytes and keeps no reference to them *)
let of_bytes buf =
  Codec.decode ~magic
    (fun r ->
      let unit_name = Codec.get_str r in
      let sections = Codec.get_list read_section r in
      let symbols = Codec.get_list read_symbol r in
      { unit_name; sections; symbols })
    (Bytes.unsafe_to_string buf)
