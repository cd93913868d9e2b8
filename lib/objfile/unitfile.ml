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

(* --- binary format --- *)

let magic = "SELF1"

let put_u8 b v = Buffer.add_uint8 b (v land 0xff)
let put_i32 b v = Buffer.add_int32_le b v
let put_int b v = Buffer.add_int32_le b (Int32.of_int v)

let put_str b s =
  put_int b (String.length s);
  Buffer.add_string b s

let put_bytes b s =
  put_int b (Bytes.length s);
  Buffer.add_bytes b s

let kind_code = function
  | Section.Text -> 0 | Section.Data -> 1 | Section.Rodata -> 2
  | Section.Bss -> 3 | Section.Note -> 4

(* Decode failures are data, not exceptions: a corrupt blob out of a
   store or off the wire must surface as a typed [Error], never escape a
   caller as [Failure]. The reader raises the private [Decode] exception
   internally; [of_bytes] is the only boundary that catches it. *)
type decode_error = { de_off : int; de_reason : string }

exception Decode of decode_error

let pp_decode_error ppf e =
  Format.fprintf ppf "%s at byte %d" e.de_reason e.de_off

let rkind_code = function Reloc.Abs32 -> 0 | Reloc.Pc32 -> 1
let skind_code = function `Func -> 0 | `Object -> 1 | `Notype -> 2

let to_bytes o =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  put_str b o.unit_name;
  put_int b (List.length o.sections);
  List.iter
    (fun (s : Section.t) ->
      put_str b s.name;
      put_u8 b (kind_code s.kind);
      put_int b s.size;
      put_int b s.align;
      put_bytes b s.data;
      put_int b (List.length s.relocs);
      List.iter
        (fun (r : Reloc.t) ->
          put_int b r.offset;
          put_u8 b (rkind_code r.kind);
          put_str b r.sym;
          put_i32 b r.addend)
        s.relocs)
    o.sections;
  put_int b (List.length o.symbols);
  List.iter
    (fun (s : Symbol.t) ->
      put_str b s.name;
      put_u8 b (match s.binding with Symbol.Local -> 0 | Symbol.Global -> 1);
      put_u8 b (skind_code s.kind);
      put_int b s.size;
      match s.def with
      | None -> put_u8 b 0
      | Some d ->
        put_u8 b 1;
        put_str b d.section;
        put_int b d.value)
    o.symbols;
  Buffer.to_bytes b

type reader = { buf : Bytes.t; mutable pos : int }

let bad r reason = raise (Decode { de_off = r.pos; de_reason = reason })

let need r n =
  if n < 0 || r.pos + n > Bytes.length r.buf then bad r "truncated input"

let get_u8 r =
  need r 1;
  let v = Bytes.get_uint8 r.buf r.pos in
  r.pos <- r.pos + 1;
  v

let get_i32 r =
  need r 4;
  let v = Bytes.get_int32_le r.buf r.pos in
  r.pos <- r.pos + 4;
  v

let get_int r =
  let v = Int32.to_int (get_i32 r) in
  if v < 0 then bad r "negative length";
  v

let kind_of_code r = function
  | 0 -> Section.Text | 1 -> Section.Data | 2 -> Section.Rodata
  | 3 -> Section.Bss | 4 -> Section.Note
  | n -> bad r (Printf.sprintf "bad section kind %d" n)

let rkind_of_code r = function
  | 0 -> Reloc.Abs32 | 1 -> Reloc.Pc32
  | n -> bad r (Printf.sprintf "bad reloc kind %d" n)

let skind_of_code r = function
  | 0 -> `Func | 1 -> `Object | 2 -> `Notype
  | n -> bad r (Printf.sprintf "bad symbol kind %d" n)

let get_str r =
  let n = get_int r in
  need r n;
  let s = Bytes.sub_string r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let get_bytes r =
  let n = get_int r in
  need r n;
  let s = Bytes.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let decode r =
  need r (String.length magic);
  if Bytes.sub_string r.buf 0 (String.length magic) <> magic then
    bad r "bad magic";
  r.pos <- String.length magic;
  let unit_name = get_str r in
  let n_sections = get_int r in
  let sections =
    List.init n_sections (fun _ ->
        let name = get_str r in
        let kind = kind_of_code r (get_u8 r) in
        let size = get_int r in
        let align = get_int r in
        let data = get_bytes r in
        let n_relocs = get_int r in
        let relocs =
          List.init n_relocs (fun _ ->
              let offset = get_int r in
              let kind = rkind_of_code r (get_u8 r) in
              let sym = get_str r in
              let addend = get_i32 r in
              { Reloc.offset; kind; sym; addend })
        in
        { Section.name; kind; data; size; align; relocs })
  in
  let n_symbols = get_int r in
  let symbols =
    List.init n_symbols (fun _ ->
        let name = get_str r in
        let binding =
          match get_u8 r with
          | 0 -> Symbol.Local
          | 1 -> Symbol.Global
          | n -> bad r (Printf.sprintf "bad binding %d" n)
        in
        let kind = skind_of_code r (get_u8 r) in
        let size = get_int r in
        let def =
          match get_u8 r with
          | 0 -> None
          | 1 ->
            let section = get_str r in
            let value = get_int r in
            Some { Symbol.section; value }
          | n -> bad r (Printf.sprintf "bad def flag %d" n)
        in
        { Symbol.name; binding; def; size; kind })
  in
  if r.pos <> Bytes.length r.buf then bad r "trailing bytes";
  { unit_name; sections; symbols }

let of_bytes buf =
  match decode { buf; pos = 0 } with
  | o -> Ok o
  | exception Decode e -> Error e
