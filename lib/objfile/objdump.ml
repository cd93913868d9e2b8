module Isa = Vmisa.Isa

type line = {
  offset : int;
  bytes : string;
  text : string;
  reloc : Reloc.t option;
  target : int option;
}

let hex_of_bytes b pos len =
  String.concat " "
    (List.init len (fun i ->
         Printf.sprintf "%02x" (Bytes.get_uint8 b (pos + i))))

let disassemble (s : Section.t) =
  let reloc_in lo hi =
    List.find_opt (fun (r : Reloc.t) -> r.offset >= lo && r.offset < hi)
      s.relocs
  in
  let rec go pos acc =
    if pos >= s.size then List.rev acc
    else
      match Isa.decode_bytes s.data pos with
      | insn, len ->
        let target =
          match Isa.pc_rel insn with
          | Some (_, disp, _, _) when reloc_in pos (pos + len) = None ->
            Some (pos + len + disp)
          | _ -> None
        in
        go (pos + len)
          ({ offset = pos; bytes = hex_of_bytes s.data pos len;
             text = Isa.insn_to_string insn;
             reloc = reloc_in pos (pos + len); target }
           :: acc)
      | exception Isa.Decode_error _ ->
        go (pos + 1)
          ({ offset = pos; bytes = hex_of_bytes s.data pos 1;
             text =
               Printf.sprintf ".byte 0x%02x" (Bytes.get_uint8 s.data pos);
             reloc = reloc_in pos (pos + 1); target = None }
           :: acc)
  in
  go 0 []

let pp_line ppf l =
  Format.fprintf ppf "%6x:  %-18s %-28s" l.offset l.bytes l.text;
  (match l.target with
   | Some t -> Format.fprintf ppf " -> %#x" t
   | None -> ());
  match l.reloc with
  | Some r ->
    Format.fprintf ppf "  [%s %s%+ld]"
      (match r.kind with Reloc.Abs32 -> "ABS32" | Reloc.Pc32 -> "PC32")
      r.sym r.addend
  | None -> ()

let pp_hexdump ppf (s : Section.t) =
  let n = Bytes.length s.data in
  let rec go pos =
    if pos < n then begin
      let len = min 16 (n - pos) in
      Format.fprintf ppf "%6x:  %s@," pos (hex_of_bytes s.data pos len);
      go (pos + 16)
    end
  in
  go 0;
  List.iter (fun (r : Reloc.t) -> Format.fprintf ppf "    %a@," Reloc.pp r)
    s.relocs

(* one section: header, then either disassembly (text) or a hex dump
   (data/rodata) or a size line (bss), with relocations *)
let pp_section ppf (s : Section.t) =
  Format.fprintf ppf "@[<v>section %s (%s, %d bytes, align %d):@," s.name
    (match s.kind with
     | Section.Text -> "text"
     | Section.Data -> "data"
     | Section.Rodata -> "rodata"
     | Section.Bss -> "bss"
     | Section.Note -> "note")
    s.size s.align;
  (match s.kind with
   | Section.Text ->
     List.iter (fun l -> Format.fprintf ppf "%a@," pp_line l) (disassemble s)
   | Section.Bss -> Format.fprintf ppf "  (zero-initialised)@,"
   | Section.Data | Section.Rodata | Section.Note -> pp_hexdump ppf s);
  Format.fprintf ppf "@]"

let pp ppf (o : Unitfile.t) =
  Format.fprintf ppf "@[<v>object file: %s@,@," o.unit_name;
  List.iter (fun s -> Format.fprintf ppf "%a@," pp_section s) o.sections;
  Format.fprintf ppf "symbols:@,";
  List.iter (fun s -> Format.fprintf ppf "  %a@," Symbol.pp s) o.symbols;
  Format.fprintf ppf "@]"
