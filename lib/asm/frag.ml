module Isa = Vmisa.Isa
module Reloc = Objfile.Reloc

(* A fragment is a buffer of fixed bytes, each instruction and data item
   encoded into it once, when it is emitted, plus the variable points
   between them: the places where layout may insert bytes. *)
type point =
  | Jump of Isa.jump_class * string
  | Align of int
  | Label of string

type t = {
  mutable buf : Bytes.t;  (* the fixed bytes are [0, len) *)
  mutable len : int;
  mutable points : point array;  (* [0, npoints) in emission order *)
  mutable at : int array;  (* the buffer position of each point *)
  mutable npoints : int;
  mutable relocs : Reloc.t list;  (* reversed; offsets into [buf] *)
  labels : (string, int) Hashtbl.t;  (* label -> its point *)
}

exception Error of string

let err fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let create () =
  { buf = Bytes.create 256; len = 0; points = [||]; at = [||]; npoints = 0;
    relocs = []; labels = Hashtbl.create 8 }

(* room for [n] more fixed bytes *)
let reserve t n =
  let need = t.len + n in
  if need > Bytes.length t.buf then begin
    let buf = Bytes.create (max need (2 * Bytes.length t.buf)) in
    Bytes.blit t.buf 0 buf 0 t.len;
    t.buf <- buf
  end

let add_point t p =
  let k = t.npoints in
  if k = Array.length t.points then begin
    let cap = max 16 (2 * k) in
    let points = Array.make cap p and at = Array.make cap 0 in
    Array.blit t.points 0 points 0 k;
    Array.blit t.at 0 at 0 k;
    t.points <- points;
    t.at <- at
  end;
  t.points.(k) <- p;
  t.at.(k) <- t.len;
  t.npoints <- k + 1

let insn t i =
  reserve t 6;
  t.len <- t.len + Isa.encode t.buf t.len i

let add_reloc t offset kind sym addend =
  t.relocs <- { Reloc.offset; kind; sym; addend } :: t.relocs

let insn_reloc t i kind sym addend =
  let field =
    match Isa.imm_field i, Isa.pc_rel i with
    | Some (off, _), _ | None, Some (_, _, off, 4) -> off
    | None, Some _ ->
      invalid_arg "Frag.insn_reloc: relocation on short-form jump operand"
    | None, None ->
      invalid_arg "Frag.insn_reloc: instruction has no relocatable field"
  in
  add_reloc t (t.len + field) kind sym addend;
  insn t i

let long_jump_insn cls =
  match cls with
  | Isa.Cjmp -> Isa.Jmp 0l
  | Isa.Cjcc c -> Isa.Jcc (c, 0l)
  | Isa.Ccall -> Isa.Call 0l

let jump_reloc t cls sym = insn_reloc t (long_jump_insn cls) Reloc.Pc32 sym (-4l)

let jump t cls label = add_point t (Jump (cls, label))

let label t name =
  if Hashtbl.mem t.labels name then
    invalid_arg ("Frag.label: duplicate label " ^ name);
  Hashtbl.replace t.labels name t.npoints;
  add_point t (Label name)

let align t n =
  if n land (n - 1) <> 0 || n <= 0 then invalid_arg "Frag.align";
  add_point t (Align n)

let string t s =
  let n = String.length s in
  reserve t n;
  Bytes.blit_string s 0 t.buf t.len n;
  t.len <- t.len + n

(* [b] is copied at once, never kept *)
let bytes t b = string t (Bytes.unsafe_to_string b)

let word t v =
  reserve t 4;
  Bytes.set_int32_le t.buf t.len v;
  t.len <- t.len + 4

let word_reloc t sym addend =
  add_reloc t t.len Reloc.Abs32 sym addend;
  word t 0l

let zeros t n =
  reserve t n;
  Bytes.fill t.buf t.len n '\000';
  t.len <- t.len + n

type image = {
  data : Bytes.t;
  relocs : Objfile.Reloc.t list;
  labels : (string * int) list;
}

let fits_i8 d = d >= -128 && d <= 127

(* Greedy no-op padding using the widest available no-op sequences. *)
let pad_nops buf pos n =
  let rec go pos n =
    if n >= 3 then begin
      ignore (Isa.encode buf pos (Isa.Nop 3) : int);
      go (pos + 3) (n - 3)
    end
    else if n = 2 then ignore (Isa.encode buf pos (Isa.Nop 2) : int)
    else if n = 1 then ignore (Isa.encode buf pos (Isa.Nop 1) : int)
  in
  go pos n

let assemble t ~text =
  let n = t.npoints in
  let points = t.points and at = t.at in
  (* each jump's target label, as a point index, resolved once *)
  let target = Array.make n 0 in
  for k = 0 to n - 1 do
    match points.(k) with
    | Jump (_, name) -> (
      match Hashtbl.find_opt t.labels name with
      | Some j -> target.(k) <- j
      | None -> err "undefined jump target %s" name)
    | Align _ | Label _ -> ()
  done;
  (* short.(k) is the relaxation state of jump point k; off.(k) and
     size.(k) are point k's offset and size in the image *)
  let short = Array.make n false in
  let off = Array.make n 0 in
  let size = Array.make n 0 in
  (* lay out the points; returns the bytes they add *)
  let layout () =
    let added = ref 0 in
    for k = 0 to n - 1 do
      let o = at.(k) + !added in
      off.(k) <- o;
      let sz =
        match points.(k) with
        | Jump (Isa.Ccall, _) -> 5
        | Jump _ -> if short.(k) then 2 else 5
        | Label _ -> 0
        | Align a -> (a - (o mod a)) mod a
      in
      size.(k) <- sz;
      added := !added + sz
    done;
    !added
  in
  let short_disp k = off.(target.(k)) - (off.(k) + 2) in
  (* Relaxation: start long, shrink every jump that fits against the
     pass's layout, repeat to a fixpoint. *)
  let added = ref (layout ()) in
  let changed = ref true in
  let iters = ref 0 in
  while !changed && !iters < 100 do
    changed := false;
    incr iters;
    for k = 0 to n - 1 do
      match points.(k) with
      | Jump ((Isa.Cjmp | Isa.Cjcc _), _)
        when (not short.(k)) && fits_i8 (short_disp k) ->
        short.(k) <- true;
        changed := true
      | Jump _ | Align _ | Label _ -> ()
    done;
    if !changed then added := layout ()
  done;
  (* Verify short choices against the final layout; re-expand if an
     alignment interaction invalidated one (then re-verify). *)
  let verify () =
    let ok = ref true in
    for k = 0 to n - 1 do
      if short.(k) && not (fits_i8 (short_disp k)) then begin
        short.(k) <- false;
        ok := false
      end
    done;
    !ok
  in
  while not (verify ()) do
    added := layout ()
  done;
  (* Blit the fixed chunks between points, encoding each point after the
     chunk before it. *)
  let data = Bytes.create (t.len + !added) in
  let from = ref 0 in
  for k = 0 to n - 1 do
    let a = at.(k) and o = off.(k) in
    Bytes.blit t.buf !from data (!from + o - a) (a - !from);
    from := a;
    match points.(k) with
    | Jump (cls, _) ->
      let dest = off.(target.(k)) in
      let insn =
        if short.(k) then
          let disp = dest - (o + 2) in
          match cls with
          | Isa.Cjmp -> Isa.Jmp_s disp
          | Isa.Cjcc c -> Isa.Jcc_s (c, disp)
          | Isa.Ccall -> assert false
        else
          let disp = Int32.of_int (dest - (o + 5)) in
          match cls with
          | Isa.Cjmp -> Isa.Jmp disp
          | Isa.Cjcc c -> Isa.Jcc (c, disp)
          | Isa.Ccall -> Isa.Call disp
      in
      ignore (Isa.encode data o insn : int)
    | Align _ ->
      if text then pad_nops data o size.(k) else Bytes.fill data o size.(k) '\000'
    | Label _ -> ()
  done;
  Bytes.blit t.buf !from data (!from + !added) (t.len - !from);
  (* a fixed byte moves by the sizes of the points at or before it; the
     relocations are listed last first, so [k] walks the points down *)
  let k = ref n in
  let relocs =
    List.rev_map
      (fun (r : Reloc.t) ->
        while !k > 0 && at.(!k - 1) > r.offset do
          decr k
        done;
        if !k = 0 then r
        else
          let j = !k - 1 in
          { r with offset = r.offset + off.(j) + size.(j) - at.(j) })
      t.relocs
  in
  let labels = ref [] in
  for k = n - 1 downto 0 do
    match points.(k) with
    | Label name -> labels := (name, off.(k)) :: !labels
    | Jump _ | Align _ -> ()
  done;
  { data; relocs; labels = !labels }

let extents labels ~upto =
  let rec go = function
    | [] -> []
    | [ (l, off) ] -> [ (l, off, upto - off) ]
    | (l, off) :: ((_, next) :: _ as rest) -> (l, off, next - off) :: go rest
  in
  go labels
