module Section = Objfile.Section

type reason = Diffobj.reason =
  | Changed
  | New
  | Closure_of of string
  | Data_referent of string

type unit_diff = Diffobj.unit_diff = {
  unit_name : string;
  changed_functions : string list;
  new_functions : string list;
  removed_functions : string list;
  changed_data : string list;
  changed_rodata : string list;
  new_data : string list;
  renames : (string * string) list;
  inclusion : (string * reason) list;
}

let reason_to_string = Diffobj.reason_to_string
let pp_reason = Diffobj.pp_reason
let pp_unit_diff = Diffobj.pp_unit_diff
let fname_of_section = Diffobj.fname_of_section
let dataname_of_section = Diffobj.dataname_of_section
let diff_unit = Diffobj.diff_unit
let is_empty = Diffobj.is_empty

let empty unit_name =
  { unit_name; changed_functions = []; new_functions = [];
    removed_functions = []; changed_data = []; changed_rodata = [];
    new_data = []; renames = []; inclusion = [] }

(* --- the unit-diff/2 wire codec ---

   Netstrings behind a magic: length-prefixed strings, counted lists,
   reasons as one tag byte plus an argument. *)

let magic = "UDF2"

let put_str b s =
  Buffer.add_string b (string_of_int (String.length s));
  Buffer.add_char b ':';
  Buffer.add_string b s

let put_list put b l =
  put_str b (string_of_int (List.length l));
  List.iter (put b) l

let put_reason b = function
  | Changed -> put_str b "c"
  | New -> put_str b "n"
  | Closure_of s -> put_str b ("o" ^ s)
  | Data_referent s -> put_str b ("d" ^ s)

let encode (d : unit_diff) =
  let b = Buffer.create 256 in
  Buffer.add_string b magic;
  put_str b d.unit_name;
  put_list put_str b d.changed_functions;
  put_list put_str b d.new_functions;
  put_list put_str b d.removed_functions;
  put_list put_str b d.changed_data;
  put_list put_str b d.changed_rodata;
  put_list put_str b d.new_data;
  put_list
    (fun b (post, pre) ->
      put_str b post;
      put_str b pre)
    b d.renames;
  put_list
    (fun b (sym, r) ->
      put_str b sym;
      put_reason b r)
    b d.inclusion;
  Buffer.contents b

type decode_error = {
  de_off : int;
  de_reason : string;
}

let pp_decode_error ppf e =
  Format.fprintf ppf "unit-diff decode failed at byte %d: %s" e.de_off
    e.de_reason

(* private to [decode]: every malformed input becomes a [decode_error]
   result, never an escaping exception *)
exception Decode of decode_error

type reader = {
  buf : string;
  mutable pos : int;
}

let bad r reason = raise (Decode { de_off = r.pos; de_reason = reason })

let get_str r =
  match String.index_from_opt r.buf r.pos ':' with
  | None -> bad r "missing length prefix"
  | Some colon ->
    let len =
      match int_of_string_opt (String.sub r.buf r.pos (colon - r.pos)) with
      | Some n when n >= 0 -> n
      | _ -> bad r "bad length prefix"
    in
    if colon + 1 + len > String.length r.buf then bad r "truncated field";
    r.pos <- colon + 1 + len;
    String.sub r.buf (colon + 1) len

let get_list get r =
  match int_of_string_opt (get_str r) with
  | Some n when n >= 0 && n <= String.length r.buf ->
    List.init n (fun _ -> get r)
  | _ -> bad r "bad list length"

let get_reason r =
  let s = get_str r in
  if String.equal s "c" then Changed
  else if String.equal s "n" then New
  else if String.length s >= 1 && s.[0] = 'o' then
    Closure_of (String.sub s 1 (String.length s - 1))
  else if String.length s >= 1 && s.[0] = 'd' then
    Data_referent (String.sub s 1 (String.length s - 1))
  else bad r "unknown inclusion reason"

let decode s =
  let r = { buf = s; pos = 0 } in
  match
    if
      String.length s < String.length magic
      || not (String.equal (String.sub s 0 (String.length magic)) magic)
    then bad r "bad magic";
    r.pos <- String.length magic;
    let unit_name = get_str r in
    let changed_functions = get_list get_str r in
    let new_functions = get_list get_str r in
    let removed_functions = get_list get_str r in
    let changed_data = get_list get_str r in
    let changed_rodata = get_list get_str r in
    let new_data = get_list get_str r in
    let renames =
      get_list
        (fun r ->
          let post = get_str r in
          let pre = get_str r in
          (post, pre))
        r
    in
    let inclusion =
      get_list
        (fun r ->
          let sym = get_str r in
          let reason = get_reason r in
          (sym, reason))
        r
    in
    if r.pos <> String.length s then bad r "trailing bytes";
    { unit_name; changed_functions; new_functions; removed_functions;
      changed_data; changed_rodata; new_data; renames; inclusion }
  with
  | d -> Ok d
  | exception Decode e -> Error e
