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
let pp_unit_diff = Diffobj.pp_unit_diff
let fname_of_section = Diffobj.fname_of_section
let dataname_of_section = Diffobj.dataname_of_section
let diff_unit = Diffobj.diff_unit
let is_empty = Diffobj.is_empty

let empty unit_name =
  { unit_name; changed_functions = []; new_functions = [];
    removed_functions = []; changed_data = []; changed_rodata = [];
    new_data = []; renames = []; inclusion = [] }

(* --- the unit-diff codec: magic UDF3 on {!Codec}; reasons are one tag
   byte plus, for the two that name a symbol, its name --- *)

let magic = "UDF3"

let put_reason b = function
  | Changed -> Codec.put_u8 b 0
  | New -> Codec.put_u8 b 1
  | Closure_of s ->
    Codec.put_u8 b 2;
    Codec.put_str b s
  | Data_referent s ->
    Codec.put_u8 b 3;
    Codec.put_str b s

let encode (d : unit_diff) =
  let open Codec in
  let strs = put_list put_str in
  let b = Buffer.create 256 in
  Buffer.add_string b magic;
  put_str b d.unit_name;
  strs b d.changed_functions;
  strs b d.new_functions;
  strs b d.removed_functions;
  strs b d.changed_data;
  strs b d.changed_rodata;
  strs b d.new_data;
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

let get_reason r =
  match Codec.get_u8 r with
  | 0 -> Changed
  | 1 -> New
  | 2 -> Closure_of (Codec.get_str r)
  | 3 -> Data_referent (Codec.get_str r)
  | _ -> Codec.fail r "unknown inclusion reason"

let decode =
  Codec.decode ~magic (fun r ->
      let open Codec in
      let strs = get_list get_str in
      let unit_name = get_str r in
      let changed_functions = strs r in
      let new_functions = strs r in
      let removed_functions = strs r in
      let changed_data = strs r in
      let changed_rodata = strs r in
      let new_data = strs r in
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
      { unit_name; changed_functions; new_functions; removed_functions;
        changed_data; changed_rodata; new_data; renames; inclusion })
