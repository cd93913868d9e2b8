(* Pre-post differencing (§3), kpatch-grade: create-diff-object's four
   passes, transposed to the SELF object format, correlate symbols
   across the pre/post builds, detect genuinely changed functions
   per-symbol with benign rebuild noise canonicalised away, close the
   dependency set of what must ship, and classify data changes
   per-symbol. *)

module Reloc = Objfile.Reloc
module Symbol = Objfile.Symbol
module Section = Objfile.Section

type reason =
  | Changed
  | New
  | Closure_of of string
  | Data_referent of string

let reason_to_string = function
  | Changed -> "changed"
  | New -> "new"
  | Closure_of s -> "closure-of " ^ s
  | Data_referent s -> "data-referent " ^ s

type unit_diff = {
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

(* MiniC compiler temporaries: [.Lstr<n>] read-only string slices whose
   numbering follows interning order, so an unrelated edit earlier in the
   unit renumbers every later literal — the analogue of kpatch's
   line-number and local-symbol-suffix noise. *)
let is_temp name = String.length name >= 2 && name.[0] = '.' && name.[1] = 'L'

let strip_prefix p s =
  let lp = String.length p in
  if String.length s > lp && String.sub s 0 lp = p then
    Some (String.sub s lp (String.length s - lp))
  else None

let fname_of_section (s : Section.t) =
  if s.kind = Section.Text then strip_prefix ".text." s.name else None

let dataname_of_section (s : Section.t) =
  match s.kind with
  | Section.Data -> strip_prefix ".data." s.name
  | Section.Bss -> strip_prefix ".bss." s.name
  | _ -> None

(* --- symbol slices ---

   The unit of comparison is a defined symbol's byte range within its
   section: the whole section for per-function and per-datum sections,
   a [value, value+size) window for string slices packed into the shared
   [.rodata.str]. *)

type slice = {
  sl_sym : Symbol.t;
  sl_section : Section.t;
  sl_off : int;
  sl_size : int;
}

let slice_of (o : Objfile.t) (sym : Symbol.t) =
  match sym.def with
  | None -> None
  | Some def -> (
    match Objfile.find_section o def.section with
    | None -> None
    | Some sec ->
      let size = if sym.size > 0 then sym.size else sec.size - def.value in
      Some { sl_sym = sym; sl_section = sec; sl_off = def.value;
             sl_size = size })

let slice_bytes sl =
  if sl.sl_section.kind = Section.Bss then Bytes.empty
  else Bytes.sub sl.sl_section.data sl.sl_off sl.sl_size

(* relocations inside the slice, rebased to slice-relative offsets *)
let slice_relocs sl =
  List.filter_map
    (fun (r : Reloc.t) ->
      if r.offset >= sl.sl_off && r.offset < sl.sl_off + sl.sl_size then
        Some { r with offset = r.offset - sl.sl_off }
      else None)
    sl.sl_section.relocs

let data_slices (o : Objfile.t) =
  List.filter_map
    (fun (sym : Symbol.t) ->
      match sym.def with
      | Some def when sym.kind <> `Func -> (
        match Objfile.find_section o def.section with
        | Some sec
          when sec.kind = Section.Data || sec.kind = Section.Bss
               || sec.kind = Section.Rodata ->
          slice_of o sym
        | _ -> None)
      | _ -> None)
    o.symbols

(* --- pass 1: symbol correlation ---

   Stable names correlate by name. Temp-named read-only slices correlate
   by content — interning dedups strings per unit, so content is a key —
   which yields the post→pre rename map that cancels renumbering noise. *)

type correlation = {
  (* post temp name -> pre temp name, identity pairs included; a post
     temp absent from this table has no pre counterpart (new or changed
     content) *)
  temp_map : (string, string) Hashtbl.t;
}

let correlate ~(pre : Objfile.t) ~(post : Objfile.t) =
  let content_key sl = Bytes.to_string (slice_bytes sl) in
  let pre_by_content = Hashtbl.create 16 in
  List.iter
    (fun sl ->
      if is_temp sl.sl_sym.name && sl.sl_section.kind = Section.Rodata then
        let k = content_key sl in
        if not (Hashtbl.mem pre_by_content k) then
          Hashtbl.add pre_by_content k sl.sl_sym.name)
    (data_slices pre);
  let temp_map = Hashtbl.create 16 in
  List.iter
    (fun sl ->
      if is_temp sl.sl_sym.name && sl.sl_section.kind = Section.Rodata then
        match Hashtbl.find_opt pre_by_content (content_key sl) with
        | Some pre_name -> Hashtbl.replace temp_map sl.sl_sym.name pre_name
        | None -> ())
    (data_slices post);
  { temp_map }

(* the reportable (non-identity) renames *)
let renames_of corr =
  Hashtbl.fold
    (fun post_name pre_name acc ->
      if String.equal post_name pre_name then acc
      else (post_name, pre_name) :: acc)
    corr.temp_map []
  |> List.sort compare

(* --- pass 2: per-function code comparison ---

   {!Runpre.walk} against the post section: alignment no-ops skipped on
   each side independently, jump displacements equal when their targets
   correspond through the boundary map, and relocation holes equal when
   the relocations agree modulo the rename map. What survives all of
   that is a genuine code change. *)

type verdict =
  | Same
  | Code_changed
  | Refs_changed_data of string list
      (* instruction stream unchanged, but some relocations moved to
         read-only data with no pre counterpart (post symbol names) *)

let code_verdict ~(corr : correlation) ~(pre : Section.t) ~(post : Section.t)
    =
  let data_refs = ref [] in
  let note_ref s =
    if not (List.mem s !data_refs) then data_refs := s :: !data_refs
  in
  (* do the holes denote the same value once the running kernel resolves
     them?  Equal stable names: yes.  Correlated temps: yes iff they map
     to the same pre slice.  A temp hole moving to uncorrelated content
     is the data-referent case — the code is unchanged but it now reads
     different read-only data. *)
  let same_hole (rp : Reloc.t) (rq : Reloc.t) =
    rp.kind = rq.kind
    && Int32.equal rp.addend rq.addend
    &&
    if is_temp rp.sym && is_temp rq.sym then (
      match Hashtbl.find_opt corr.temp_map rq.sym with
      | Some pre_name when String.equal pre_name rp.sym -> true
      | Some _ | None ->
        note_ref rq.sym;
        true)
    else String.equal rp.sym rq.sym
  in
  match
    Runpre.walk ~tolerance:Runpre.full_tolerance pre
      (Runpre.Post { section = post; same_hole })
  with
  | Ok () ->
    if !data_refs = [] then Same else Refs_changed_data (List.rev !data_refs)
  | Error _ -> Code_changed

(* --- pass 4 helper: per-datum comparison, modulo the rename map --- *)

let datum_equal ~corr pre_sl post_sl =
  let rename name =
    match Hashtbl.find_opt corr.temp_map name with
    | Some pre_name -> pre_name
    | None -> name
  in
  pre_sl.sl_section.kind = post_sl.sl_section.kind
  && pre_sl.sl_size = post_sl.sl_size
  && Bytes.equal (slice_bytes pre_sl) (slice_bytes post_sl)
  && List.length (slice_relocs pre_sl) = List.length (slice_relocs post_sl)
  && List.for_all2
       (fun (rp : Reloc.t) (rq : Reloc.t) ->
         rp.offset = rq.offset && rp.kind = rq.kind
         && Int32.equal rp.addend rq.addend
         && String.equal rp.sym (rename rq.sym))
       (slice_relocs pre_sl) (slice_relocs post_sl)

(* --- the four passes over one unit --- *)

let diff_unit ~(pre : Objfile.t) ~(post : Objfile.t) =
  let corr = correlate ~pre ~post in
  (* pass 2: function-granular change detection *)
  let index select o =
    List.filter_map
      (fun (s : Section.t) -> Option.map (fun n -> (n, s)) (select s))
      o.Objfile.sections
  in
  let pre_funcs = index fname_of_section pre in
  let post_funcs = index fname_of_section post in
  let verdicts =
    List.filter_map
      (fun (n, (s_post : Section.t)) ->
        match List.assoc_opt n pre_funcs with
        | Some s_pre -> (
          match code_verdict ~corr ~pre:s_pre ~post:s_post with
          | Same -> None
          | v -> Some (n, v))
        | None -> None)
      post_funcs
  in
  let changed_functions = List.map fst verdicts in
  let new_functions =
    List.filter_map
      (fun (n, _) -> if List.mem_assoc n pre_funcs then None else Some n)
      post_funcs
  in
  let removed_functions =
    List.filter_map
      (fun (n, _) -> if List.mem_assoc n post_funcs then None else Some n)
      pre_funcs
  in
  (* pass 4: per-symbol data comparison *)
  let pre_data = data_slices pre in
  let post_data = data_slices post in
  let find_pre name =
    List.find_opt (fun sl -> String.equal sl.sl_sym.name name) pre_data
  in
  let changed_data = ref [] and changed_rodata = ref [] and new_data = ref [] in
  List.iter
    (fun post_sl ->
      let name = post_sl.sl_sym.name in
      if post_sl.sl_section.kind = Section.Rodata then begin
        (* read-only slices are shippable; a temp with no pre counterpart
           by content is changed (or new) rodata, a stable rodata name
           compares by content *)
        if is_temp name then begin
          if not (Hashtbl.mem corr.temp_map name) then
            changed_rodata := name :: !changed_rodata
        end
        else
          match find_pre name with
          | Some pre_sl when datum_equal ~corr pre_sl post_sl -> ()
          | Some _ | None -> changed_rodata := name :: !changed_rodata
      end
      else
        (* data/bss hold the running kernel's persistent state: an init
           image change is the §2 semantic signal, a new datum ships *)
        match find_pre name with
        | Some pre_sl ->
          if not (datum_equal ~corr pre_sl post_sl) then
            changed_data := name :: !changed_data
        | None -> new_data := name :: !new_data)
    post_data;
  let changed_data = List.rev !changed_data in
  let changed_rodata = List.rev !changed_rodata in
  let new_data = List.rev !new_data in
  (* pass 3: dependency closure — what ships, and why. Replaced and new
     code seeds the set; relocations from anything included pull in the
     read-only slices (and any new data) the running kernel cannot
     resolve, transitively. Persistent changed data never ships: it is
     either gated or handled by custom update code. *)
  let inclusion : (string, reason) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  let include_sym name reason =
    if not (Hashtbl.mem inclusion name) then begin
      Hashtbl.add inclusion name reason;
      order := name :: !order;
      true
    end
    else false
  in
  List.iter
    (fun (n, v) ->
      match v with
      | Code_changed -> ignore (include_sym n Changed)
      | Refs_changed_data (d :: _) -> ignore (include_sym n (Data_referent d))
      | Refs_changed_data [] | Same -> ())
    verdicts;
  List.iter (fun n -> ignore (include_sym n New)) new_functions;
  List.iter (fun n -> ignore (include_sym n New)) new_data;
  (* worklist closure over relocations of included definitions *)
  let shippable name =
    List.mem name changed_rodata
    || List.mem name new_data
    || List.mem name new_functions
  in
  let relocs_of name =
    match List.assoc_opt name post_funcs with
    | Some (s : Section.t) -> s.relocs
    | None -> (
      match Objfile.find_symbol post name with
      | Some sym -> (
        match slice_of post sym with
        | Some sl -> slice_relocs sl
        | None -> [])
      | None -> [])
  in
  let queue = Queue.create () in
  List.iter (fun n -> Queue.add n queue) (List.rev !order);
  while not (Queue.is_empty queue) do
    let n = Queue.take queue in
    List.iter
      (fun (r : Reloc.t) ->
        if shippable r.sym && include_sym r.sym (Closure_of n) then
          Queue.add r.sym queue)
      (relocs_of n)
  done;
  let inclusion =
    List.rev_map (fun n -> (n, Hashtbl.find inclusion n)) !order
  in
  { unit_name = post.unit_name; changed_functions; new_functions;
    removed_functions; changed_data; changed_rodata; new_data;
    renames = renames_of corr; inclusion }

let is_empty d =
  d.changed_functions = [] && d.new_functions = [] && d.removed_functions = []
  && d.changed_data = [] && d.changed_rodata = [] && d.new_data = []

let pp_unit_diff ppf d =
  let pl =
    Format.pp_print_list ~pp_sep:Format.pp_print_space Format.pp_print_string
  in
  let pr ppf (s, r) = Format.fprintf ppf "%s (%s)" s (reason_to_string r) in
  Format.fprintf ppf
    "@[<v2>%s:@,changed: @[%a@]@,new: @[%a@]@,removed: @[%a@]@,\
     data changed: @[%a@]@,rodata changed: @[%a@]@,data new: @[%a@]@,\
     ships: @[%a@]@]"
    d.unit_name pl d.changed_functions pl d.new_functions pl
    d.removed_functions pl d.changed_data pl d.changed_rodata pl d.new_data
    (Format.pp_print_list ~pp_sep:Format.pp_print_space pr)
    d.inclusion
