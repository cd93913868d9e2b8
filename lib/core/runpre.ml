module Isa = Vmisa.Isa
module Reloc = Objfile.Reloc
module Symbol = Objfile.Symbol
module Section = Objfile.Section

type mismatch = {
  unit_name : string;
  section : string;
  pre_off : int;
  run_addr : int;
  reason : string;
}

type failure =
  | Mismatch of mismatch
  | Ambiguous of { unit_name : string; symbol : string; matches : int }

let pp_failure ppf = function
  | Mismatch m ->
    Format.fprintf ppf "%s %s: pre+%#x / run %#x: %s" m.unit_name m.section
      m.pre_off m.run_addr m.reason
  | Ambiguous { unit_name; symbol; matches } ->
    Format.fprintf ppf "%s: %s matched %d candidates" unit_name symbol matches

(* the per-candidate backtracking signal; [match_helper] turns the one
   that decides the verdict into a [failure] *)
exception Mismatched of mismatch

type inference = (string, int) Hashtbl.t

let create_inference () : inference = Hashtbl.create 64

(* candidate trials since the last reset, kept as a plain atomic (the
   [runpre.match_attempts] trace counter only records under an enabled
   trace): the differencing bench and minimality sweep read this to show
   how much run-pre work a minimal update saves *)
let attempts = Atomic.make 0
let match_attempts () = Atomic.get attempts
let reset_match_attempts () = Atomic.set attempts 0

type tolerance = {
  skip_nops : bool;
  jump_equivalence : bool;
}

let full_tolerance = { skip_nops = true; jump_equivalence = true }

(* --- instruction helpers --- *)

let imm_value = function
  | Isa.Mov_ri (_, v) | Isa.Addi (_, v) | Isa.Cmpi (_, v)
  | Isa.Load_abs (_, _, v) | Isa.Store_abs (_, v, _) ->
    v
  | _ -> invalid_arg "imm_value"

let with_imm i v =
  match i with
  | Isa.Mov_ri (r, _) -> Isa.Mov_ri (r, v)
  | Isa.Addi (r, _) -> Isa.Addi (r, v)
  | Isa.Cmpi (r, _) -> Isa.Cmpi (r, v)
  | Isa.Load_abs (w, r, _) -> Isa.Load_abs (w, r, v)
  | Isa.Store_abs (w, _, r) -> Isa.Store_abs (w, v, r)
  | _ -> invalid_arg "with_imm"

(* --- matching one text section --- *)

(* The per-trial view of the inference table: reads fall through to the
   committed table; writes stay in the overlay until the trial commits. *)
type trial = {
  committed : inference;
  overlay : (string, int) Hashtbl.t;
}

let trial_find t name =
  match Hashtbl.find_opt t.overlay name with
  | Some v -> Some v
  | None -> Hashtbl.find_opt t.committed name

let trial_set t name v = Hashtbl.replace t.overlay name v

let commit t =
  Hashtbl.iter (fun k v -> Hashtbl.replace t.committed k v) t.overlay

(* name -> binding of the first defined symbol bearing it, precomputed
   once per helper so canonicalising a referenced symbol is O(1) per
   relocation instead of a scan of every helper symbol *)
let binding_index (o : Objfile.t) =
  let tbl = Hashtbl.create (List.length o.symbols) in
  List.iter
    (fun (s : Symbol.t) ->
      if Symbol.is_defined s && not (Hashtbl.mem tbl s.name) then
        Hashtbl.add tbl s.name s.binding)
    o.symbols;
  tbl

(* canonical name of a symbol referenced from [helper] *)
let canonical_ref ~bindings (helper : Objfile.t) name =
  let binding =
    match Hashtbl.find_opt bindings name with
    | Some b -> b
    | None -> Symbol.Global (* undefined references are global *)
  in
  Update.canonical ~binding ~unit_name:helper.unit_name name

let match_text ~tolerance ~read_run ~(helper : Objfile.t) ~bindings
    ~(section : Section.t) ~run_base ~(trial : trial) =
  let fail pre_off run_addr reason =
    raise
      (Mismatched
         { unit_name = helper.unit_name; section = section.name; pre_off;
           run_addr; reason })
  in
  let reloc_at =
    let tbl = Hashtbl.create 8 in
    List.iter (fun (r : Reloc.t) -> Hashtbl.replace tbl r.offset r)
      section.relocs;
    Hashtbl.find_opt tbl
  in
  let infer name value pre_off run_addr =
    let cname = canonical_ref ~bindings helper name in
    match trial_find trial cname with
    | Some v when v <> value ->
      fail pre_off run_addr
        (Printf.sprintf "symbol %s inferred as %#x but previously %#x" cname
           value v)
    | Some _ -> ()
    | None -> trial_set trial cname value
  in
  let size = section.size in
  let boundary = Hashtbl.create 64 in
  let deferred = ref [] in
  let decode_pre pos =
    try Isa.decode_bytes section.data pos
    with Isa.Decode_error _ -> fail pos 0 "undecodable pre instruction"
  in
  let decode_run addr =
    match Isa.decode read_run addr with
    | v -> v
    | exception Isa.Decode_error _ ->
      fail 0 addr "undecodable run instruction"
    | exception _ ->
      (* any failure to read the running image (e.g. a corrupted jump led
         the walk out of mapped memory) means the code cannot be
         verified: abort, never guess *)
      fail 0 addr "run memory unreadable"
  in
  let pre_pos = ref 0 and run_pos = ref run_base in
  let continue = ref true in
  while !continue do
    (* skip alignment no-ops on the pre side *)
    let skipping = ref tolerance.skip_nops in
    while !skipping && !pre_pos < size do
      let i, len = decode_pre !pre_pos in
      if Isa.is_nop i then pre_pos := !pre_pos + len else skipping := false
    done;
    if !pre_pos >= size then continue := false
    else begin
      (* skip alignment no-ops on the run side *)
      let skipping = ref tolerance.skip_nops in
      while !skipping do
        let i, len = decode_run !run_pos in
        if Isa.is_nop i then run_pos := !run_pos + len else skipping := false
      done;
      Hashtbl.replace boundary !pre_pos !run_pos;
      let ipre, lpre = decode_pre !pre_pos in
      let irun, lrun = decode_run !run_pos in
      (match Isa.pc_rel ipre, Isa.pc_rel irun with
       | Some (cls_pre, disp_pre, field_off, field_size), Some (cls_run, disp_run, _, _)
         ->
         if cls_pre <> cls_run then
           fail !pre_pos !run_pos
             (Printf.sprintf "jump class differs: pre %s, run %s"
                (Isa.insn_to_string ipre) (Isa.insn_to_string irun));
         (* a naive matcher insists on identical encodings and
            displacement bytes (ablation) *)
         if (not tolerance.jump_equivalence)
            && (lpre <> lrun
                || (reloc_at (!pre_pos + field_off) = None
                    && disp_pre <> disp_run))
         then
           fail !pre_pos !run_pos
             (Printf.sprintf "strict jump mismatch: pre %s, run %s"
                (Isa.insn_to_string ipre) (Isa.insn_to_string irun));
         let run_target = !run_pos + lrun + disp_run in
         (match reloc_at (!pre_pos + field_off) with
          | Some r ->
            if field_size <> 4 then
              fail !pre_pos !run_pos "relocation on short jump operand";
            (* pre target = S + A + 4; equate with the run target *)
            let value = run_target - Int32.to_int r.addend - 4 in
            infer r.sym value !pre_pos !run_pos
          | None ->
            let pre_target = !pre_pos + lpre + disp_pre in
            if pre_target < 0 || pre_target > size then
              fail !pre_pos !run_pos "pre jump leaves its section";
            deferred := (!pre_pos, pre_target, run_target) :: !deferred)
       | Some _, None | None, Some _ ->
         fail !pre_pos !run_pos
           (Printf.sprintf "instruction mismatch: pre %s, run %s"
              (Isa.insn_to_string ipre) (Isa.insn_to_string irun))
       | None, None -> (
         match Isa.imm_field ipre with
         | Some (field_off, _) when reloc_at (!pre_pos + field_off) <> None ->
           let r = Option.get (reloc_at (!pre_pos + field_off)) in
           (* operand shapes must agree apart from the immediate; a run
              instruction with no immediate field at all (mutated or
              misaligned code) is a mismatch, not a crash *)
           let irun_holed =
             match with_imm irun 0l with
             | i -> Some i
             | exception Invalid_argument _ -> None
           in
           if irun_holed <> Some ipre then
             fail !pre_pos !run_pos
               (Printf.sprintf "instruction mismatch at hole: pre %s, run %s"
                  (Isa.insn_to_string ipre) (Isa.insn_to_string irun));
           let stored = imm_value irun in
           let place = Int32.of_int (!run_pos + field_off) in
           let value =
             Reloc.infer_sym_value ~kind:r.kind ~stored ~addend:r.addend
               ~place
           in
           infer r.sym (Int32.to_int value) !pre_pos !run_pos
         | _ ->
           if ipre <> irun then
             fail !pre_pos !run_pos
               (Printf.sprintf "instruction mismatch: pre %s, run %s"
                  (Isa.insn_to_string ipre) (Isa.insn_to_string irun))));
      pre_pos := !pre_pos + lpre;
      run_pos := !run_pos + lrun
    end
  done;
  Hashtbl.replace boundary size !run_pos;
  (* verify deferred jump targets through the boundary correspondence *)
  List.iter
    (fun (at, pre_target, run_target) ->
      match Hashtbl.find_opt boundary pre_target with
      | Some mapped when mapped = run_target -> ()
      | Some mapped ->
        fail at run_target
          (Printf.sprintf
             "jump target mismatch: pre offset %#x maps to %#x, run jumps to %#x"
             pre_target mapped run_target)
      | None ->
        fail at run_target
          (Printf.sprintf "jump into middle of instruction at pre offset %#x"
             pre_target))
    (List.rev !deferred)

(* --- locating and matching all functions of a helper --- *)

type pending_section = {
  p_section : Section.t;
  p_fname : string;  (* raw function name (anchor symbol) *)
  p_canonical : string;
  p_binding : Symbol.binding;
}

let text_sections (helper : Objfile.t) =
  List.filter_map
    (fun (s : Section.t) ->
      if s.kind <> Section.Text then None
      else
        let anchor =
          List.find_opt
            (fun (sym : Symbol.t) ->
              match sym.def with
              | Some d -> String.equal d.section s.name && d.value = 0
              | None -> false)
            helper.symbols
        in
        match anchor with
        | Some sym ->
          Some
            { p_section = s; p_fname = sym.name;
              p_canonical =
                Update.canonical ~binding:sym.binding
                  ~unit_name:helper.unit_name sym.name;
              p_binding = sym.binding }
        | None -> None)
    helper.sections

(* fold the free-form mismatch text into a stable counter suffix, so
   "runpre.reject.<class>" cardinality stays bounded no matter what the
   reason strings interpolate *)
let reason_class reason =
  let has_prefix p = String.length reason >= String.length p
                     && String.sub reason 0 (String.length p) = p in
  if has_prefix "symbol " then "symbol_conflict"
  else if has_prefix "jump class differs" then "jump_class"
  else if has_prefix "strict jump mismatch" then "strict_jump"
  else if has_prefix "jump target mismatch" then "jump_target"
  else if has_prefix "jump into middle" then "jump_alignment"
  else if has_prefix "pre jump leaves" then "jump_escape"
  else if has_prefix "instruction mismatch" then "code"
  else if has_prefix "undecodable" then "undecodable"
  else if has_prefix "run memory unreadable" then "unreadable"
  else if has_prefix "relocation on short jump" then "short_reloc"
  else "other"

let match_helper ?(tolerance = full_tolerance) ~read_run ~candidates
    ~already ~inference (helper : Objfile.t) =
  Trace.with_span "runpre.match_helper"
    ~fields:[ ("unit", Trace.Str helper.unit_name) ]
  @@ fun () ->
  let bindings = binding_index helper in
  let pending = ref (text_sections helper) in
  let anchors = ref [] in
  let last_failure = ref None in
  (* [sym_value addr] is what the function's symbol resolves to when
     its code was located at [addr]: for a function already
     redirected by an earlier update, the original entry; otherwise
     the code address itself. *)
  let candidate_addrs p =
    match already (helper.unit_name, p.p_fname) with
    | Some (code_addr, symbol_value) -> ([ code_addr ], fun _ -> symbol_value)
    | None -> (
      match Hashtbl.find_opt inference p.p_canonical with
      | Some addr -> ([ addr ], fun a -> a)
      | None -> (candidates p.p_fname, fun a -> a))
  in
  (* the single candidate-trial loop, shared by the progress rounds and
     the failure-reporting epilogue so the two cannot drift: try every
     candidate address against the section, recording the last genuine
     code mismatch, and keep the trials that matched *)
  let try_candidates p cands =
    List.filter_map
      (fun addr ->
        Atomic.incr attempts;
        Trace.count "runpre.match_attempts" 1;
        let trial = { committed = inference; overlay = Hashtbl.create 16 } in
        match
          match_text ~tolerance ~read_run ~helper ~bindings
            ~section:p.p_section ~run_base:addr ~trial
        with
        | () ->
          Trace.instant "runpre.candidate"
            ~fields:
              [ ("unit", Trace.Str helper.unit_name);
                ("section", Trace.Str p.p_section.name);
                ("addr", Trace.Int addr);
                ("accepted", Trace.Bool true) ];
          Some (addr, trial)
        | exception Mismatched m ->
          last_failure := Some m;
          Trace.count ("runpre.reject." ^ reason_class m.reason) 1;
          (* the §4 diagnostic: which candidate, and the byte offset of
             first divergence on both sides *)
          Trace.instant "runpre.candidate"
            ~fields:
              [ ("unit", Trace.Str helper.unit_name);
                ("section", Trace.Str p.p_section.name);
                ("addr", Trace.Int addr);
                ("accepted", Trace.Bool false);
                ("reason", Trace.Str m.reason);
                ("pre_off", Trace.Int m.pre_off);
                ("run_addr", Trace.Int m.run_addr) ];
          None)
      (List.sort_uniq compare cands)
  in
  let progress = ref true in
  while !pending <> [] && !progress do
    progress := false;
    let still = ref [] in
    List.iter
      (fun p ->
        let cands, sym_value = candidate_addrs p in
        match try_candidates p cands with
        | [ (addr, trial) ] ->
          commit trial;
          Hashtbl.replace inference p.p_canonical (sym_value addr);
          anchors := (p.p_canonical, addr) :: !anchors;
          progress := true
        | [] -> still := p :: !still
        | _many -> still := p :: !still)
      !pending;
    pending := List.rev !still
  done;
  match !pending with
  | [] -> Ok (List.rev !anchors)
  | p :: _ -> (
    let cands, _ = candidate_addrs p in
    let ambiguous matches =
      Error
        (Ambiguous
           { unit_name = helper.unit_name; symbol = p.p_fname; matches })
    in
    match try_candidates p cands with
    | [] -> (
      (* surface the underlying code mismatch when there was a single
         candidate — that is the §4.2 safety abort *)
      match !last_failure, cands with
      | Some m, [ _ ] -> Error (Mismatch m)
      | _ -> ambiguous 0)
    | l -> ambiguous (List.length l))
