module Isa = Vmisa.Isa
module Reloc = Objfile.Reloc
module Symbol = Objfile.Symbol
module Section = Objfile.Section

type tolerance = {
  skip_nops : bool;
  jump_equivalence : bool;
}

let full_tolerance = { skip_nops = true; jump_equivalence = true }

(* --- the code-comparison walker ---

   One definition of "is this the same code?", shared by run-pre
   matching (pre text against run memory) and pre-post differencing
   (pre text against the post build's section): no-ops are skipped on
   each side, jumps are compared by class and their targets checked
   through the pre->other instruction-boundary map once the walk ends,
   and relocation holes go to the caller's judgment. *)

type divergence =
  | Symbol_conflict of { symbol : string; inferred : int; previous : int }
  | Jump_class of Isa.insn * Isa.insn
  | Strict_jump of Isa.insn * Isa.insn
  | Short_jump_reloc
  | Jump_escape
  | Jump_target of { pre_target : int; mapped : int; target : int }
  | Jump_into_insn of int
  | Insn_mismatch of { pre : Isa.insn; other : Isa.insn; at_hole : bool }
  | Length_mismatch
  | Undecodable of [ `Pre | `Other ]
  | Unreadable

let pair what p o =
  Printf.sprintf "%s: pre %s, run %s" what (Isa.insn_to_string p)
    (Isa.insn_to_string o)

let divergence_to_string = function
  | Symbol_conflict { symbol; inferred; previous } ->
    Printf.sprintf "symbol %s inferred as %#x but previously %#x" symbol
      inferred previous
  | Jump_class (p, o) -> pair "jump class differs" p o
  | Strict_jump (p, o) -> pair "strict jump mismatch" p o
  | Short_jump_reloc -> "relocation on short jump operand"
  | Jump_escape -> "pre jump leaves its section"
  | Jump_target { pre_target; mapped; target } ->
    Printf.sprintf
      "jump target mismatch: pre offset %#x maps to %#x, run jumps to %#x"
      pre_target mapped target
  | Jump_into_insn pre_target ->
    Printf.sprintf "jump into middle of instruction at pre offset %#x"
      pre_target
  | Insn_mismatch { pre; other; at_hole } ->
    pair
      (if at_hole then "instruction mismatch at hole"
       else "instruction mismatch")
      pre other
  | Length_mismatch -> "code ends at a different instruction"
  | Undecodable `Pre -> "undecodable pre instruction"
  | Undecodable `Other -> "undecodable run instruction"
  | Unreadable -> "run memory unreadable"

(* the stable suffix of the "runpre.reject.<class>" counter *)
let divergence_class = function
  | Symbol_conflict _ -> "symbol_conflict"
  | Jump_class _ -> "jump_class"
  | Strict_jump _ -> "strict_jump"
  | Short_jump_reloc -> "short_reloc"
  | Jump_escape -> "jump_escape"
  | Jump_target _ -> "jump_target"
  | Jump_into_insn _ -> "jump_alignment"
  | Insn_mismatch _ | Length_mismatch -> "code"
  | Undecodable _ -> "undecodable"
  | Unreadable -> "unreadable"

type stream =
  | Post of { section : Section.t; same_hole : Reloc.t -> Reloc.t -> bool }
  | Run of {
      read : int -> int;
      base : int;
      infer : Reloc.t -> int -> (unit, divergence) result;
    }

(* an immediate-carrying instruction split into its shape (the
   immediate zeroed, as a relocation hole leaves it) and the immediate *)
let split_imm = function
  | Isa.Mov_ri (r, v) -> Some (Isa.Mov_ri (r, 0l), v)
  | Isa.Addi (r, v) -> Some (Isa.Addi (r, 0l), v)
  | Isa.Cmpi (r, v) -> Some (Isa.Cmpi (r, 0l), v)
  | Isa.Load_abs (w, r, v) -> Some (Isa.Load_abs (w, r, 0l), v)
  | Isa.Store_abs (w, v, r) -> Some (Isa.Store_abs (w, 0l, r), v)
  | _ -> None

let reloc_index (s : Section.t) =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (r : Reloc.t) -> Hashtbl.replace tbl r.offset r) s.relocs;
  Hashtbl.find_opt tbl

let walk ~tolerance (pre : Section.t) other =
  let exception Diverged of int * int * divergence in
  let diverge p o d = raise_notrace (Diverged (p, o, d)) in
  let pre_reloc = reloc_index pre in
  let decode_pre pos =
    try Isa.decode_bytes pre.data pos
    with Isa.Decode_error _ -> diverge pos 0 (Undecodable `Pre)
  in
  (* where the other stream starts, where it ends (run memory never
     does), how it decodes, and its own relocation holes *)
  let base, limit, decode_other, other_reloc =
    match other with
    | Post { section = s; _ } ->
      let decode pos =
        try Isa.decode_bytes s.data pos
        with Isa.Decode_error _ -> diverge 0 pos (Undecodable `Other)
      in
      (0, s.size, decode, reloc_index s)
    | Run { read; base; _ } ->
      let decode addr =
        match Isa.decode read addr with
        | v -> v
        | exception Isa.Decode_error _ -> diverge 0 addr (Undecodable `Other)
        | exception _ ->
          (* any failure to read the running image (e.g. a corrupted jump
             led the walk out of mapped memory) means the code cannot be
             verified: abort, never guess *)
          diverge 0 addr Unreadable
      in
      (base, max_int, decode, fun _ -> None)
  in
  let bounded = match other with Post _ -> true | Run _ -> false in
  let skip decode limit pos =
    let pos = ref pos and stop = ref (not tolerance.skip_nops) in
    while (not !stop) && !pos < limit do
      let i, len = decode !pos in
      if Isa.is_nop i then pos := !pos + len else stop := true
    done;
    !pos
  in
  let hole_at reloc pos insn =
    match Isa.imm_field insn with
    | Some (off, _) -> Option.map (fun r -> (off, r)) (reloc (pos + off))
    | None -> None
  in
  let boundary = Hashtbl.create 64 in
  let deferred = ref [] in
  let step p o =
    Hashtbl.replace boundary p o;
    let ipre, lpre = decode_pre p in
    let ioth, loth = decode_other o in
    let diverge d = diverge p o d in
    let mismatch at_hole =
      diverge (Insn_mismatch { pre = ipre; other = ioth; at_hole })
    in
    (* a pre hole whose field sits at [field] in the other stream: run
       memory gives the hole's symbol [value]; a post section must hold
       a relocation there that denotes the same value *)
    let fill r ~field value =
      match other with
      | Run { infer; _ } -> (
        match infer r (Lazy.force value) with
        | Ok () -> ()
        | Error d -> diverge d)
      | Post { same_hole; _ } -> (
        match other_reloc field with
        | Some q when same_hole r q -> ()
        | _ -> mismatch true)
    in
    (match Isa.pc_rel ipre, Isa.pc_rel ioth with
     | ( Some (cls_p, disp_p, field_p, size_p),
         Some (cls_o, disp_o, field_o, size_o) ) -> (
       if cls_p <> cls_o then diverge (Jump_class (ipre, ioth));
       let hole = pre_reloc (p + field_p) in
       (* a naive matcher insists on identical encodings and
          displacement bytes (ablation) *)
       if (not tolerance.jump_equivalence)
          && (lpre <> loth || (hole = None && disp_p <> disp_o))
       then diverge (Strict_jump (ipre, ioth));
       let target = o + loth + disp_o in
       match hole with
       | Some _ when size_p <> 4 || (bounded && size_o <> 4) ->
         diverge Short_jump_reloc
       | Some r ->
         (* pre target = S + A + 4; equate with the run target *)
         fill r ~field:(o + field_o)
           (lazy (target - Int32.to_int r.addend - 4))
       | None ->
         if other_reloc (o + field_o) <> None then mismatch true;
         let pre_target = p + lpre + disp_p in
         if pre_target < 0 || pre_target > pre.size
            || (bounded && (target < 0 || target > limit))
         then diverge Jump_escape;
         deferred := (p, pre_target, target) :: !deferred)
     | Some _, None | None, Some _ -> mismatch false
     | None, None -> (
       match hole_at pre_reloc p ipre with
       | None ->
         if ipre <> ioth || hole_at other_reloc o ioth <> None then
           mismatch false
       | Some (off, r) -> (
         (* the other instruction with its immediate zeroed must be the
            pre instruction, whose hole holds zero; one with no
            immediate field at all (mutated or misaligned code) is a
            mismatch, not a crash *)
         match split_imm ioth with
         | Some (shape, stored) when shape = ipre ->
           let place = Int32.of_int (o + off) in
           fill r ~field:(o + off)
             (lazy
               (Int32.to_int
                  (Reloc.infer_sym_value ~kind:r.kind ~stored
                     ~addend:r.addend ~place)))
         | _ -> mismatch true)));
    (p + lpre, o + loth)
  in
  let run () =
    let p = ref (skip decode_pre pre.size 0) and o = ref base in
    while !p < pre.size do
      o := skip decode_other limit !o;
      if !o >= limit then diverge !p !o Length_mismatch;
      let p', o' = step !p !o in
      p := skip decode_pre pre.size p';
      o := o'
    done;
    (* a bounded stream must end where the pre section ends *)
    if bounded then begin
      o := skip decode_other limit !o;
      if !o < limit then diverge pre.size !o Length_mismatch
    end;
    Hashtbl.replace boundary pre.size !o;
    List.iter
      (fun (at, pre_target, target) ->
        match Hashtbl.find_opt boundary pre_target with
        | Some mapped when mapped = target -> ()
        | Some mapped ->
          diverge at target (Jump_target { pre_target; mapped; target })
        | None -> diverge at target (Jump_into_insn pre_target))
      (List.rev !deferred)
  in
  match run () with
  | () -> Ok ()
  | exception Diverged (p, o, d) -> Error (p, o, d)

(* --- matching one text section against run memory --- *)

type mismatch = {
  unit_name : string;
  section : string;
  pre_off : int;
  run_addr : int;
  reason : divergence;
}

type failure =
  | Mismatch of mismatch
  | Ambiguous of { unit_name : string; symbol : string; matches : int }

let pp_failure ppf = function
  | Mismatch m ->
    Format.fprintf ppf "%s %s: pre+%#x / run %#x: %s" m.unit_name m.section
      m.pre_off m.run_addr (divergence_to_string m.reason)
  | Ambiguous { unit_name; symbol; matches } ->
    Format.fprintf ppf "%s: %s matched %d candidates" unit_name symbol matches

type inference = (string, int) Hashtbl.t

let create_inference () : inference = Hashtbl.create 64

(* candidate trials since the last reset, kept as a plain atomic (the
   [runpre.match_attempts] trace counter only records under an enabled
   trace): the differencing bench and minimality sweep read this to show
   how much run-pre work a minimal update saves *)
let attempts = Atomic.make 0
let match_attempts () = Atomic.get attempts
let reset_match_attempts () = Atomic.set attempts 0

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

(* canonical name of a symbol referenced from [helper] *)
let canonical_ref ~bindings (helper : Objfile.t) name =
  let binding =
    match Hashtbl.find_opt bindings name with
    | Some b -> b
    | None -> Symbol.Global (* undefined references are global *)
  in
  Update.canonical ~binding ~unit_name:helper.unit_name name

(* a hole's run bytes name the value of its symbol: it must agree with
   every earlier inference of that symbol *)
let match_text ~tolerance ~read_run ~(helper : Objfile.t) ~bindings
    ~(section : Section.t) ~run_base ~(trial : trial) =
  let infer (r : Reloc.t) value =
    let symbol = canonical_ref ~bindings helper r.sym in
    match trial_find trial symbol with
    | Some previous when previous <> value ->
      Error (Symbol_conflict { symbol; inferred = value; previous })
    | Some _ -> Ok ()
    | None ->
      trial_set trial symbol value;
      Ok ()
  in
  walk ~tolerance section (Run { read = read_run; base = run_base; infer })
  |> Result.map_error (fun (pre_off, run_addr, reason) ->
         { unit_name = helper.unit_name; section = section.name; pre_off;
           run_addr; reason })

(* --- locating and matching all functions of a helper --- *)

type pending_section = {
  p_section : Section.t;
  p_fname : string;  (* raw function name (anchor symbol) *)
  p_canonical : string;
}

let text_sections (helper : Objfile.t) =
  List.filter_map
    (fun (s : Section.t) ->
      Option.map
        (fun (sym : Symbol.t) ->
          { p_section = s; p_fname = sym.name;
            p_canonical =
              Update.canonical ~binding:sym.binding
                ~unit_name:helper.unit_name sym.name })
        (Objfile.text_anchor helper s))
    helper.sections

let match_helper ?(tolerance = full_tolerance) ~read_run ~candidates
    ~already ~inference (helper : Objfile.t) =
  Trace.with_span "runpre.match_helper"
    ~fields:[ ("unit", Trace.Str helper.unit_name) ]
  @@ fun () ->
  let bindings = Objfile.bindings helper in
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
        | Ok () ->
          Trace.instant "runpre.candidate"
            ~fields:
              [ ("unit", Trace.Str helper.unit_name);
                ("section", Trace.Str p.p_section.name);
                ("addr", Trace.Int addr);
                ("accepted", Trace.Bool true) ];
          Some (addr, trial)
        | Error m ->
          last_failure := Some m;
          if Trace.is_enabled () then begin
            Trace.count ("runpre.reject." ^ divergence_class m.reason) 1;
            (* the §4 diagnostic: which candidate, and the byte offset of
               first divergence on both sides *)
            Trace.instant "runpre.candidate"
              ~fields:
                [ ("unit", Trace.Str helper.unit_name);
                  ("section", Trace.Str p.p_section.name);
                  ("addr", Trace.Int addr);
                  ("accepted", Trace.Bool false);
                  ("reason", Trace.Str (divergence_to_string m.reason));
                  ("pre_off", Trace.Int m.pre_off);
                  ("run_addr", Trace.Int m.run_addr) ]
          end;
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
