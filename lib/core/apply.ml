module Machine = Kernel.Machine
module Image = Klink.Image

let src = Logs.Src.create "ksplice.apply" ~doc:"Ksplice apply/undo"

module Log = (val Logs.src_log src : Logs.LOG)
module Modlink = Klink.Modlink
module Symbol = Objfile.Symbol
module Section = Objfile.Section
module Isa = Vmisa.Isa
module Ast = Minic.Ast

type replacement = {
  r_unit : string;
  r_fn : string;
  r_old_addr : int;
  r_new_addr : int;
  r_old_size : int;
  r_new_size : int;
}

type applied = {
  update : Update.t;
  replacements : replacement list;
  saved : (int * Bytes.t) list;
  module_ranges : (int * int) list;
  module_image : (int * Bytes.t) list;
  added_symbols : Image.syminfo list;
  priv_ranges : (int * int) list;
  journal : Txn.journal;
  pause_ns : int;
  (* the stack entries a cumulative apply atomically replaced, most
     recent first ([] for an ordinary update): undoing the cumulative
     replays its journal — which revives the displaced trampolines and
     modules byte-for-byte — and hands this stack back *)
  displaced : applied list;
  (* the shadow table as the collapse found it ([] for an ordinary
     update): the unwind detached these bindings via the displaced
     updates' destructors, so undoing the cumulative re-attaches them —
     their shadow memory still holds the collapse-time values *)
  displaced_shadows : ((int * int) * int) list;
}

type not_quiescent = {
  nq_functions : string list;
  nq_attempts : int;
  nq_steps_run : int;
  nq_blockers : (string * string list) list;
}

type error =
  | Code_mismatch of Runpre.mismatch
  | Ambiguous_symbol of string * string * int
  | Unresolved_symbol of string
  | Not_quiescent of not_quiescent
  | Deadline_exceeded of { de_budget : int; de_diag : not_quiescent }
  | Function_too_small of string
  | Hook_fault of string * Machine.fault
  | Out_of_memory of string
  | Already_applied of string
  | Not_applied of string
  | Not_topmost of string
  | Integrity of string

let pp_error ppf = function
  | Code_mismatch m ->
    Format.fprintf ppf
      "run-pre mismatch in %s %s at pre+%#x / run %#x: %s" m.unit_name
      m.section m.pre_off m.run_addr m.reason
  | Ambiguous_symbol (u, s, n) ->
    if n = 0 then
      Format.fprintf ppf "no matching code found for %s (%s)" s u
    else Format.fprintf ppf "symbol %s (%s) matches %d candidates" s u n
  | Unresolved_symbol s -> Format.fprintf ppf "unresolved symbol %s" s
  | Not_quiescent nq ->
    Format.fprintf ppf
      "functions in use after %d attempts (%d backoff steps): %s"
      nq.nq_attempts nq.nq_steps_run
      (String.concat ", " nq.nq_functions);
    List.iter
      (fun (who, bt) ->
        Format.fprintf ppf "@\n  blocked by %s: %s" who
          (String.concat " <- " bt))
      nq.nq_blockers
  | Deadline_exceeded { de_budget; de_diag } ->
    Format.fprintf ppf
      "deadline of %d steps exceeded after %d attempts (%d backoff \
       steps); functions still in use: %s"
      de_budget de_diag.nq_attempts de_diag.nq_steps_run
      (String.concat ", " de_diag.nq_functions);
    List.iter
      (fun (who, bt) ->
        Format.fprintf ppf "@\n  blocked by %s: %s" who
          (String.concat " <- " bt))
      de_diag.nq_blockers
  | Function_too_small f ->
    Format.fprintf ppf "function %s is too small for a jump trampoline" f
  | Hook_fault (h, f) ->
    Format.fprintf ppf "hook %s faulted: %a" h Machine.pp_fault f
  | Out_of_memory m -> Format.fprintf ppf "out of module memory: %s" m
  | Already_applied id -> Format.fprintf ppf "update %s already applied" id
  | Not_applied id -> Format.fprintf ppf "update %s is not applied" id
  | Not_topmost id ->
    Format.fprintf ppf "update %s is not the most recent update" id
  | Integrity m -> Format.fprintf ppf "integrity check failed: %s" m

type t = {
  m : Machine.t;
  mutable stack : applied list;  (* most recent first *)
}

let init m = { m; stack = [] }
let machine t = t.m
let applied t = t.stack

(* --- helpers --- *)

let jump_size = 5

(* For a function already redirected by applied updates: the latest
   replacement's code address (what the next pre code must match against)
   and the original entry address (the function's enduring symbol value,
   start of the trampoline chain). *)
let already_redirected t (unit_name, raw_fn) =
  let recs =
    List.filter_map
      (fun a ->
        List.find_map
          (fun r ->
            let name, _ = Update.split_canonical r.r_fn in
            if String.equal r.r_unit unit_name && String.equal name raw_fn
            then Some r
            else None)
          a.replacements)
      t.stack (* most recent first *)
  in
  match recs with
  | [] -> None
  | latest :: _ ->
    let oldest = List.nth recs (List.length recs - 1) in
    Some (latest.r_new_addr, oldest.r_old_addr)

let func_candidates t name =
  Machine.lookup_name t.m name
  |> List.filter_map (fun (s : Image.syminfo) ->
       if s.kind = `Func then Some s.addr else None)

let unique_global t name =
  match
    Machine.lookup_name t.m name
    |> List.filter (fun (s : Image.syminfo) -> s.binding = Symbol.Global)
  with
  | [ s ] -> Some s.addr
  | _ -> None

let helper_symbol_size (update : Update.t) unit_name raw_fn =
  List.find_map
    (fun (h : Objfile.t) ->
      if String.equal h.unit_name unit_name then
        List.find_map
          (fun (s : Symbol.t) ->
            if String.equal s.name raw_fn && Symbol.is_defined s then
              Some s.size
            else None)
          h.symbols
      else None)
    update.helpers

(* conservative §5.2 check: does [th] execute in or hold a return into
   [ranges]? *)
let thread_blocks m ranges (th : Machine.thread) =
  let in_ranges v = List.exists (fun (lo, hi) -> v >= lo && v < hi) ranges in
  match th.state with
  | Machine.Exited _ | Machine.Faulted _ -> false
  | Machine.Runnable | Machine.Sleeping _ ->
    in_ranges th.pc
    ||
    let sp = Int32.to_int th.regs.(8) in
    let blocked = ref false in
    let a = ref sp in
    while (not !blocked) && !a + 4 <= th.stack_hi do
      let w = Int32.to_int (Machine.read_i32 m !a) in
      if in_ranges w then blocked := true;
      a := !a + 4
    done;
    !blocked

let quiescent m ranges =
  List.for_all (fun th -> not (thread_blocks m ranges th)) (Machine.threads m)

(* the threads still holding [ranges], with backtraces — the §5.2
   diagnostic ("which thread still sits in the function I want to patch,
   and where was it called from?") *)
let blocking_threads m ranges =
  List.filter_map
    (fun (th : Machine.thread) ->
      if thread_blocks m ranges th then
        Some
          (Printf.sprintf "thread %d (%s)" th.tid th.name,
           Machine.backtrace m th)
      else None)
    (Machine.threads m)

(* bounded exponential backoff: before attempt n+1 the scheduler drains
   min(cap, base * 2^n) instructions, within a total step budget *)
let backoff_steps ~retry_base ~retry_cap n =
  min retry_cap (retry_base * (1 lsl min n 20))

let default_max_attempts = 10
let default_retry_base = 250
let default_retry_cap = 4000
let default_retry_budget = 20_000

(* hook sections of the primary: (kind, reloc syms in order) *)
let hook_syms (primary : Objfile.t) kind =
  let prefix = Ast.hook_section kind in
  List.concat_map
    (fun (s : Section.t) ->
      let matches =
        String.starts_with ~prefix s.name && s.kind = Section.Note
      in
      if matches then
        List.map (fun (r : Objfile.Reloc.t) -> r.sym) s.relocs
      else [])
    primary.sections

exception Fail of error

(* --- engagement: how trampolines land ---

   The capture/quiesce/trampoline phase is pluggable. The default
   engagement is the paper's §5.2 stop_machine loop; a per-thread
   engagement ([Manager.Transition.engage]) installs dispatch stubs and
   migrates threads at safe points instead, demoting stop_machine to a
   straggler fallback. The engagement receives everything it needs to
   drive the phase and must call [e_install] exactly once on success. *)

type engagement = {
  e_machine : Machine.t;
  e_update : string;
  e_direction : [ `Apply | `Undo ];
  e_functions : string list;  (* names, for quiescence diagnostics *)
  e_dispatch : (int * int) list;
      (* (patched entry, replacement entry) dispatch stubs *)
  e_route_migrated : bool;
      (* apply: migrated threads are routed to the replacement;
         undo: unmigrated threads are (the entry holds the other side) *)
  e_guard_ranges : (int * int) list;
      (* a thread must be clear of these to migrate (and for the
         stop_machine fallback to fire) *)
  e_enter : Txn.step -> unit;  (* advance the transaction step marker *)
  e_sched : (unit -> unit) -> unit;
      (* run scheduler work with its writes journaled as [Txn.Sched] *)
  e_prepare : unit -> unit;
      (* make the fall-through side executable (undo restores the saved
         entry bytes); a no-op for apply *)
  e_install : unit -> unit;
      (* land the end state: apply writes the permanent jumps and runs
         the apply hooks; undo replays the journal and runs the reverse
         hooks *)
}

(* An engagement reports failure by raising with a pipeline error (for
   example [Not_quiescent] when even the fallback cannot converge); the
   transaction rolls back as for any other step failure. *)
exception Engage_failed of error

type engage_fn = engagement -> int

let run_named_hooks t ~resolve names =
  List.iter
    (fun sym ->
      match resolve sym with
      | None -> raise (Fail (Unresolved_symbol sym))
      | Some addr -> (
        match Machine.call_function t.m ~addr ~args:[] with
        | Ok _ -> ()
        | Error f -> raise (Fail (Hook_fault (sym, f)))))
    names

let run_hooks t ~resolve (update : Update.t) kind =
  run_named_hooks t ~resolve (hook_syms update.primary kind)

(* The apply pipeline body — duplicate check through the engagement and
   commit hooks. Runs inside [txn], which the caller begins, commits and
   rolls back; [enter] advances the step marker (and notifies any armed
   fault-injection session). Returns a constructor for the [applied]
   record, deferred so the caller can commit the transaction and supply
   the resulting journal (for a cumulative apply, that journal also
   covers the unwinding of the displaced stack). Raises [Fail]. *)
let apply_pipeline ~txn ~enter ~tolerance ~max_attempts ~retry_base
    ~retry_cap ~retry_budget ~deadline ~inject ~engage t (update : Update.t) =
  begin
    if List.exists (fun a -> a.update.Update.update_id = update.update_id)
         t.stack
    then raise (Fail (Already_applied update.update_id));
    (match Machine.transition_update t.m with
     | Some id ->
       raise (Fail (Integrity ("a transition is already in flight for " ^ id)))
     | None -> ());
    Log.info (fun k ->
        k "applying update %s (%d replaced functions, %d helpers)"
          update.update_id
          (List.length update.replaced_functions)
          (List.length update.helpers));
    (* === allocate: reserve module memory === *)
    enter Txn.Allocate;
    let alloc ~size ~align = Machine.alloc_module t.m ~size ~align in
    let m0d = Modlink.layout ~alloc update.primary in
    (* === link: run-pre matching, symbol resolution, relocation math === *)
    enter Txn.Link;
    let inference = Runpre.create_inference () in
    let anchors = ref [] in
    List.iter
      (fun helper ->
        match
          Runpre.match_helper ~tolerance
            ~read_run:(fun a -> Machine.read_u8 t.m a)
            ~candidates:(func_candidates t)
            ~already:(already_redirected t)
            ~inference helper
        with
        | l ->
          Log.debug (fun k ->
              k "run-pre matched %s: %d functions located"
                helper.Objfile.unit_name (List.length l));
          List.iter
            (fun (cname, addr) ->
              anchors := ((helper.Objfile.unit_name, cname), addr) :: !anchors)
            l
        | exception Runpre.Mismatch m -> raise (Fail (Code_mismatch m))
        | exception Runpre.Ambiguous { unit_name; symbol; matches } ->
          raise (Fail (Ambiguous_symbol (unit_name, symbol, matches))))
      update.helpers;
    let resolve name =
      match Modlink.symbol_addr m0d name with
      | Some a -> Some a
      | None -> (
        match Hashtbl.find_opt inference name with
        | Some a -> Some a
        | None ->
          let raw, _ = Update.split_canonical name in
          unique_global t raw)
    in
    let link_resolve =
      match inject with
      | Some i -> Faultinj.sabotage_resolve i resolve
      | None -> resolve
    in
    let writes =
      match Modlink.relocate m0d ~resolve:link_resolve with
      | Ok writes -> writes
      | Error e ->
        raise
          (Fail (Unresolved_symbol (Format.asprintf "%a" Modlink.pp_error e)))
    in
    let module_ranges =
      List.map
        (fun (p : Modlink.placed) -> (p.addr, p.addr + p.section.size))
        m0d.placed
    in
    (* the replacement plan *)
    let replacements =
      List.map
        (fun (unit_name, cfn) ->
          let raw, _ = Update.split_canonical cfn in
          let old_addr =
            match List.assoc_opt (unit_name, cfn) !anchors with
            | Some a -> a
            | None -> raise (Fail (Unresolved_symbol cfn))
          in
          let new_addr =
            match Modlink.symbol_addr m0d cfn with
            | Some a -> a
            | None -> raise (Fail (Unresolved_symbol cfn))
          in
          let old_size =
            match helper_symbol_size update unit_name raw with
            | Some s when s > 0 -> s
            | _ -> jump_size
          in
          let new_size =
            match
              List.find_opt
                (fun (s : Symbol.t) ->
                  String.equal s.name cfn && Symbol.is_defined s)
                update.primary.symbols
            with
            | Some s -> max s.size jump_size
            | None -> jump_size
          in
          if old_size < jump_size then raise (Fail (Function_too_small cfn));
          Log.debug (fun k ->
              k "replace %s: %#x (%d bytes) -> %#x" cfn old_addr old_size
                new_addr);
          { r_unit = unit_name; r_fn = cfn; r_old_addr = old_addr;
            r_new_addr = new_addr; r_old_size = old_size;
            r_new_size = new_size })
        update.replaced_functions
    in
    (* === relocate: land the module bytes === *)
    enter Txn.Relocate;
    List.iter (fun (addr, bytes) -> Machine.write_bytes t.m addr bytes) writes;
    (* read-back verification: a corrupted replacement must never go
       live — every relocated byte is compared against what was meant *)
    List.iter
      (fun (addr, bytes) ->
        let got = Machine.read_bytes t.m addr (Bytes.length bytes) in
        if not (Bytes.equal got bytes) then
          raise
            (Fail
               (Integrity
                  (Printf.sprintf
                     "relocated bytes at %#x did not verify after writing"
                     addr))))
      writes;
    (* replacement code must be allowed to use privileged escapes *)
    let priv_ranges =
      List.filter_map
        (fun (p : Modlink.placed) ->
          if p.section.kind = Section.Text then
            Some (p.addr, p.addr + p.section.size)
          else None)
        m0d.placed
    in
    List.iter (Machine.add_privileged_range t.m) priv_ranges;
    (* module symbols join kallsyms (like insmod) *)
    let added_symbols =
      List.filter_map
        (fun (name, addr) ->
          let raw, _ = Update.split_canonical name in
          let unit_name =
            Option.value ~default:update.primary.unit_name
              (List.assoc_opt name update.primary_sym_units)
          in
          let sym =
            List.find_opt
              (fun (s : Symbol.t) ->
                String.equal s.name name && Symbol.is_defined s)
              update.primary.symbols
          in
          match sym with
          | Some s ->
            Some
              { Image.name = raw; addr; size = s.size; binding = s.binding;
                kind = s.kind; unit_name }
          | None -> None)
        m0d.own_symbols
    in
    Machine.add_kallsyms t.m added_symbols;
    (* === hook-pre === *)
    enter Txn.Hook_pre;
    Txn.with_tag txn Txn.Hook (fun () ->
        run_hooks t ~resolve update Ast.Hook_pre_apply);
    (* === capture, quiesce, trampoline === *)
    enter Txn.Capture;
    let guard_ranges =
      List.map (fun r -> (r.r_old_addr, r.r_old_addr + r.r_old_size))
        replacements
    in
    let saved = ref [] in
    let insert () =
      List.iter
        (fun r ->
          let orig = Machine.read_bytes t.m r.r_old_addr jump_size in
          saved := (r.r_old_addr, orig) :: !saved;
          let disp = r.r_new_addr - (r.r_old_addr + jump_size) in
          let buf = Bytes.create jump_size in
          ignore (Isa.encode buf 0 (Isa.Jmp (Int32.of_int disp)) : int);
          Machine.write_bytes t.m r.r_old_addr buf)
        replacements;
      Trace.count "apply.trampolines" (List.length replacements);
      Txn.with_tag txn Txn.Hook (fun () ->
          run_hooks t ~resolve update Ast.Hook_apply;
          (* shadow constructors run the moment the replacement code goes
             live, so no thread observes new code without its side-table
             state (§5.3) *)
          run_named_hooks t ~resolve update.shadow_ctors)
    in
    let veto () =
      match inject with
      | Some i -> Faultinj.veto_quiescence i
      | None -> false
    in
    let rec attempt n spent =
      let (ok : bool), pause_ns =
        Machine.stop_machine t.m (fun () ->
            enter Txn.Quiesce;
            if quiescent t.m guard_ranges && not (veto ()) then begin
              enter Txn.Trampoline;
              insert ();
              true
            end
            else false)
      in
      if ok then pause_ns
      else begin
        let diag () =
          let blockers = blocking_threads t.m guard_ranges in
          List.iter
            (fun (who, bt) ->
              Log.info (fun k ->
                  k "quiescence blocked by %s: %s" who
                    (String.concat " <- " bt)))
            blockers;
          { nq_functions = List.map (fun r -> r.r_fn) replacements;
            nq_attempts = n + 1; nq_steps_run = spent;
            nq_blockers = blockers }
        in
        (* watchdog: the per-apply step budget dominates every other
           retry bound — blowing it is a distinct, non-negotiable abort *)
        let remaining =
          match deadline with Some d -> d - spent | None -> max_int
        in
        if remaining <= 0 then
          raise
            (Fail
               (Deadline_exceeded
                  { de_budget = Option.get deadline; de_diag = diag () }));
        let delay =
          min
            (min (backoff_steps ~retry_base ~retry_cap n)
               (retry_budget - spent))
            remaining
        in
        if n + 1 >= max_attempts || delay <= 0 then
          raise (Fail (Not_quiescent (diag ())))
        else begin
          (* exponential backoff: let the scheduler drain the functions *)
          Trace.count "apply.quiescence_retries" 1;
          Log.debug (fun k ->
              k "quiescence attempt %d failed; backing off %d steps" n
                delay);
          Txn.with_tag txn Txn.Sched (fun () ->
              ignore (Machine.run t.m ~steps:delay : int));
          attempt (n + 1) (spent + delay)
        end
      end
    in
    let pause_ns =
      match engage with
      | None -> attempt 0 0
      | Some f -> (
        let eng =
          { e_machine = t.m;
            e_update = update.update_id;
            e_direction = `Apply;
            e_functions = List.map (fun r -> r.r_fn) replacements;
            e_dispatch =
              List.map (fun r -> (r.r_old_addr, r.r_new_addr)) replacements;
            e_route_migrated = true;
            e_guard_ranges = guard_ranges;
            e_enter = enter;
            e_sched = (fun g -> Txn.with_tag txn Txn.Sched g);
            e_prepare = (fun () -> ());
            e_install = insert }
        in
        try f eng with Engage_failed e -> raise (Fail e))
    in
    (* === commit === *)
    enter Txn.Commit;
    Txn.with_tag txn Txn.Hook (fun () ->
        run_hooks t ~resolve update Ast.Hook_post_apply);
    Trace.observe "apply.pause_ns" (float_of_int pause_ns);
    fun ~journal ~displaced ~displaced_shadows ->
      { update; replacements; saved = List.rev !saved; module_ranges;
        module_image = writes; added_symbols; priv_ranges; journal;
        pause_ns; displaced; displaced_shadows }
  end

(* Shared transaction scaffolding for [apply] and [apply_cumulative]:
   one trace span per transaction step (siblings under the caller's
   span; the current one closes when the next step opens or on exit),
   with any armed fault-injection session notified at step boundaries. *)
let with_apply_txn ~span_prefix ~inject t f =
  let txn = Txn.begin_ t.m in
  let step_span = ref None in
  let close_step () =
    match !step_span with
    | Some sp ->
      Trace.end_span sp;
      step_span := None
    | None -> ()
  in
  let enter s =
    close_step ();
    step_span := Some (Trace.begin_span (span_prefix ^ ".step." ^ Txn.step_name s));
    Txn.enter txn s;
    match inject with
    | None -> ()
    | Some i ->
      (* a Sched_perturb injection runs real kernel code at the step
         boundary; its writes are scheduler progress, not machinery *)
      Txn.with_tag txn Txn.Sched (fun () -> Faultinj.on_step i s)
  in
  let finish_inject () =
    match inject with None -> () | Some i -> Faultinj.disarm i
  in
  f ~txn ~enter ~close_step ~finish_inject

let apply ?(tolerance = Runpre.full_tolerance)
    ?(max_attempts = default_max_attempts)
    ?(retry_base = default_retry_base) ?(retry_cap = default_retry_cap)
    ?(retry_budget = default_retry_budget) ?deadline ?inject ?engage t
    (update : Update.t) =
  Trace.with_span "apply" ~fields:[ ("update", Trace.Str update.update_id) ]
  @@ fun () ->
  with_apply_txn ~span_prefix:"apply" ~inject t
  @@ fun ~txn ~enter ~close_step ~finish_inject ->
  try
    let mk =
      apply_pipeline ~txn ~enter ~tolerance ~max_attempts ~retry_base
        ~retry_cap ~retry_budget ~deadline ~inject ~engage t update
    in
    let journal = Txn.commit txn in
    close_step ();
    finish_inject ();
    let a = mk ~journal ~displaced:[] ~displaced_shadows:[] in
    t.stack <- a :: t.stack;
    Log.info (fun k ->
        k "update %s applied (simulated pause %d ns; %d journal entries)"
          update.update_id a.pause_ns (Txn.journal_entries journal));
    Ok a
  with
  | Fail e ->
    close_step ();
    Txn.rollback txn;
    finish_inject ();
    Log.warn (fun k -> k "apply %s failed: %a" update.update_id pp_error e);
    Error e
  | Machine.Out_of_memory msg ->
    close_step ();
    Txn.rollback txn;
    finish_inject ();
    let e = Out_of_memory msg in
    Log.warn (fun k -> k "apply %s failed: %a" update.update_id pp_error e);
    Error e

(* Unwind the topmost applied update inside [txn] (which the caller
   owns): reverse hooks and shadow destructors run, quiescence is
   checked on the replacement code, the apply journal replays (restoring
   trampoline sites {e and} module bytes), and the update's kallsyms and
   privilege ranges are removed. A cumulative entry additionally hands
   back the stack it displaced — the journal replay just revived those
   trampolines and modules byte-for-byte, so nothing is re-applied, only
   bookkeeping returns. Raises [Fail]. *)
let unwind_top ~txn ~max_attempts ~retry_base ~retry_cap ~retry_budget
    ~deadline ~engage t =
  match t.stack with
  | [] -> raise (Fail (Not_applied "(empty stack)"))
  | top :: rest ->
       let update_id = top.update.Update.update_id in
       (* resolution for reverse hooks: the module is loaded, so its own
          symbols are in kallsyms *)
       let resolve name =
         let raw, _ = Update.split_canonical name in
         let entries = Machine.lookup_name t.m raw in
         (* prefer symbols this update added *)
         match
           List.find_opt
             (fun (s : Image.syminfo) ->
               List.exists
                 (fun (a : Image.syminfo) -> a.addr = s.addr)
                 top.added_symbols)
             entries
         with
         | Some s -> Some s.addr
         | None -> (
           match entries with [ s ] -> Some s.addr | _ -> None)
       in
       Txn.with_tag txn Txn.Hook (fun () ->
           run_hooks t ~resolve top.update Ast.Hook_pre_reverse);
       let guard_ranges =
         List.map (fun r -> (r.r_new_addr, r.r_new_addr + r.r_new_size))
           top.replacements
       in
       let install () =
         (* shadow destructors first (reverse registration order), while
            the replacement code and its side-table state are still
            live; then replay the apply journal — trampolines out first,
            then module bytes — so the image returns to its pre-apply
            contents byte for byte *)
         Txn.with_tag txn Txn.Hook (fun () ->
             run_named_hooks t ~resolve
               (List.rev top.update.Update.shadow_dtors));
         Txn.replay top.journal t.m;
         Txn.with_tag txn Txn.Hook (fun () ->
             run_hooks t ~resolve top.update Ast.Hook_reverse)
       in
       let rec attempt n spent =
         let ok, _pause =
           Machine.stop_machine t.m (fun () ->
               if quiescent t.m guard_ranges then begin
                 install ();
                 true
               end
               else false)
         in
         if ok then ()
         else begin
           let diag () =
             { nq_functions =
                 List.map (fun r -> r.r_fn) top.replacements;
               nq_attempts = n + 1; nq_steps_run = spent;
               nq_blockers = blocking_threads t.m guard_ranges }
           in
           let remaining =
             match deadline with Some d -> d - spent | None -> max_int
           in
           if remaining <= 0 then
             raise
               (Fail
                  (Deadline_exceeded
                     { de_budget = Option.get deadline;
                       de_diag = diag () }));
           let delay =
             min
               (min (backoff_steps ~retry_base ~retry_cap n)
                  (retry_budget - spent))
               remaining
           in
           if n + 1 >= max_attempts || delay <= 0 then
             raise (Fail (Not_quiescent (diag ())))
           else begin
             Trace.count "undo.quiescence_retries" 1;
             Txn.with_tag txn Txn.Sched (fun () ->
                 ignore (Machine.run t.m ~steps:delay : int));
             attempt (n + 1) (spent + delay)
           end
         end
       in
       (match engage with
        | None -> attempt 0 0
        | Some f ->
          let eng =
            { e_machine = t.m;
              e_update = update_id;
              e_direction = `Undo;
              e_functions = List.map (fun r -> r.r_fn) top.replacements;
              e_dispatch =
                List.map (fun r -> (r.r_old_addr, r.r_new_addr))
                  top.replacements;
              (* reverse transition: the entry regains its original
                 bytes, so unmigrated threads must be routed to the
                 still-live new code while migrated ones fall through *)
              e_route_migrated = false;
              e_guard_ranges = guard_ranges;
              e_enter = (fun s -> Txn.enter txn s);
              e_sched = (fun g -> Txn.with_tag txn Txn.Sched g);
              e_prepare =
                (fun () ->
                  List.iter
                    (fun (addr, bytes) -> Machine.write_bytes t.m addr bytes)
                    top.saved);
              e_install = install }
          in
          (try ignore (f eng : int)
           with Engage_failed e -> raise (Fail e)));
       Txn.with_tag txn Txn.Hook (fun () ->
           run_hooks t ~resolve top.update Ast.Hook_post_reverse);
       Machine.remove_kallsyms t.m (fun s ->
           List.exists
             (fun (a : Image.syminfo) ->
               a.addr = s.addr && String.equal a.name s.name)
             top.added_symbols);
       List.iter (Machine.remove_privileged_range t.m) top.priv_ranges;
       (* a cumulative entry returns the stack it displaced: the journal
          replay restored their trampolines and modules, so their
          kallsyms and privilege ranges need republishing, and their
          shadow bindings — detached by the displaced updates' own
          destructors during the collapse — re-attached. The shadow
          memory itself was never replayed away (module memory is leaked
          on undo), so the revived bindings still hold the collapse-time
          values; runtime value changes made while the cumulative
          reigned are its constructors' business, not ours. *)
       List.iter
         (fun d ->
           Machine.add_kallsyms t.m d.added_symbols;
           List.iter (Machine.add_privileged_range t.m) d.priv_ranges)
         (List.rev top.displaced);
       List.iter
         (fun ((obj, key), addr) ->
           Machine.shadow_reattach t.m ~obj ~key ~addr)
         top.displaced_shadows;
       t.stack <- top.displaced @ rest

let undo ?(max_attempts = default_max_attempts)
    ?(retry_base = default_retry_base) ?(retry_cap = default_retry_cap)
    ?(retry_budget = default_retry_budget) ?deadline ?engage t update_id =
  Trace.with_span "undo" ~fields:[ ("update", Trace.Str update_id) ]
  @@ fun () ->
  (* undo is transactional too: a faulted reverse hook or quiescence
     failure leaves the update applied and the kernel untouched *)
  let txn = Txn.begin_ t.m in
  try
    (match Machine.transition_update t.m with
     | Some id ->
       raise (Fail (Integrity ("a transition is already in flight for " ^ id)))
     | None -> ());
    (match t.stack with
     | [] -> raise (Fail (Not_applied update_id))
     | top :: rest ->
       if not (String.equal top.update.Update.update_id update_id) then
         if
           List.exists
             (fun a -> String.equal a.update.Update.update_id update_id)
             rest
         then raise (Fail (Not_topmost update_id))
         else raise (Fail (Not_applied update_id)));
    unwind_top ~txn ~max_attempts ~retry_base ~retry_cap ~retry_budget
      ~deadline ~engage t;
    Txn.discard txn;
    Ok ()
  with
  | Fail e ->
    Txn.rollback txn;
    Error e
  | Machine.Out_of_memory msg ->
    Txn.rollback txn;
    Error (Out_of_memory msg)

(* --- atomic replace (§5 cumulative updates) ---

   One transaction: the whole applied stack unwinds (newest first, each
   entry's journal replayed so its trampolines and module bytes vanish
   byte-for-byte) and the cumulative replacement set installs against
   the then-pristine kernel. A fault at {e any} step — a reverse hook, a
   quiescence failure mid-unwind, a run-pre mismatch or injected fault
   during the install — rolls the single journal back, leaving the
   stacked configuration byte-identical to before the collapse. The
   committed result is exactly what undoing every update and applying
   the cumulative one-by-one would have produced (the sweep asserts
   footprint equality against that twin), but with no intermediate state
   ever observable. *)
let apply_cumulative ?(tolerance = Runpre.full_tolerance)
    ?(max_attempts = default_max_attempts)
    ?(retry_base = default_retry_base) ?(retry_cap = default_retry_cap)
    ?(retry_budget = default_retry_budget) ?deadline ?inject ?engage t
    (update : Update.t) =
  Trace.with_span "apply_cumulative"
    ~fields:[ ("update", Trace.Str update.update_id) ]
  @@ fun () ->
  with_apply_txn ~span_prefix:"apply_cumulative" ~inject t
  @@ fun ~txn ~enter ~close_step ~finish_inject ->
  let saved_stack = t.stack in
  try
    if not (Update.is_cumulative update) then
      raise
        (Fail
           (Integrity
              (update.update_id
              ^ " is not cumulative (supersedes nothing); use apply")));
    (match Machine.transition_update t.m with
     | Some id ->
       raise (Fail (Integrity ("a transition is already in flight for " ^ id)))
     | None -> ());
    let in_supersedes a =
      List.mem a.update.Update.update_id update.supersedes
    in
    (* the superseded updates must form the contiguous top of the stack
       (they are what this cumulative replaces; anything deeper is part
       of the base it was built against and stays untouched). A fresh
       machine with an empty stack qualifies trivially — the cumulative
       update then simply installs. *)
    let rec split_top acc = function
      | a :: rest when in_supersedes a -> split_top (a :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let to_unwind, remaining = split_top [] t.stack in
    if List.exists in_supersedes remaining then
      raise
        (Fail
           (Integrity
              (Printf.sprintf
                 "cumulative %s supersedes updates buried beneath ones it \
                  does not supersede (stack: [%s])"
                 update.update_id
                 (String.concat "; "
                    (List.rev_map
                       (fun a -> a.update.Update.update_id)
                       t.stack)))));
    (* the superseded segment must appear in chain order *)
    let rec subseq xs ys =
      match (xs, ys) with
      | [], _ -> true
      | _ :: _, [] -> false
      | x :: xs', y :: ys' ->
        if String.equal x y then subseq xs' ys' else subseq xs ys'
    in
    if
      not
        (subseq
           (List.rev_map (fun a -> a.update.Update.update_id) to_unwind)
           update.supersedes)
    then
      raise
        (Fail
           (Integrity
              (Printf.sprintf
                 "cumulative %s supersedes [%s] but the applied stack \
                  holds them in a different order"
                 update.update_id
                 (String.concat "; " update.supersedes))));
    Log.info (fun k ->
        k "atomic replace: %s superseding %d stacked update(s)"
          update.update_id (List.length to_unwind));
    (* the shadow table as the collapse finds it: the unwind below runs
       the displaced updates' destructors, and undoing this cumulative
       must revive the bindings they detach *)
    let pre_shadows = Machine.shadow_bindings t.m in
    (* unwind the superseded segment, newest first; a displaced
       cumulative hands its own displaced stack back mid-loop, which —
       being superseded too (publishers flatten) — this loop then
       unwinds as well *)
    while
      match t.stack with a :: _ -> in_supersedes a | [] -> false
    do
      unwind_top ~txn ~max_attempts ~retry_base ~retry_cap ~retry_budget
        ~deadline ~engage t
    done;
    let mk =
      apply_pipeline ~txn ~enter ~tolerance ~max_attempts ~retry_base
        ~retry_cap ~retry_budget ~deadline ~inject ~engage t update
    in
    let journal = Txn.commit txn in
    close_step ();
    finish_inject ();
    (* [displaced] is the pre-collapse top segment as it stood: undoing
       the cumulative update replays this whole journal, which revives
       exactly that state *)
    let a = mk ~journal ~displaced:to_unwind ~displaced_shadows:pre_shadows in
    t.stack <- a :: remaining;
    Trace.count "apply.cumulative" 1;
    Log.info (fun k ->
        k "cumulative %s applied atomically (%d journal entries)"
          update.update_id (Txn.journal_entries journal));
    Ok a
  with
  | Fail e ->
    close_step ();
    Txn.rollback txn;
    finish_inject ();
    t.stack <- saved_stack;
    Log.warn (fun k ->
        k "atomic replace %s failed: %a" update.update_id pp_error e);
    Error e
  | Machine.Out_of_memory msg ->
    close_step ();
    Txn.rollback txn;
    finish_inject ();
    t.stack <- saved_stack;
    let e = Out_of_memory msg in
    Log.warn (fun k ->
        k "atomic replace %s failed: %a" update.update_id pp_error e);
    Error e

(* [verify] audits the applied stack: the topmost replacement of every
   function owns the jump at the code location it patched, and module
   bytes are unmodified. Note sections and bss (zero-filled at load) can
   legitimately change at runtime (new static data is mutable!), so only
   text sections are byte-compared. *)
let verify t =
  let check_replacement (r : replacement) =
    let b = Machine.read_bytes t.m r.r_old_addr jump_size in
    match Isa.decode_bytes b 0 with
    | Isa.Jmp disp, len when r.r_old_addr + len + Int32.to_int disp
                             = r.r_new_addr ->
      Ok ()
    | insn, _ ->
      Error
        (Integrity
           (Printf.sprintf "%s: expected jmp to %#x at %#x, found %s"
              r.r_fn r.r_new_addr r.r_old_addr (Isa.insn_to_string insn)))
    | exception Isa.Decode_error _ ->
      Error
        (Integrity
           (Printf.sprintf "%s: undecodable bytes at %#x" r.r_fn
              r.r_old_addr))
  in
  (* windows legitimately rewritten after load: every trampoline site of
     every applied update (a later update may redirect a replacement,
     §5.4, putting its jump at the replacement's entry). Sorted starts,
     consulted only where a byte differs, keep the audit linear in the
     module bytes however deep the stack. *)
  let exempt =
    Array.of_list
      (List.concat_map
         (fun a -> List.map (fun r -> r.r_old_addr) a.replacements)
         t.stack)
  in
  Array.sort Int.compare exempt;
  (* every window is [jump_size] wide, so [off] is exempt iff the last
     window starting at or before it reaches it *)
  let exempted off =
    let rec count_le lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if exempt.(mid) <= off then count_le (mid + 1) hi else count_le lo mid
    in
    let n = count_le 0 (Array.length exempt) in
    n > 0 && off < exempt.(n - 1) + jump_size
  in
  let check_module (a : applied) =
    List.fold_left
      (fun acc (addr, bytes) ->
        Result.bind acc (fun () ->
            (* compare only ranges that are replacement text *)
            let is_text =
              List.exists
                (fun r -> r.r_new_addr >= addr
                          && r.r_new_addr < addr + Bytes.length bytes)
                a.replacements
            in
            if not is_text then Ok ()
            else begin
              let n = Bytes.length bytes in
              let current = Machine.read_bytes t.m addr n in
              let rec first_damage i =
                if i >= n then None
                else if
                  Bytes.get current i <> Bytes.get bytes i
                  && not (exempted (addr + i))
                then Some (addr + i)
                else first_damage (i + 1)
              in
              match
                if Bytes.equal current bytes then None else first_damage 0
              with
              | None -> Ok ()
              | Some at ->
                Error
                  (Integrity
                     (Printf.sprintf
                        "update %s: replacement code at %#x was modified"
                        a.update.Update.update_id at))
            end))
      (Ok ()) a.module_image
  in
  (* only the topmost redirect of each function owns its entry bytes *)
  let seen = Hashtbl.create 16 in
  List.fold_left
    (fun acc a ->
      Result.bind acc (fun () ->
          let owned =
            List.filter
              (fun r ->
                let key = (r.r_unit, r.r_fn) in
                if Hashtbl.mem seen key then false
                else begin
                  Hashtbl.replace seen key true;
                  true
                end)
              a.replacements
          in
          List.fold_left
            (fun acc r -> Result.bind acc (fun () -> check_replacement r))
            (check_module a) owned))
    (Ok ()) t.stack

(* [footprint] is the canonical description of what the applied stack
   planted in the machine: per update (oldest first) the live bytes at
   every patched entry, the replacement {e text} read back from memory
   (data sections are mutable at runtime and excluded), and the symbols
   published to kallsyms. Two machines that applied the same updates —
   by any engagement — must agree byte for byte, regardless of what
   their schedulers did meanwhile. *)
let footprint t =
  let buf = Buffer.create 256 in
  let hex b =
    Bytes.iter
      (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c)))
      b
  in
  List.iter
    (fun a ->
      let in_text off =
        List.exists (fun (lo, hi) -> off >= lo && off < hi) a.priv_ranges
      in
      Buffer.add_string buf (a.update.Update.update_id ^ "{");
      List.iter
        (fun r ->
          Buffer.add_string buf (Printf.sprintf "%s@%#x:" r.r_fn r.r_old_addr);
          hex (Machine.read_bytes t.m r.r_old_addr jump_size);
          Buffer.add_char buf ';')
        a.replacements;
      List.iter
        (fun (addr, bytes) ->
          let current = Machine.read_bytes t.m addr (Bytes.length bytes) in
          Buffer.add_string buf (Printf.sprintf "%#x:" addr);
          Bytes.iteri
            (fun i c ->
              if in_text (addr + i) then
                Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c)))
            current;
          Buffer.add_char buf ';')
        a.module_image;
      List.iter
        (fun (s : Image.syminfo) ->
          Buffer.add_string buf (Printf.sprintf "%s=%#x;" s.name s.addr))
        a.added_symbols;
      Buffer.add_string buf "}")
    (List.rev t.stack);
  Buffer.contents buf
