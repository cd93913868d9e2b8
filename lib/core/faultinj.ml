module Machine = Kernel.Machine

type kind =
  | Oom
  | Unresolved
  | Corrupt_reloc
  | Hook_fault
  | Forced_not_quiescent
  | Sched_perturb

let kind_name = function
  | Oom -> "oom"
  | Unresolved -> "unresolved"
  | Corrupt_reloc -> "corrupt-reloc"
  | Hook_fault -> "hook-fault"
  | Forced_not_quiescent -> "not-quiescent"
  | Sched_perturb -> "sched-perturb"

let kind_for_step = function
  | Txn.Allocate -> Oom
  | Txn.Link -> Unresolved
  | Txn.Relocate -> Corrupt_reloc
  | Txn.Hook_pre -> Hook_fault
  | Txn.Capture -> Sched_perturb
  (* the transition step only runs under a per-thread engagement; its
     canonical perturbation is scheduler noise, which must be benign *)
  | Txn.Transition -> Sched_perturb
  | Txn.Quiesce -> Forced_not_quiescent
  | Txn.Trampoline -> Hook_fault
  | Txn.Commit -> Hook_fault

let expect_abort = function Sched_perturb -> false | _ -> true

type plan = {
  step : Txn.step;
  seed : int;
}

let pp_plan ppf p =
  Format.fprintf ppf "%s@%s (seed %d)" (kind_name (kind_for_step p.step))
    (Txn.step_name p.step) p.seed

type session = {
  m : Machine.t;
  p : plan;
  mutable active : bool;
  mutable fired : bool;
}

let make m p = { m; p; active = false; fired = false }
let plan s = s.p
let fired s = s.fired

let disarm s =
  if s.active then begin
    s.active <- false;
    Machine.clear_injectors s.m
  end

let arm s =
  s.active <- true;
  match kind_for_step s.p.step with
  | Oom ->
    Machine.set_alloc_injector s.m
      (Some
         (fun ~size:_ ~align:_ ->
           if s.fired then false
           else begin
             s.fired <- true;
             true
           end))
  | Corrupt_reloc ->
    Machine.set_write_injector s.m
      (Some
         (fun _addr bytes ->
           if s.fired || Bytes.length bytes = 0 then bytes
           else begin
             s.fired <- true;
             let b = Bytes.copy bytes in
             let i = s.p.seed mod Bytes.length b in
             let bit = s.p.seed / 7 mod 8 in
             Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor (1 lsl bit));
             b
           end))
  | Hook_fault ->
    Machine.set_call_injector s.m
      (Some
         (fun addr ->
           if s.fired then None
           else begin
             s.fired <- true;
             Some (Machine.Memory_violation addr)
           end))
  | Sched_perturb ->
    s.fired <- true;
    ignore (Machine.run s.m ~steps:(137 + (s.p.seed mod 1863)) : int)
  | Unresolved | Forced_not_quiescent ->
    (* consulted by the pipeline itself, nothing to arm in the machine *)
    ()

let on_step s step =
  if step = s.p.step then begin
    if not s.active then arm s
  end
  else disarm s

let veto_quiescence s =
  if s.active && kind_for_step s.p.step = Forced_not_quiescent then begin
    s.fired <- true;
    true
  end
  else false

let sabotage_resolve s resolve name =
  if s.active && kind_for_step s.p.step = Unresolved && not s.fired then begin
    s.fired <- true;
    None
  end
  else resolve name
