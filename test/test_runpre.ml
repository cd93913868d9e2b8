(* Focused run-pre matching tests on hand-crafted object code: each test
   builds a pre text section (with relocation holes) and a run memory
   image, then checks exactly what the matcher infers, absorbs, or
   rejects. Complements the integration tests, which exercise the same
   code through full kernel builds. *)

module Isa = Vmisa.Isa
module Reloc = Objfile.Reloc
module Symbol = Objfile.Symbol
module Section = Objfile.Section
module Frag = Asm.Frag
module Runpre = Ksplice.Runpre

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f

(* build a one-function helper object named [fname] from frag emitters *)
let helper ?(unit_name = "u.c") ?(fname = "f") ?(binding = Symbol.Global)
    emit =
  let frag = Frag.create () in
  emit frag;
  let img = Frag.assemble frag ~text:true in
  let section =
    Section.make ~name:(".text." ^ fname) ~kind:Section.Text ~align:4
      img.data img.relocs
  in
  let symbols =
    [ Symbol.make ~binding ~size:(Bytes.length img.data) ~kind:`Func
        ~name:fname
        (Some { Symbol.section = ".text." ^ fname; value = 0 }) ]
  in
  Objfile.make ~unit_name ~sections:[ section ] ~symbols

(* lay out run memory from frag emitters at [base] within a 64k image *)
let run_memory ~base emit =
  let frag = Frag.create () in
  emit frag;
  let img = Frag.assemble frag ~text:true in
  let mem = Bytes.make 0x10000 '\xCC' in
  Bytes.blit img.data 0 mem base (Bytes.length img.data);
  (mem, img)

let read_of mem pos =
  if pos < 0 || pos >= Bytes.length mem then
    raise (Invalid_argument "read out of range")
  else Bytes.get_uint8 mem pos

let run_match ?(candidates = fun _ -> []) ?(already = fun _ -> None)
    ?(inference = Runpre.create_inference ()) mem h =
  ( Runpre.match_helper ~read_run:(read_of mem) ~candidates ~already
      ~inference h,
    inference )

let match_one ?candidates ?already ?inference mem h =
  let r, inference = run_match ?candidates ?already ?inference mem h in
  (Fixture.ok "run-pre" Runpre.pp_failure r, inference)

(* the failure a helper that must not match is refused with *)
let refusal ?candidates mem h =
  match fst (run_match ?candidates mem h) with
  | Ok _ -> Alcotest.fail "expected a run-pre failure"
  | Error f -> f

let mismatch ?candidates mem h =
  match refusal ?candidates mem h with
  | Runpre.Mismatch m -> m
  | f -> Alcotest.failf "expected a mismatch, got %a" Runpre.pp_failure f

let base = 0x2000

let test_exact_match () =
  let body f =
    Frag.insn f (Isa.Push Isa.R6);
    Frag.insn f (Isa.Mov_rr (Isa.R6, Isa.SP));
    Frag.insn f (Isa.Mov_ri (Isa.R0, 7l));
    Frag.insn f Isa.Ret
  in
  let h = helper body in
  let mem, _ = run_memory ~base body in
  let anchors, _ = match_one mem h ~candidates:(fun _ -> [ base ]) in
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "anchor found" [ ("f", base) ] anchors

let test_abs32_inference () =
  (* pre has a hole for symbol "counter"; the run bytes carry the
     relocated address, which must be recovered exactly (Figure 2) *)
  let pre f =
    Frag.insn_reloc f (Isa.Load_abs (Isa.W32, Isa.R0, 0l)) Reloc.Abs32
      "counter" 0l;
    Frag.insn f Isa.Ret
  in
  let run f =
    Frag.insn f (Isa.Load_abs (Isa.W32, Isa.R0, 0x4a30l));
    Frag.insn f Isa.Ret
  in
  let h = helper pre in
  let mem, _ = run_memory ~base run in
  let _, inference = match_one mem h ~candidates:(fun _ -> [ base ]) in
  check (Alcotest.option Alcotest.int) "counter inferred" (Some 0x4a30)
    (Hashtbl.find_opt inference "counter")

let test_local_symbol_canonicalised () =
  (* a hole referencing a local symbol is inferred under name@unit *)
  let pre f =
    Frag.insn_reloc f (Isa.Mov_ri (Isa.R1, 0l)) Reloc.Abs32 "debug" 0l;
    Frag.insn f Isa.Ret
  in
  let run f =
    Frag.insn f (Isa.Mov_ri (Isa.R1, 0x1234l));
    Frag.insn f Isa.Ret
  in
  let h = helper pre ~unit_name:"dst_ca.c" in
  (* declare debug as a defined local of the helper unit *)
  let h =
    { h with
      symbols =
        h.symbols
        @ [ Symbol.make ~binding:Symbol.Local ~kind:`Object ~name:"debug"
              (Some { Symbol.section = ".text.f"; value = 0 }) ] }
  in
  let mem, _ = run_memory ~base run in
  let _, inference = match_one mem h ~candidates:(fun _ -> [ base ]) in
  check (Alcotest.option Alcotest.int) "canonical local name" (Some 0x1234)
    (Hashtbl.find_opt inference "debug@dst_ca.c")

let test_call_reloc_inference () =
  (* a pc-relative call hole: symbol value = run call target *)
  let pre f =
    Frag.jump_reloc f Isa.Ccall "helper_fn";
    Frag.insn f Isa.Ret
  in
  let run f =
    (* call to absolute 0x3000: disp = 0x3000 - (base + 5) *)
    Frag.insn f (Isa.Call (Int32.of_int (0x3000 - (base + 5))));
    Frag.insn f Isa.Ret
  in
  let h = helper pre in
  let mem, _ = run_memory ~base run in
  let _, inference = match_one mem h ~candidates:(fun _ -> [ base ]) in
  check (Alcotest.option Alcotest.int) "call target inferred" (Some 0x3000)
    (Hashtbl.find_opt inference "helper_fn")

let test_nop_skipping_run_side () =
  (* the run build aligned a loop head with no-ops absent from pre *)
  let pre f =
    Frag.insn f (Isa.Cmpi (Isa.R0, 0l));
    Frag.label f "top";
    Frag.insn f (Isa.Addi (Isa.R0, -1l));
    Frag.jump f (Isa.Cjcc Isa.Ne) "top";
    Frag.insn f Isa.Ret
  in
  let run f =
    Frag.insn f (Isa.Cmpi (Isa.R0, 0l));
    Frag.align f 8;
    Frag.label f "top";
    Frag.insn f (Isa.Addi (Isa.R0, -1l));
    Frag.jump f (Isa.Cjcc Isa.Ne) "top";
    Frag.insn f Isa.Ret
  in
  let h = helper pre in
  let mem, _ = run_memory ~base run in
  let anchors, _ = match_one mem h ~candidates:(fun _ -> [ base ]) in
  check Alcotest.int "matched despite alignment nops" 1 (List.length anchors)

let test_nop_skipping_pre_side () =
  let pre f =
    Frag.insn f (Isa.Mov_ri (Isa.R0, 1l));
    Frag.insn f (Isa.Nop 3);
    Frag.insn f (Isa.Nop 2);
    Frag.insn f Isa.Ret
  in
  let run f =
    Frag.insn f (Isa.Mov_ri (Isa.R0, 1l));
    Frag.insn f Isa.Ret
  in
  let h = helper pre in
  let mem, _ = run_memory ~base run in
  let anchors, _ = match_one mem h ~candidates:(fun _ -> [ base ]) in
  check Alcotest.int "matched despite pre nops" 1 (List.length anchors)

let test_short_long_jump_equivalence () =
  (* pre uses a long backward jump where run relaxed it to short *)
  let pre f =
    Frag.label f "top";
    Frag.insn f (Isa.Addi (Isa.R0, 1l));
    (* force long: manual long jmp back to top (disp = -(5+6)) *)
    Frag.insn f (Isa.Jmp (-11l));
    Frag.insn f Isa.Ret
  in
  let run f =
    Frag.label f "top";
    Frag.insn f (Isa.Addi (Isa.R0, 1l));
    Frag.insn f (Isa.Jmp_s (-8));
    Frag.insn f Isa.Ret
  in
  let h = helper pre in
  let mem, _ = run_memory ~base run in
  let anchors, _ = match_one mem h ~candidates:(fun _ -> [ base ]) in
  check Alcotest.int "short/long equivalent" 1 (List.length anchors)

let test_jump_target_divergence_rejected () =
  (* both have a conditional jump, but to different statements *)
  let pre f =
    Frag.jump f (Isa.Cjcc Isa.Eq) "a";
    Frag.insn f (Isa.Addi (Isa.R0, 1l));
    Frag.label f "a";
    Frag.insn f (Isa.Addi (Isa.R0, 2l));
    Frag.label f "b";
    Frag.insn f Isa.Ret
  in
  let run f =
    Frag.jump f (Isa.Cjcc Isa.Eq) "b";
    Frag.insn f (Isa.Addi (Isa.R0, 1l));
    Frag.label f "a";
    Frag.insn f (Isa.Addi (Isa.R0, 2l));
    Frag.label f "b";
    Frag.insn f Isa.Ret
  in
  let h = helper pre in
  let mem, _ = run_memory ~base run in
  let m = mismatch mem h ~candidates:(fun _ -> [ base ]) in
  Alcotest.(check bool)
    "reason mentions target" true
    (String.length m.reason > 0)

let test_instruction_divergence_rejected () =
  let pre f =
    Frag.insn f (Isa.Addi (Isa.R0, 1l));
    Frag.insn f Isa.Ret
  in
  let run f =
    Frag.insn f (Isa.Addi (Isa.R0, 2l));
    Frag.insn f Isa.Ret
  in
  let h = helper pre in
  let mem, _ = run_memory ~base run in
  ignore (mismatch mem h ~candidates:(fun _ -> [ base ]) : Runpre.mismatch)

let test_inference_conflict_rejected () =
  (* the same symbol inferred with two different values must abort *)
  let pre f =
    Frag.insn_reloc f (Isa.Load_abs (Isa.W32, Isa.R0, 0l)) Reloc.Abs32 "g" 0l;
    Frag.insn_reloc f (Isa.Load_abs (Isa.W32, Isa.R1, 0l)) Reloc.Abs32 "g" 0l;
    Frag.insn f Isa.Ret
  in
  let run f =
    Frag.insn f (Isa.Load_abs (Isa.W32, Isa.R0, 0x100l));
    Frag.insn f (Isa.Load_abs (Isa.W32, Isa.R1, 0x200l));
    Frag.insn f Isa.Ret
  in
  let h = helper pre in
  let mem, _ = run_memory ~base run in
  let m = mismatch mem h ~candidates:(fun _ -> [ base ]) in
  Alcotest.(check bool) "conflict reported" true (String.length m.reason > 0)

let test_candidate_trial_selects_matching () =
  (* two candidate addresses with different code: the matching one wins *)
  let code_a f =
    Frag.insn f (Isa.Mov_ri (Isa.R0, 1l));
    Frag.insn f Isa.Ret
  in
  let code_b f =
    Frag.insn f (Isa.Mov_ri (Isa.R0, 2l));
    Frag.insn f Isa.Ret
  in
  let mem = Bytes.make 0x10000 '\xCC' in
  let place at emit =
    let frag = Frag.create () in
    emit frag;
    let img = Frag.assemble frag ~text:true in
    Bytes.blit img.data 0 mem at (Bytes.length img.data)
  in
  place 0x2000 code_a;
  place 0x3000 code_b;
  let h = helper code_b in
  let anchors, _ =
    match_one mem h ~candidates:(fun _ -> [ 0x2000; 0x3000 ])
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "selected the matching candidate"
    [ ("f", 0x3000) ]
    anchors

let test_identical_candidates_ambiguous () =
  (* two identical copies: genuinely ambiguous, must be refused *)
  let code f =
    Frag.insn f (Isa.Mov_ri (Isa.R0, 9l));
    Frag.insn f Isa.Ret
  in
  let mem = Bytes.make 0x10000 '\xCC' in
  let place at =
    let frag = Frag.create () in
    code frag;
    let img = Frag.assemble frag ~text:true in
    Bytes.blit img.data 0 mem at (Bytes.length img.data)
  in
  place 0x2000;
  place 0x3000;
  let h = helper code in
  match refusal mem h ~candidates:(fun _ -> [ 0x2000; 0x3000 ]) with
  | Runpre.Ambiguous { matches = 2; _ } -> ()
  | f -> Alcotest.failf "expected Ambiguous(2), got %a" Runpre.pp_failure f

let test_no_candidates () =
  let code f = Frag.insn f Isa.Ret in
  let mem = Bytes.make 0x1000 '\x00' in
  let h = helper code in
  match refusal mem h ~candidates:(fun _ -> []) with
  | Runpre.Ambiguous { matches = 0; _ } -> ()
  | f -> Alcotest.failf "expected Ambiguous(0), got %a" Runpre.pp_failure f

let test_already_redirected () =
  (* stacked updates: the code lives at the replacement address, but the
     symbol value stays the original entry *)
  let code f =
    Frag.insn f (Isa.Mov_ri (Isa.R0, 5l));
    Frag.insn f Isa.Ret
  in
  let mem, _ = run_memory ~base:0x4000 code in
  let h = helper code in
  let anchors, inference =
    match_one mem h
      ~candidates:(fun _ -> [ 0x9999 ]) (* would not match *)
      ~already:(fun (_, fn) ->
        if fn = "f" then Some (0x4000, 0x2000) else None)
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "anchored at replacement code"
    [ ("f", 0x4000) ]
    anchors;
  check (Alcotest.option Alcotest.int)
    "symbol value is the original entry" (Some 0x2000)
    (Hashtbl.find_opt inference "f")

let test_inference_feeds_candidates () =
  (* section order: a caller whose hole names a static callee is matched
     first, and the callee is then located by the inferred address even
     with misleading kallsyms candidates *)
  let callee_body f =
    Frag.insn f (Isa.Mov_ri (Isa.R0, 3l));
    Frag.insn f Isa.Ret
  in
  let caller_pre f =
    Frag.jump_reloc f Isa.Ccall "hidden";
    Frag.insn f Isa.Ret
  in
  let mem = Bytes.make 0x10000 '\xCC' in
  let place at emit =
    let frag = Frag.create () in
    emit frag;
    let img = Frag.assemble frag ~text:true in
    Bytes.blit img.data 0 mem at (Bytes.length img.data);
    Bytes.length img.data
  in
  let callee_at = 0x5000 in
  ignore (place callee_at callee_body);
  (* run caller calls the real callee *)
  let caller_at = 0x2000 in
  let frag = Frag.create () in
  Frag.insn frag (Isa.Call (Int32.of_int (callee_at - (caller_at + 5))));
  Frag.insn frag Isa.Ret;
  let img = Frag.assemble frag ~text:true in
  Bytes.blit img.data 0 mem caller_at (Bytes.length img.data);
  (* decoy copy of the callee body at another address *)
  ignore (place 0x7000 callee_body);
  (* helper with caller first, then the (locally bound) callee *)
  let build_section name fname emit =
    let frag = Frag.create () in
    emit frag;
    let i = Frag.assemble frag ~text:true in
    ( Section.make ~name ~kind:Section.Text ~align:4 i.data i.relocs,
      Symbol.make ~binding:Symbol.Local ~size:(Bytes.length i.data)
        ~kind:`Func ~name:fname
        (Some { Symbol.section = name; value = 0 }) )
  in
  let s1, sym1 = build_section ".text.caller" "caller" caller_pre in
  let s2, sym2 = build_section ".text.hidden" "hidden" callee_body in
  let h =
    Objfile.make ~unit_name:"u.c" ~sections:[ s1; s2 ]
      ~symbols:[ sym1; sym2 ]
  in
  let anchors, _ =
    match_one mem h ~candidates:(fun name ->
        if name = "caller" then [ caller_at ]
        else [ 0x7000; callee_at ] (* ambiguous without inference *))
  in
  check (Alcotest.option Alcotest.int) "callee located by inference"
    (Some callee_at)
    (List.assoc_opt "hidden@u.c" anchors)

let test_tolerance_ablation () =
  (* run has alignment nops pre lacks: the full matcher absorbs them, a
     matcher without no-op recognition must reject *)
  let pre f =
    Frag.insn f (Isa.Cmpi (Isa.R0, 0l));
    Frag.label f "top";
    Frag.insn f (Isa.Addi (Isa.R0, -1l));
    Frag.jump f (Isa.Cjcc Isa.Ne) "top";
    Frag.insn f Isa.Ret
  in
  let run f =
    Frag.insn f (Isa.Cmpi (Isa.R0, 0l));
    Frag.align f 8;
    Frag.label f "top";
    Frag.insn f (Isa.Addi (Isa.R0, -1l));
    Frag.jump f (Isa.Cjcc Isa.Ne) "top";
    Frag.insn f Isa.Ret
  in
  let h = helper pre in
  let mem, _ = run_memory ~base run in
  let go tolerance =
    Runpre.match_helper ~tolerance ~read_run:(read_of mem)
      ~candidates:(fun _ -> [ base ])
      ~already:(fun _ -> None)
      ~inference:(Runpre.create_inference ())
      h
  in
  Alcotest.(check int) "full matcher succeeds" 1
    (List.length
       (Fixture.ok "run-pre" Runpre.pp_failure (go Runpre.full_tolerance)));
  Alcotest.(check bool) "naive matcher rejects" true
    (Result.is_error (go { Runpre.full_tolerance with skip_nops = false }))

let test_tolerance_strict_jump () =
  (* a branch spans alignment padding: displacements differ, targets
     correspond — full matcher accepts, strict-jump matcher rejects *)
  let code ~aligned f =
    Frag.insn f (Isa.Cmpi (Isa.R0, 0l));
    Frag.insn f (Isa.Push Isa.R4);
    Frag.jump f (Isa.Cjcc Isa.Eq) "end";
    if aligned then Frag.align f 16;
    Frag.label f "top";
    Frag.insn f (Isa.Addi (Isa.R0, -1l));
    Frag.jump f (Isa.Cjcc Isa.Ne) "top";
    Frag.label f "end";
    Frag.insn f Isa.Ret
  in
  let h = helper (code ~aligned:false) in
  let mem, _ = run_memory ~base (code ~aligned:true) in
  let go tolerance =
    Runpre.match_helper ~tolerance ~read_run:(read_of mem)
      ~candidates:(fun _ -> [ base ])
      ~already:(fun _ -> None)
      ~inference:(Runpre.create_inference ())
      h
  in
  Alcotest.(check int) "full matcher succeeds" 1
    (List.length
       (Fixture.ok "run-pre" Runpre.pp_failure (go Runpre.full_tolerance)));
  Alcotest.(check bool) "strict-jump matcher rejects" true
    (Result.is_error
       (go { Runpre.full_tolerance with jump_equivalence = false }))

let suite =
  [
    ( "runpre",
      [
        t "exact match" test_exact_match;
        t "abs32 inference" test_abs32_inference;
        t "local symbol canonicalised" test_local_symbol_canonicalised;
        t "call reloc inference" test_call_reloc_inference;
        t "nop skipping (run side)" test_nop_skipping_run_side;
        t "nop skipping (pre side)" test_nop_skipping_pre_side;
        t "short/long jump equivalence" test_short_long_jump_equivalence;
        t "jump target divergence rejected"
          test_jump_target_divergence_rejected;
        t "instruction divergence rejected"
          test_instruction_divergence_rejected;
        t "inference conflict rejected" test_inference_conflict_rejected;
        t "candidate trial selects matching"
          test_candidate_trial_selects_matching;
        t "identical candidates ambiguous"
          test_identical_candidates_ambiguous;
        t "no candidates" test_no_candidates;
        t "already-redirected anchoring" test_already_redirected;
        t "inference feeds candidates" test_inference_feeds_candidates;
        t "ablation: no-op recognition" test_tolerance_ablation;
        t "ablation: jump equivalence" test_tolerance_strict_jump;
      ] );
  ]
