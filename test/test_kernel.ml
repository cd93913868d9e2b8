(* Kernel VM tests: interpreter semantics, threads and scheduling,
   faults, privilege, shadow data structures, and stop_machine. *)

module Isa = Vmisa.Isa
module Image = Klink.Image
module Machine = Kernel.Machine
module Frag = Asm.Frag
module Section = Objfile.Section
module Symbol = Objfile.Symbol

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f

(* build a machine whose kernel is a raw assembly unit *)
let boot_asm src =
  let obj = Asm.Assembler.assemble ~unit_name:"k.s" ~function_sections:false src in
  let img = Fixture.link ~base:0x100000 [ obj ] in
  (img, Machine.create img)

let addr img name = (Option.get (Image.lookup_global img name)).Image.addr

let call m img name args =
  match Machine.call_function m ~addr:(addr img name) ~args with
  | Ok v -> v
  | Error f -> Alcotest.failf "%s faulted: %a" name Machine.pp_fault f

let test_alu_semantics () =
  let img, m =
    boot_asm
      {|
.text
.global alu
alu:
  loadw r0, [sp+4]
  loadw r1, [sp+8]
  mov r2, r0
  add r2, r1
  mov r3, r0
  sub r3, r1
  mul r3, r2
  mov r0, r3
  ret
|}
  in
  (* (a-b) * (a+b) *)
  check Alcotest.int32 "alu" 91l (call m img "alu" [ 10l; 3l ]);
  check Alcotest.int32 "alu negative" (-91l) (call m img "alu" [ 3l; 10l ])

let test_flags_and_conditions () =
  let img, m =
    boot_asm
      {|
.text
.global cmp3
cmp3:
  loadw r0, [sp+4]
  cmpi r0, 10
  jl .Lless
  jg .Lmore
  mov r0, 0
  ret
.Lless:
  mov r0, -1
  ret
.Lmore:
  mov r0, 1
  ret
|}
  in
  check Alcotest.int32 "less" (-1l) (call m img "cmp3" [ 5l ]);
  check Alcotest.int32 "equal" 0l (call m img "cmp3" [ 10l ]);
  check Alcotest.int32 "more" 1l (call m img "cmp3" [ 99l ]);
  check Alcotest.int32 "signed less" (-1l) (call m img "cmp3" [ -3l ])

let test_memory_widths () =
  let img, m =
    boot_asm
      {|
.text
.global poke
poke:
  mov r1, scratch
  mov r2, 0x11223344
  storew [r1+0], r2
  loadb r0, [r1+1]
  mov r3, 16
  loadh r1, [r1+0]
  shl r0, r3
  or r0, r1
  ret
.bss
.global scratch
scratch:
  .space 8
|}
  in
  (* byte 1 = 0x33, halfword = 0x3344 (little endian) *)
  let v = call m img "poke" [] in
  check Alcotest.int32 "byte and half extraction"
    (Int32.logor (Int32.shift_left 0x33l 16) 0x3344l)
    v

let test_shift_mask_semantics () =
  let img, m =
    boot_asm
      {|
.text
.global sh
sh:
  loadw r0, [sp+4]
  loadw r1, [sp+8]
  shr r0, r1
  ret
.global sar_f
sar_f:
  loadw r0, [sp+4]
  loadw r1, [sp+8]
  sar r0, r1
  ret
|}
  in
  check Alcotest.int32 "logical shift" 0x7fffffffl
    (call m img "sh" [ -2l; 1l ]);
  check Alcotest.int32 "arithmetic shift" (-1l)
    (call m img "sar_f" [ -2l; 1l ]);
  (* shift amounts are masked to 31 *)
  check Alcotest.int32 "shift mask" 1l (call m img "sh" [ 2l; 33l ])

let test_fault_memory_violation () =
  let img, m = boot_asm {|
.text
.global bad
bad:
  mov r1, 16
  loadw r0, [r1+0]
  ret
|} in
  match Machine.call_function m ~addr:(addr img "bad") ~args:[] with
  | Error (Machine.Memory_violation 16) -> ()
  | _ -> Alcotest.fail "expected memory violation at 16"

let test_fault_illegal_instruction () =
  let img, m = boot_asm ".text\n.global f\nf:\n  ret\n" in
  (* write garbage over f *)
  Machine.write_bytes m (addr img "f") (Bytes.make 1 '\xEE');
  match Machine.call_function m ~addr:(addr img "f") ~args:[] with
  | Error (Machine.Illegal_instruction _) -> ()
  | _ -> Alcotest.fail "expected illegal instruction"

let test_privileged_escape () =
  (* INT 5 (setuid) from kernel text is allowed; patching the same code
     into user-reachable memory must fault *)
  let img, m =
    boot_asm {|
.text
.global elevate
elevate:
  mov r1, 0
  int 5
  mov r0, 0
  ret
|}
  in
  let th =
    Machine.spawn m ~name:"u" ~uid:1000 ~entry:(addr img "elevate") ~args:[]
  in
  ignore (Machine.run m ~steps:100 : int);
  check Alcotest.int "kernel text may set uid" 0 th.uid;
  (* copy the same code into unprivileged memory *)
  let code = Machine.read_bytes m (addr img "elevate") 16 in
  let user_at = Machine.alloc_module m ~size:16 ~align:4 in
  Machine.write_bytes m user_at code;
  let th2 = Machine.spawn m ~name:"u2" ~uid:1000 ~entry:user_at ~args:[] in
  ignore (Machine.run m ~steps:100 : int);
  (match th2.state with
   | Machine.Faulted (Machine.Privilege_violation _) -> ()
   | s ->
     Alcotest.failf "expected privilege fault, got %s"
       (match s with
        | Machine.Exited _ -> "exit"
        | Machine.Runnable -> "runnable"
        | _ -> "other"));
  check Alcotest.int "uid unchanged" 1000 th2.uid

let test_round_robin_fairness () =
  (* two spinning threads both make progress *)
  let img, m =
    boot_asm
      {|
.text
.global spin
spin:
  loadw r1, [sp+4]
.Lloop:
  loadw r2, [r1+0]
  addi r2, 1
  storew [r1+0], r2
  jmp .Lloop
.bss
.global cell_a
cell_a:
  .space 4
.global cell_b
cell_b:
  .space 4
|}
  in
  let a = addr img "cell_a" and b = addr img "cell_b" in
  ignore
    (Machine.spawn m ~name:"a" ~uid:0 ~entry:(addr img "spin")
       ~args:[ Int32.of_int a ]);
  ignore
    (Machine.spawn m ~name:"b" ~uid:0 ~entry:(addr img "spin")
       ~args:[ Int32.of_int b ]);
  ignore (Machine.run m ~steps:4000 : int);
  let va = Int32.to_int (Machine.read_i32 m a) in
  let vb = Int32.to_int (Machine.read_i32 m b) in
  Alcotest.(check bool) "both progressed" true (va > 10 && vb > 10);
  Alcotest.(check bool) "roughly fair" true
    (abs (va - vb) < (va + vb) / 2)

let test_sleep_wakes () =
  let img, m =
    boot_asm
      {|
.text
.global sleeper
sleeper:
  mov r1, 500
  int 6
  mov r0, 42
  mov r1, r0
  int 1
.global spin
spin:
  jmp spin
|}
  in
  let th =
    Machine.spawn m ~name:"s" ~uid:0 ~entry:(addr img "sleeper") ~args:[]
  in
  (* a busy thread keeps virtual time ticking one instruction at a time *)
  ignore (Machine.spawn m ~name:"spin" ~uid:0 ~entry:(addr img "spin") ~args:[]);
  ignore (Machine.run m ~steps:100 : int);
  (match th.state with
   | Machine.Sleeping _ -> ()
   | _ -> Alcotest.fail "expected sleeping");
  ignore (Machine.run m ~steps:2000 : int);
  match th.state with
  | Machine.Exited 42l -> ()
  | _ -> Alcotest.fail "expected exit 42 after wake"

let test_exit_gadget () =
  (* a spawned entry can simply return; its r0 becomes the exit status *)
  let img, m = boot_asm ".text\n.global f\nf:\n  mov r0, 7\n  ret\n" in
  let th = Machine.spawn m ~name:"f" ~uid:0 ~entry:(addr img "f") ~args:[] in
  ignore (Machine.run m ~steps:100 : int);
  match th.state with
  | Machine.Exited 7l -> ()
  | _ -> Alcotest.fail "expected exit 7"

let test_shadow_store () =
  let img, m = boot_asm ".text\n.global f\nf:\n  ret\n" in
  ignore img;
  (* exercise the host shadow escapes through a thread *)
  let frag = Frag.create () in
  List.iter (Frag.insn frag)
    [ Isa.Mov_ri (Isa.R1, 0x1234l) (* object *);
      Isa.Mov_ri (Isa.R2, 7l) (* key *);
      Isa.Mov_ri (Isa.R3, 8l) (* size *);
      Isa.Int 8 (* attach -> r0 *);
      Isa.Mov_rr (Isa.R4, Isa.R0);
      Isa.Mov_ri (Isa.R5, 99l);
      Isa.Store (Isa.W32, Isa.R4, 0, Isa.R5);
      Isa.Mov_ri (Isa.R1, 0x1234l);
      Isa.Mov_ri (Isa.R2, 7l);
      Isa.Int 9 (* get -> r0 *);
      Isa.Load (Isa.W32, Isa.R0, Isa.R0, 0);
      Isa.Ret ];
  let img2 = Frag.assemble frag ~text:true in
  let at = Machine.alloc_module m ~size:(Bytes.length img2.data) ~align:4 in
  Machine.write_bytes m at img2.data;
  Machine.add_privileged_range m (at, at + Bytes.length img2.data);
  (match Machine.call_function m ~addr:at ~args:[] with
   | Ok 99l -> ()
   | Ok v -> Alcotest.failf "shadow readback %ld" v
   | Error f -> Alcotest.failf "fault: %a" Machine.pp_fault f);
  (* idempotent attach, detach removes *)
  (match Machine.call_function m ~addr:at ~args:[] with
   | Ok 99l -> () (* same shadow, value persists *)
   | _ -> Alcotest.fail "shadow not persistent")

let test_stop_machine_pause_model () =
  let img, m = boot_asm ".text\n.global f\nf:\n  ret\n" in
  let r, pause0 = Machine.stop_machine m (fun () -> 42) in
  check Alcotest.int "result passes through" 42 r;
  (* more live threads -> longer simulated pause *)
  for i = 1 to 4 do
    ignore
      (Machine.spawn m
         ~name:(Printf.sprintf "t%d" i)
         ~uid:0 ~entry:(addr img "f") ~args:[])
  done;
  let _, pause4 = Machine.stop_machine m (fun () -> ()) in
  Alcotest.(check bool) "pause grows with CPUs" true (pause4 > pause0)

let test_console_output () =
  let img, m =
    boot_asm
      {|
.text
.global hello
hello:
  mov r1, 72
  int 0
  mov r1, 105
  int 0
  ret
|}
  in
  ignore (call m img "hello" []);
  check Alcotest.string "console" "Hi" (Machine.console m)

let test_module_alloc_distinct () =
  let _, m = boot_asm ".text\n.global f\nf:\n  ret\n" in
  let a = Machine.alloc_module m ~size:100 ~align:16 in
  let b = Machine.alloc_module m ~size:100 ~align:16 in
  Alcotest.(check bool) "aligned" true (a mod 16 = 0 && b mod 16 = 0);
  Alcotest.(check bool) "disjoint" true (b >= a + 100)

let test_reentrant_call_function_rejected () =
  let img, m = boot_asm ".text\n.global f\nf:\n  ret\n" in
  ignore img;
  ignore m;
  (* covered implicitly: call_function guards reentrancy with
     Invalid_argument; exercise via stop_machine nesting *)
  let _, _ =
    Machine.stop_machine m (fun () ->
        match Machine.call_function m ~addr:(addr img "f") ~args:[] with
        | Ok _ -> ()
        | Error f -> Alcotest.failf "inner call failed: %a" Machine.pp_fault f)
  in
  ()

let test_backtrace () =
  let img, m =
    boot_asm
      {|
.text
.global leaf
leaf:
  int 2
  jmp leaf
.global middle
middle:
  call leaf
  ret
.global outer
outer:
  call middle
  ret
|}
  in
  let th =
    Machine.spawn m ~name:"bt" ~uid:0 ~entry:(addr img "outer") ~args:[]
  in
  ignore (Machine.run m ~steps:64 : int);
  let frames = Machine.backtrace m th in
  let mentions name =
    List.exists
      (fun f ->
        String.length f >= String.length name
        && String.sub f 0 (String.length name) = name)
      frames
  in
  Alcotest.(check bool) "leaf on stack" true (mentions "leaf");
  Alcotest.(check bool) "middle on stack" true (mentions "middle");
  Alcotest.(check bool) "outer on stack" true (mentions "outer")

let test_backtrace_sleeping () =
  (* §5.2 diagnostics and the transition manager both walk stacks of
     threads that are NOT running: a sleeper's chain must still resolve *)
  let img, m =
    boot_asm
      {|
.text
.global naplet
naplet:
  mov r1, 1000
  int 6
  ret
.global middle
middle:
  call naplet
  ret
.global outer
outer:
  call middle
  ret
.global spinner
spinner:
  jmp spinner
|}
  in
  let th =
    Machine.spawn m ~name:"sleeper" ~uid:0 ~entry:(addr img "outer") ~args:[]
  in
  (* a busy thread keeps the clock honest: with only a sleeper the
     scheduler would time-teleport straight past the nap *)
  ignore
    (Machine.spawn m ~name:"spinner" ~uid:0 ~entry:(addr img "spinner")
       ~args:[]
      : Machine.thread);
  ignore (Machine.run m ~steps:64 : int);
  (match th.Machine.state with
   | Machine.Sleeping wake ->
     Alcotest.(check bool) "wake in the future" true (wake > Machine.tick m)
   | _ -> Alcotest.fail "thread should be sleeping");
  let frames = Machine.backtrace m th in
  let mentions name =
    List.exists
      (fun f ->
        String.length f >= String.length name
        && String.sub f 0 (String.length name) = name)
      frames
  in
  Alcotest.(check bool) "pc frame resolves into naplet" true
    (mentions "naplet");
  Alcotest.(check bool) "middle on sleeping stack" true (mentions "middle");
  Alcotest.(check bool) "outer on sleeping stack" true (mentions "outer")

let test_backtrace_not_started_and_exited () =
  let img, m =
    boot_asm
      {|
.text
.global solo
solo:
  ret
|}
  in
  (* never stepped: the only honest frame is the entry pc itself *)
  let fresh =
    Machine.spawn m ~name:"fresh" ~uid:0 ~entry:(addr img "solo") ~args:[]
  in
  let frames = Machine.backtrace m fresh in
  Alcotest.(check bool) "at least the pc frame" true (frames <> []);
  Alcotest.(check bool) "pc frame is solo" true
    (match frames with
     | f :: _ ->
       String.length f >= 4 && String.sub f 0 4 = "solo"
     | [] -> false);
  (* exited: backtrace must not raise, whatever it reports *)
  ignore (Machine.run m ~steps:64 : int);
  (match fresh.Machine.state with
   | Machine.Exited _ -> ()
   | _ -> Alcotest.fail "thread should have exited");
  ignore (Machine.backtrace m fresh : string list)

(* --- instruction cache coherence: every case runs the code first, so its
   decodes are cached, then changes the bytes and checks that execution
   follows the new ones --- *)

let encode insns = Bytes.concat Bytes.empty (List.map Isa.encode_to_bytes insns)

let call_at m at args =
  match Machine.call_function m ~addr:at ~args with
  | Ok v -> v
  | Error f -> Alcotest.failf "call at %#x faulted: %a" at Machine.pp_fault f

let test_icache_host_write () =
  let img, m = boot_asm ".text\n.global f\nf:\n  mov r0, 1\n  ret\n" in
  let f = addr img "f" in
  check Alcotest.int32 "cold" 1l (call m img "f" []);
  check Alcotest.int32 "warm" 1l (call m img "f" []);
  Machine.write_bytes m f (Isa.encode_to_bytes (Isa.Mov_ri (Isa.R0, 2l)));
  check Alcotest.int32 "instruction rewritten" 2l (call m img "f" []);
  (* writes that start inside the cached instruction, not at its pc *)
  Machine.write_i32 m (f + 2) 3l;
  check Alcotest.int32 "immediate rewritten" 3l (call m img "f" []);
  Machine.write_u8 m (f + 5) 0x7f;
  check Alcotest.int32 "last byte rewritten" 0x7f000003l (call m img "f" [])

let test_icache_guest_store () =
  let _, m = boot_asm ".text\n.global f\nf:\n  ret\n" in
  (* code (a, v): if a <> 0, store v at a; then return the site's imm *)
  let prologue =
    Isa.
      [ Load (W32, R1, SP, 4); Cmpi (R1, 0l); Jcc_s (Eq, 10);
        Load (W32, R2, SP, 8); Store (W32, R1, 0, R2) ]
  in
  let site = Bytes.length (encode prologue) in
  let code = encode (prologue @ Isa.[ Mov_ri (R0, 1l); Ret ]) in
  let at = Machine.alloc_module m ~size:(Bytes.length code) ~align:16 in
  Machine.write_bytes m at code;
  check Alcotest.int32 "cold" 1l (call_at m at [ 0l; 0l ]);
  check Alcotest.int32 "warm" 1l (call_at m at [ 0l; 0l ]);
  (* the guest rewrites the immediate of an instruction it runs next *)
  let imm = Int32.of_int (at + site + 2) in
  check Alcotest.int32 "follows its own store" 7l (call_at m at [ imm; 7l ]);
  check Alcotest.int32 "stays rewritten" 7l (call_at m at [ 0l; 0l ])

let test_icache_page_straddle () =
  let _, m = boot_asm ".text\n.global f\nf:\n  ret\n" in
  let page = Machine.alloc_module m ~size:8192 ~align:4096 in
  (* a 6-byte mov whose last three bytes lie on the next page *)
  let entry = page + 4096 - 3 in
  Machine.write_bytes m entry (encode Isa.[ Mov_ri (R0, 0x01020304l); Ret ]);
  check Alcotest.int32 "cold" 0x01020304l (call_at m entry []);
  check Alcotest.int32 "warm" 0x01020304l (call_at m entry []);
  Machine.write_u8 m (entry + 5) 0x7f;
  check Alcotest.int32 "write on the next page" 0x7f020304l
    (call_at m entry [])

let test_icache_txn_rollback () =
  let img, m = boot_asm ".text\n.global f\nf:\n  mov r0, 1\n  ret\n" in
  check Alcotest.int32 "before" 1l (call m img "f" []);
  let txn = Ksplice.Txn.begin_ m in
  Machine.write_bytes m (addr img "f")
    (Isa.encode_to_bytes (Isa.Mov_ri (Isa.R0, 2l)));
  check Alcotest.int32 "inside the transaction" 2l (call m img "f" []);
  Ksplice.Txn.rollback txn;
  check Alcotest.int32 "rolled back" 1l (call m img "f" [])

let test_icache_illegal_opcode () =
  let img, m =
    boot_asm ".text\n.global f\nf:\n  mov r0, 1\n  mov r0, 2\n  ret\n"
  in
  let f = addr img "f" in
  check Alcotest.int32 "warm" 2l (call m img "f" []);
  Machine.write_u8 m (f + 6) 0xEE;
  let expect_fault attempt =
    match Machine.call_function m ~addr:f ~args:[] with
    | Error (Machine.Illegal_instruction pc) when pc = f + 6 -> ()
    | Ok v -> Alcotest.failf "%s: returned %ld" attempt v
    | Error fl -> Alcotest.failf "%s: %a" attempt Machine.pp_fault fl
  in
  expect_fault "first attempt";
  (* a decode failure is not cached: it faults again *)
  expect_fault "second attempt";
  Machine.write_bytes m (f + 6) (Isa.encode_to_bytes (Isa.Mov_ri (Isa.R0, 3l)));
  check Alcotest.int32 "repaired" 3l (call m img "f" [])

(* property: patching code the interpreter has already run leaves it
   indistinguishable from a machine that only ever saw the patched bytes.
   The program loops three times over a random body whose stores stay in
   [scratch], so its first run leaves nothing but scratch behind, which is
   reset; patches are raw bytes or whole encodings at any offset. *)

let scratch_words = 16

(* one instruction over r0..r6 (r7 counts the loop) *)
let gen_insn scratch =
  let open QCheck2.Gen in
  let reg = map (fun i -> Option.get (Isa.reg_of_int i)) (int_range 0 6) in
  let imm = map Int32.of_int (int_range (-1000) 1000) in
  let width = oneofl Isa.[ W8; W16; W32 ] in
  let cond = oneofl Isa.[ Eq; Ne; Lt; Ge; Gt; Le ] in
  let slot =
    map (fun i -> Int32.of_int (scratch + (4 * i))) (int_range 0 7)
  in
  let alu =
    oneofl
      Isa.
        [ (fun a b -> Add (a, b)); (fun a b -> Sub (a, b));
          (fun a b -> Mul (a, b)); (fun a b -> And (a, b));
          (fun a b -> Or (a, b)); (fun a b -> Xor (a, b));
          (fun a b -> Shl (a, b)); (fun a b -> Shr (a, b));
          (fun a b -> Sar (a, b)); (fun a b -> Cmp (a, b));
          (fun a b -> Mov_rr (a, b)) ]
  in
  oneof
    [ map2 (fun a v -> Isa.Mov_ri (a, v)) reg imm;
      map3 (fun f a b -> f a b) alu reg reg;
      map2 (fun a v -> Isa.Addi (a, v)) reg imm;
      map2 (fun a v -> Isa.Cmpi (a, v)) reg imm;
      map2 (fun c a -> Isa.Setcc (c, a)) cond reg;
      map
        (fun (k, a) ->
          match k with
          | 0 -> Isa.Neg a | 1 -> Isa.Not a | 2 -> Isa.Sext8 a
          | 3 -> Isa.Sext16 a | 4 -> Isa.Zext8 a | _ -> Isa.Zext16 a)
        (pair (int_range 0 5) reg);
      map (fun n -> Isa.Nop n) (int_range 1 3);
      map3 (fun w a r -> Isa.Store_abs (w, a, r)) width slot reg;
      map3 (fun w r a -> Isa.Load_abs (w, r, a)) width reg slot ]

let gen_body scratch =
  let open QCheck2.Gen in
  let insn = gen_insn scratch in
  (* a conditional short jump over the following instruction *)
  let item =
    oneof
      [ map (fun i -> [ i ]) insn;
        map2
          (fun c i -> [ Isa.Jcc_s (c, Isa.length i); i ])
          (oneofl Isa.[ Eq; Ne; Lt; Ge; Gt; Le ])
          insn ]
  in
  map List.concat (list_size (int_range 1 24) item)

let program scratch body =
  let out = scratch + (4 * 8) in
  let back =
    List.fold_left (fun n i -> n + Isa.length i) 0 body
    + Isa.length (Isa.Addi (Isa.R7, 0l))
    + Isa.length (Isa.Cmpi (Isa.R7, 0l))
    + Isa.length (Isa.Jcc (Isa.Gt, 0l))
  in
  (Isa.Mov_ri (Isa.R7, 3l) :: body)
  @ Isa.
      [ Addi (R7, -1l); Cmpi (R7, 0l); Jcc (Gt, Int32.of_int (-back)) ]
  @ List.init 8 (fun r ->
        Isa.Store_abs
          (Isa.W32, Int32.of_int (out + (4 * r)),
           Option.get (Isa.reg_of_int r)))
  @ [ Isa.Ret ]

type patch =
  | P_bytes of int * Bytes.t
  | P_u8 of int * int
  | P_i32 of int * int32

let gen_patch scratch code_len =
  let open QCheck2.Gen in
  let at len = int_range 0 (max 0 (code_len - len)) in
  oneof
    [ (let* b = map Bytes.of_string (string_size (int_range 1 6)) in
       map (fun o -> P_bytes (o, b)) (at (Bytes.length b)));
      (let* i = gen_insn scratch in
       let b = Isa.encode_to_bytes i in
       map (fun o -> P_bytes (o, b)) (at (Bytes.length b)));
      map2 (fun o v -> P_u8 (o, v)) (at 1) (int_range 0 255);
      map2 (fun o v -> P_i32 (o, Int32.of_int v)) (at 4) int ]

let apply_patch m code_at = function
  | P_bytes (o, b) -> Machine.write_bytes m (code_at + o) b
  | P_u8 (o, v) -> Machine.write_u8 m (code_at + o) v
  | P_i32 (o, v) -> Machine.write_i32 m (code_at + o) v

(* a small machine with the code straddling a page boundary *)
let icache_machine () =
  let obj =
    Asm.Assembler.assemble ~unit_name:"k.s" ~function_sections:false
      ".text\n.global f\nf:\n  ret\n"
  in
  let m =
    Machine.create ~mem_size:0x40_0000 (Fixture.link ~base:0x100000 [ obj ])
  in
  let page = Machine.alloc_module m ~size:8192 ~align:4096 in
  let scratch = Machine.alloc_module m ~size:(4 * scratch_words) ~align:4 in
  (m, page + 4096 - 40, scratch)

let outcome m at =
  match Machine.call_function ~step_limit:5_000 m ~addr:at ~args:[] with
  | Ok v -> Printf.sprintf "ok %ld" v
  | Error f -> Format.asprintf "fault: %a" Machine.pp_fault f
  | exception Machine.Out_of_memory msg -> "out of memory: " ^ msg

let prop_icache_matches_cold_machine =
  let open QCheck2.Gen in
  let _, code_at0, scratch0 = icache_machine () in
  let gen =
    let* body = gen_body scratch0 in
    let code = encode (program scratch0 body) in
    let* patches =
      list_size (int_range 1 4) (gen_patch scratch0 (Bytes.length code))
    in
    return (code, patches)
  in
  let print (code, patches) =
    Printf.sprintf "code %s (at %#x), patches %s"
      (String.concat ""
         (List.map
            (fun c -> Printf.sprintf "%02x" (Char.code c))
            (List.of_seq (Bytes.to_seq code))))
      code_at0
      (String.concat "; "
         (List.map
            (function
              | P_bytes (o, b) ->
                Printf.sprintf "+%d <- %S" o (Bytes.to_string b)
              | P_u8 (o, v) -> Printf.sprintf "+%d <- u8 %d" o v
              | P_i32 (o, v) -> Printf.sprintf "+%d <- i32 %ld" o v)
            patches))
  in
  QCheck2.Test.make ~name:"patched warm machine matches a cold one"
    ~count:300 ~print gen (fun (code, patches) ->
      let warm, code_at, scratch = icache_machine () in
      Machine.write_bytes warm code_at code;
      ignore (outcome warm code_at : string);
      Machine.write_bytes warm scratch (Bytes.make (4 * scratch_words) '\000');
      List.iter (apply_patch warm code_at) patches;
      let before = Machine.instructions_retired warm in
      let got = outcome warm code_at in
      let retired = Machine.instructions_retired warm - before in
      let cold, _, _ = icache_machine () in
      Machine.write_bytes cold code_at code;
      List.iter (apply_patch cold code_at) patches;
      let want = outcome cold code_at in
      let diffs = Machine.diff_snapshot cold (Machine.snapshot warm) in
      if got <> want then
        QCheck2.Test.fail_reportf "warm %s, cold %s" got want;
      if retired <> Machine.instructions_retired cold then
        QCheck2.Test.fail_reportf "warm retired %d, cold %d" retired
          (Machine.instructions_retired cold);
      if diffs <> [] then
        QCheck2.Test.fail_reportf "state differs: %s"
          (String.concat "; " diffs);
      true)

(* --- guest arithmetic against Int32 ---

   Each operation is a guest function [f(x, y, want)]: its body computes
   r0 from r0 = x and r1 = y, then the guest compares r0 with [want] and
   stores the verdict at [verdict]. The value [call_function] returns is
   cut to 32 bits on the way out, so the guest-side comparison is what
   shows a register left holding more than its 32-bit value. *)

type arith = {
  fn : string;
  body : string list;
  (* [None]: the operation must fault with [Divide_by_zero] *)
  oracle : int32 -> int32 -> int32 option;
}

let bool32 b = if b then 1l else 0l
let shift_count y = Int32.to_int y land 31

(* set<suffix> after a signed comparison *)
let conds =
  [ ("e", ( = )); ("ne", ( <> )); ("l", ( < )); ("ge", ( >= )); ("g", ( > ));
    ("le", ( <= )) ]

let arith_imms =
  [ 0l; 1l; -1l; 0x7fffl; 0x8000l; Int32.max_int; Int32.min_int ]

let arith_ops =
  let op fn body oracle = { fn; body; oracle } in
  let bin fn f = op fn [ fn ^ " r0, r1" ] (fun x y -> Some (f x y)) in
  let un fn f = op fn [ fn ^ " r0" ] (fun x _ -> Some (f x)) in
  (* Int32 wraps the one overflowing quotient: INT_MIN / -1 = INT_MIN,
     and INT_MIN mod -1 = 0 *)
  let divide fn f =
    op fn [ fn ^ " r0, r1" ] (fun x y -> if y = 0l then None else Some (f x y))
  in
  let memory fn w off mask =
    op fn
      [ "mov r2, scratch"; Printf.sprintf "store%s [r2+%d], r0" w off;
        Printf.sprintf "load%s r0, [r2+%d]" w off ]
      (fun x _ -> Some (Int32.logand x mask))
  in
  (* the comparison [cmp] of x with [rhs y], then each set condition *)
  let sets fn cmp rhs =
    List.map
      (fun (c, holds) ->
        op (fn ^ "_" ^ c) [ cmp; "set" ^ c ^ " r0" ] (fun x y ->
            Some (bool32 (holds (Int32.compare x (rhs y)) 0))))
      conds
  in
  [ bin "add" Int32.add; bin "sub" Int32.sub; bin "mul" Int32.mul;
    divide "div" Int32.div; divide "mod" Int32.rem; bin "and" Int32.logand;
    bin "or" Int32.logor; bin "xor" Int32.logxor;
    bin "shl" (fun x y -> Int32.shift_left x (shift_count y));
    bin "shr" (fun x y -> Int32.shift_right_logical x (shift_count y));
    bin "sar" (fun x y -> Int32.shift_right x (shift_count y));
    un "neg" Int32.neg; un "not" Int32.lognot;
    un "sext8" (fun x -> Int32.shift_right (Int32.shift_left x 24) 24);
    un "sext16" (fun x -> Int32.shift_right (Int32.shift_left x 16) 16);
    un "zext8" (fun x -> Int32.logand x 0xffl);
    un "zext16" (fun x -> Int32.logand x 0xffffl);
    memory "byte" "b" 1 0xffl; memory "half" "h" 2 0xffffl;
    memory "word" "w" 4 (-1l) ]
  @ sets "cmp" "cmp r0, r1" Fun.id
  @ List.concat
      (List.mapi
         (fun i k ->
           op (Printf.sprintf "addi_%d" i) [ Printf.sprintf "addi r0, %ld" k ]
             (fun x _ -> Some (Int32.add x k))
           :: sets (Printf.sprintf "cmpi_%d" i)
                (Printf.sprintf "cmpi r0, %ld" k)
                (fun _ -> k))
         arith_imms)

let arith_src =
  String.concat "\n"
    (".text"
     :: List.concat_map
          (fun op ->
            [ ".global " ^ op.fn; op.fn ^ ":"; "  loadw r0, [sp+4]";
              "  loadw r1, [sp+8]" ]
            @ List.map (fun i -> "  " ^ i) op.body
            @ [ "  loadw r2, [sp+12]"; "  cmp r0, r2"; "  sete r3";
                "  mov r2, verdict"; "  storew [r2+0], r3"; "  ret" ])
          arith_ops
    @ [ ".bss"; ".global verdict"; "verdict:"; "  .space 4";
        ".global scratch"; "scratch:"; "  .space 8" ])

(* half the operands from the edges of the 32-bit range and of the
   narrower widths and shift counts, half uniform *)
let gen_operand =
  let open QCheck2.Gen in
  frequency
    [ ( 1,
        oneofl
          [ 0l; 1l; -1l; Int32.min_int; Int32.max_int; 0x7fffl; 0x8000l;
            0xffffl; 0x80l; 0xffl; 31l; 32l; 33l ] );
      (1, int32) ]

let prop_guest_arithmetic =
  let img, m = boot_asm arith_src in
  let verdict = addr img "verdict" in
  let run op x y =
    let want = op.oracle x y in
    Machine.write_i32 m verdict 0l;
    match
      ( want,
        Machine.call_function m ~addr:(addr img op.fn)
          ~args:[ x; y; Option.value want ~default:0l ] )
    with
    | Some w, Ok v when Int32.equal v w && Machine.read_i32 m verdict = 1l ->
      None
    | None, Error (Machine.Divide_by_zero _) -> None
    | _, got ->
      Some
        (Printf.sprintf "%s %ld %ld: want %s, got %s (register %s)" op.fn x y
           (match want with
            | Some w -> Int32.to_string w
            | None -> "divide by zero")
           (match got with
            | Ok v -> Int32.to_string v
            | Error f -> Format.asprintf "%a" Machine.pp_fault f)
           (if Machine.read_i32 m verdict = 1l then "as wanted"
            else "differs"))
  in
  QCheck2.Test.make ~name:"guest arithmetic agrees with Int32" ~count:300
    ~print:(fun (x, y) -> Printf.sprintf "x = %ld, y = %ld" x y)
    (QCheck2.Gen.pair gen_operand gen_operand)
    (fun (x, y) ->
      match List.filter_map (fun op -> run op x y) arith_ops with
      | [] -> true
      | failures ->
        QCheck2.Test.fail_reportf "%s" (String.concat "; " failures))

(* the interpreter allocates nothing per instruction: a loop of ALU
   work, a call, pushes and pops and a stack store and load *)
let test_loop_allocates_nothing () =
  let img, m =
    boot_asm
      {|
.text
.global spin
spin:
  loadw r1, [sp+4]
  mov r0, 0
  mov r2, 7
.Lloop:
  push r1
  call mix
  pop r1
  addi r1, -1
  cmpi r1, 0
  jg .Lloop
  ret
mix:
  add r0, r1
  xor r0, r2
  mov r3, r0
  shl r3, r2
  sub r0, r3
  storew [sp-4], r0
  loadw r3, [sp-4]
  mul r0, r3
  ret
|}
  in
  (* decode the loop before measuring *)
  ignore (call m img "spin" [ 2l ] : int32);
  let insns = Machine.instructions_retired m in
  let words = Gc.minor_words () in
  ignore (call m img "spin" [ 10_000l ] : int32);
  let words = Gc.minor_words () -. words in
  let insns = Machine.instructions_retired m - insns in
  Alcotest.(check bool) "at least 100 000 instructions" true (insns >= 100_000);
  if words >= 1000. then
    Alcotest.failf "%d instructions allocated %.0f minor words" insns words

(* --- guest memory against a flat model ---

   Guest memory is paged: every page never written shares one zero page,
   and a page gets its own copy on its first write. A flat [Bytes] model,
   started from the bytes [create] lays down (zeros, the image, the exit
   gadget and the sentinel), follows the same writes, so every read must
   agree with it, and a range never written must read as zeros. Addresses
   cluster at page boundaries and at the top of memory, where writes
   straddle pages and materialise them. *)

type mem_op =
  | Put_u8 of int * int
  | Put_i32 of int * int32
  | Put_bytes of int * int * int  (* addr, length, pattern seed *)
  | Get_u8 of int
  | Get_i32 of int
  | Get_bytes of int * int

let pattern len seed =
  Bytes.init len (fun i -> Char.unsafe_chr ((seed + (i * 31)) land 0xff))

(* the memory a flat [create] laid down *)
let flat_memory (img : Image.t) mem_size =
  let b = Bytes.make mem_size '\000' in
  Bytes.blit img.data 0 b img.base (Bytes.length img.data);
  let pos = ref (mem_size - 0x10) in
  List.iter
    (fun i -> pos := !pos + Isa.encode b !pos i)
    [ Isa.Mov_rr (Isa.R1, Isa.R0); Isa.Int 1 ];
  ignore (Isa.encode b (mem_size - 0x20) Isa.Hlt : int);
  b

(* the loop [diff_snapshot] ran over a flat memory and its flat copy *)
let flat_diff now snap =
  let out = ref [] in
  let add fmt = Printf.ksprintf (fun m -> out := m :: !out) fmt in
  if not (Bytes.equal now snap) then begin
    let shown = ref 0 in
    let i = ref 0 in
    let n = min (Bytes.length now) (Bytes.length snap) in
    while !i < n && !shown < 4 do
      if Bytes.get now !i <> Bytes.get snap !i then begin
        add "memory differs at %#x: now %#x, snapshot %#x" !i
          (Bytes.get_uint8 now !i)
          (Bytes.get_uint8 snap !i);
        incr shown;
        i := ((!i / 16) + 1) * 16
      end
      else incr i
    done
  end;
  List.rev !out

let gen_mem_ops mem_size =
  let open QCheck2.Gen in
  let n_pages = mem_size / 4096 in
  (* half uniform; half at page offsets 4093-4095 and 0-2 of a few pages,
     or in the last bytes below [mem_size] *)
  let addr len =
    let fit a = max 0x1000 (min a (mem_size - len)) in
    map fit
      (frequency
         [ (2, int_range 0x1000 (mem_size - len));
           ( 1,
             map2
               (fun page off -> (page * 4096) + off)
               (oneofl [ 2; 3; n_pages / 2; (n_pages / 2) + 1; n_pages - 1 ])
               (int_range (-3) 2) );
           (1, map (fun k -> mem_size - len - k) (int_range 0 8)) ])
  in
  let len = int_range 1 9000 in
  let op =
    frequency
      [ (1, map2 (fun a v -> Put_u8 (a, v)) (addr 1) (int_range 0 255));
        (1, map2 (fun a v -> Put_i32 (a, v)) (addr 4) int32);
        ( 1,
          let* n = len in
          map2 (fun a seed -> Put_bytes (a, n, seed)) (addr n) (int_range 0 255)
        );
        (1, map (fun a -> Get_u8 a) (addr 1));
        (1, map (fun a -> Get_i32 a) (addr 4));
        (1, let* n = len in map (fun a -> Get_bytes (a, n)) (addr n)) ]
  in
  list_size (int_range 1 40) op

let print_mem_op = function
  | Put_u8 (a, v) -> Printf.sprintf "u8 %#x <- %d" a v
  | Put_i32 (a, v) -> Printf.sprintf "i32 %#x <- %ld" a v
  | Put_bytes (a, n, seed) -> Printf.sprintf "bytes %#x <- %d (seed %d)" a n seed
  | Get_u8 a -> Printf.sprintf "u8 %#x?" a
  | Get_i32 a -> Printf.sprintf "i32 %#x?" a
  | Get_bytes (a, n) -> Printf.sprintf "bytes %#x %d?" a n

let prop_memory_matches_flat ~count mem_size =
  (* the image, its flat memory, and one model and one model snapshot,
     made on the first case and reused by the others *)
  let setup =
    lazy
      (let img =
         Fixture.link ~base:0x100000
           [ Asm.Assembler.assemble ~unit_name:"k.s" ~function_sections:false
               ".text\n.global f\nf:\n  ret\n" ]
       in
       (img, flat_memory img mem_size, Bytes.create mem_size,
        Bytes.create mem_size))
  in
  QCheck2.Test.make
    ~name:(Printf.sprintf "memory agrees with a flat model (%#x bytes)" mem_size)
    ~count
    ~print:(fun ops -> String.concat "; " (List.map print_mem_op ops))
    (gen_mem_ops mem_size)
    (fun ops ->
      let img, initial, model, model_snap = Lazy.force setup in
      let m = Machine.create ~mem_size img in
      Bytes.blit initial 0 model 0 mem_size;
      let agree what a got want =
        if not (Bytes.equal got want) then
          QCheck2.Test.fail_reportf "%s at %#x: machine %S, model %S" what a
            (Bytes.to_string got) (Bytes.to_string want)
      in
      let half = List.length ops / 2 in
      let snap = ref None in
      List.iteri
        (fun i op ->
          if i = half then begin
            snap := Some (Machine.snapshot m);
            Bytes.blit model 0 model_snap 0 mem_size
          end;
          match op with
          | Put_u8 (a, v) ->
            Machine.write_u8 m a v;
            Bytes.set_uint8 model a v
          | Put_i32 (a, v) ->
            Machine.write_i32 m a v;
            Bytes.set_int32_le model a v
          | Put_bytes (a, n, seed) ->
            let b = pattern n seed in
            Machine.write_bytes m a b;
            Bytes.blit b 0 model a n
          | Get_u8 a ->
            agree "u8" a
              (Bytes.make 1 (Char.chr (Machine.read_u8 m a)))
              (Bytes.sub model a 1)
          | Get_i32 a ->
            let got = Bytes.create 4 in
            Bytes.set_int32_le got 0 (Machine.read_i32 m a);
            agree "i32" a got (Bytes.sub model a 4)
          | Get_bytes (a, n) ->
            agree "bytes" a (Machine.read_bytes m a n) (Bytes.sub model a n))
        ops;
      (* every written range reads back as the model has it *)
      let read_back a n =
        agree "written range" a (Machine.read_bytes m a n) (Bytes.sub model a n)
      in
      List.iter
        (function
          | Put_u8 (a, _) -> read_back a 1
          | Put_i32 (a, _) -> read_back a 4
          | Put_bytes (a, n, _) -> read_back a n
          | Get_u8 _ | Get_i32 _ | Get_bytes _ -> ())
        ops;
      let got =
        List.filter
          (String.starts_with ~prefix:"memory differs ")
          (Machine.diff_snapshot m (Option.get !snap))
      in
      let want = flat_diff model model_snap in
      if got <> want then
        QCheck2.Test.fail_reportf "diff_snapshot: [%s], flat: [%s]"
          (String.concat "; " got) (String.concat "; " want);
      true)

(* guest stores and loads that straddle a page boundary: a half-word at
   offset 4095, a word at 4093-4095. [pokew] compares the word it loads
   back with the one it stored, so a load that lost the sign shows. *)
let test_guest_straddling_access () =
  let src =
    {|
.text
.global pokew
pokew:
  loadw r1, [sp+4]
  loadw r2, [sp+8]
  storew [r1+0], r2
  loadw r0, [r1+0]
  cmp r0, r2
  sete r0
  ret
.global pokeh
pokeh:
  loadw r1, [sp+4]
  loadw r2, [sp+8]
  storeh [r1+0], r2
  loadh r0, [r1+0]
  ret
|}
  in
  let around m a n = Machine.read_bytes m (a - 1) (n + 2) in
  List.iter
    (fun off ->
      let img, m = boot_asm src in
      let a = Machine.alloc_module m ~size:8192 ~align:4096 + off in
      check Alcotest.int32
        (Printf.sprintf "word at offset %d loads back" off)
        1l
        (call m img "pokew" [ Int32.of_int a; 0x80c0e0f1l ]);
      check Alcotest.string
        (Printf.sprintf "word bytes at offset %d" off)
        "\000\xf1\xe0\xc0\x80\000"
        (Bytes.to_string (around m a 4)))
    [ 4093; 4094; 4095 ];
  let img, m = boot_asm src in
  let a = Machine.alloc_module m ~size:8192 ~align:4096 + 4095 in
  check Alcotest.int32 "half-word at offset 4095 loads back" 0xbeefl
    (call m img "pokeh" [ Int32.of_int a; 0x1234beefl ]);
  check Alcotest.string "half-word bytes at offset 4095" "\000\xef\xbe\000"
    (Bytes.to_string (around m a 2))

(* --- allocation guards: a boot, a snapshot and a trace reset cost what
   the kernel uses, not what the address space or the ring could hold --- *)

let allocated f =
  let before = Gc.allocated_bytes () in
  let v = f () in
  (v, Gc.allocated_bytes () -. before)

let test_boot_and_snapshot_allocation () =
  (* the first boot compiles the base kernel; later ones hit the cache *)
  ignore (Corpus.Boot.boot () : Corpus.Boot.booted);
  let b, boot_bytes = allocated (fun () -> Corpus.Boot.boot ()) in
  let _, snap_bytes = allocated (fun () -> Machine.snapshot b.machine) in
  let over what bytes bound =
    if bytes < bound then []
    else [ Printf.sprintf "%s allocated %.2f MB (bound %.0f MB)" what
             (bytes /. 1e6) (bound /. 1e6) ]
  in
  match over "a boot" boot_bytes 4e6 @ over "a snapshot" snap_bytes 1e6 with
  | [] -> ()
  | over -> Alcotest.fail (String.concat "; " over)

let test_trace_reset_allocation () =
  let capacity = Trace.capacity () and enabled = Trace.is_enabled () in
  Trace.set_capacity (1 lsl 20);
  Trace.set_enabled true;
  for _ = 1 to 1000 do
    Trace.instant "tick"
  done;
  let (), bytes = allocated Trace.reset in
  let left = List.length (Trace.records ()) in
  Trace.set_enabled enabled;
  Trace.set_capacity capacity;
  check Alcotest.int "reset empties the ring" 0 left;
  if bytes >= 65536. then
    Alcotest.failf "a reset at capacity 2^20 allocated %.0f bytes (bound 64 KB)"
      bytes

let suite =
  [
    ( "machine",
      [
        t "alu semantics" test_alu_semantics;
        t "flags and conditions" test_flags_and_conditions;
        t "memory widths" test_memory_widths;
        t "shift semantics" test_shift_mask_semantics;
        t "memory violation fault" test_fault_memory_violation;
        t "illegal instruction fault" test_fault_illegal_instruction;
        t "privileged escape" test_privileged_escape;
        t "round robin fairness" test_round_robin_fairness;
        t "sleep and wake" test_sleep_wakes;
        t "exit gadget" test_exit_gadget;
        t "shadow store" test_shadow_store;
        t "stop_machine pause model" test_stop_machine_pause_model;
        t "console output" test_console_output;
        t "module alloc" test_module_alloc_distinct;
        t "call_function inside stop_machine"
          test_reentrant_call_function_rejected;
        t "backtrace" test_backtrace;
        t "backtrace of a sleeping thread" test_backtrace_sleeping;
        t "backtrace of not-started and exited threads"
          test_backtrace_not_started_and_exited;
        t "icache: host write over executed code" test_icache_host_write;
        t "icache: guest store into its own text" test_icache_guest_store;
        t "icache: write straddling a page boundary"
          test_icache_page_straddle;
        t "icache: transaction rollback" test_icache_txn_rollback;
        t "icache: illegal opcode over cached code"
          test_icache_illegal_opcode;
        QCheck_alcotest.to_alcotest prop_icache_matches_cold_machine;
        QCheck_alcotest.to_alcotest prop_guest_arithmetic;
        t "no allocation per instruction" test_loop_allocates_nothing;
        QCheck_alcotest.to_alcotest
          (prop_memory_matches_flat ~count:100 0x40_0000);
        QCheck_alcotest.to_alcotest
          (prop_memory_matches_flat ~count:10 0x200_0000);
        t "guest stores and loads straddling a page"
          test_guest_straddling_access;
        t "a boot and a snapshot allocate what the kernel uses"
          test_boot_and_snapshot_allocation;
        t "a trace reset allocates no ring" test_trace_reset_allocation;
      ] );
  ]
