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
  let img = Image.link_exn ~base:0x100000 [ obj ] in
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
    Machine.create ~mem_size:0x40_0000 (Image.link_exn ~base:0x100000 [ obj ])
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
      ] );
  ]
