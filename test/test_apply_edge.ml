(* Edge-case tests for apply/undo: post-apply verification, hook faults,
   deep trampoline chains, and preservation of live state (static locals)
   across an update. *)

module Tree = Patchfmt.Source_tree
module Diff = Patchfmt.Diff
module Image = Klink.Image
module Machine = Kernel.Machine
module Create = Ksplice.Create
module Apply = Ksplice.Apply

open Fixture

let t name f = Alcotest.test_case name `Quick f

let base_src =
  {|
int ticket_base = 100;
int next_ticket() {
  static int counter = 0;
  counter = counter + 1;
  return ticket_base + counter;
}
int peek(int v) {
  int acc = 0;
  int i;
  for (i = 0; i < v; i = i + 1)
    acc = acc + ticket_base;
  return acc;
}
|}

let test_static_local_state_preserved () =
  (* live static-local state must survive a hot update of its function:
     the §6.3 capability "changes to functions with static local
     variables" that source-level systems cannot provide *)
  let tree, img, m = boot base_src in
  Alcotest.(check int32) "first ticket" 101l (call m img "next_ticket" []);
  Alcotest.(check int32) "second ticket" 102l (call m img "next_ticket" []);
  let tree' =
    Tree.add tree "k/t.c"
      (replace "return ticket_base + counter;"
         "return ticket_base + counter + 1000;"
         (Option.get (Tree.find tree "k/t.c")))
  in
  let u = mk_update ~id:"ticket" tree tree' in
  let mgr = Apply.init m in
  (match Apply.apply mgr u with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "apply: %a" Apply.pp_error e);
  (* counter continues from 2: live state preserved, new behaviour *)
  Alcotest.(check int32) "third ticket, patched" 1103l
    (call m img "next_ticket" []);
  (match Apply.undo mgr "ticket" with
   | Ok () -> ()
   | Error e -> Alcotest.failf "undo: %a" Apply.pp_error e);
  Alcotest.(check int32) "fourth ticket, restored code, kept state" 104l
    (call m img "next_ticket" [])

let test_verify_clean_and_damaged () =
  let tree, _img, m = boot base_src in
  let tree' =
    Tree.add tree "k/t.c"
      (replace "acc = acc + ticket_base;" "acc = acc + ticket_base + 1;"
         (Option.get (Tree.find tree "k/t.c")))
  in
  let u = mk_update ~id:"peek" tree tree' in
  let mgr = Apply.init m in
  let a =
    match Apply.apply mgr u with
    | Ok a -> a
    | Error e -> Alcotest.failf "apply: %a" Apply.pp_error e
  in
  (match Apply.verify mgr with
   | Ok () -> ()
   | Error e -> Alcotest.failf "verify after apply: %a" Apply.pp_error e);
  (* stomp the trampoline: verification must notice *)
  let r = List.hd a.replacements in
  let saved = Machine.read_bytes m r.r_old_addr 5 in
  Machine.write_bytes m r.r_old_addr (Bytes.make 1 '\x01' (* nop *));
  (match Apply.verify mgr with
   | Error (Apply.Integrity _) -> ()
   | Ok () -> Alcotest.fail "verify missed a stomped trampoline"
   | Error e -> Alcotest.failf "unexpected: %a" Apply.pp_error e);
  Machine.write_bytes m r.r_old_addr saved;
  (* stomp replacement code *)
  let mid = r.r_new_addr + 7 in
  let saved2 = Machine.read_bytes m mid 1 in
  Machine.write_bytes m mid (Bytes.make 1 '\xEE');
  (match Apply.verify mgr with
   | Error (Apply.Integrity _) -> ()
   | _ -> Alcotest.fail "verify missed damaged replacement code");
  Machine.write_bytes m mid saved2;
  match Apply.verify mgr with
  | Ok () -> ()
  | Error e -> Alcotest.failf "verify after repair: %a" Apply.pp_error e

let test_trampoline_chain_depth3 () =
  (* three stacked updates of one function: calls traverse the chain *)
  let tree, img, m = boot base_src in
  let mgr = Apply.init m in
  let bump n tree =
    Tree.add tree "k/t.c"
      (replace "acc = acc + ticket_base;"
         (Printf.sprintf "acc = acc + ticket_base + %d;" n)
         (Option.get (Tree.find tree "k/t.c")))
  in
  Alcotest.(check int32) "base" 300l (call m img "peek" [ 3l ]);
  let t1 = bump 1 tree in
  let u1 = mk_update ~id:"u1" tree t1 in
  (match Apply.apply mgr u1 with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "u1: %a" Apply.pp_error e);
  Alcotest.(check int32) "depth 1" 303l (call m img "peek" [ 3l ]);
  let t2 =
    Tree.add t1 "k/t.c"
      (replace "ticket_base + 1;" "ticket_base + 10;"
         (Option.get (Tree.find t1 "k/t.c")))
  in
  let u2 = mk_update ~id:"u2" t1 t2 in
  (match Apply.apply mgr u2 with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "u2: %a" Apply.pp_error e);
  Alcotest.(check int32) "depth 2" 330l (call m img "peek" [ 3l ]);
  let t3 =
    Tree.add t2 "k/t.c"
      (replace "ticket_base + 10;" "ticket_base + 100;"
         (Option.get (Tree.find t2 "k/t.c")))
  in
  let u3 = mk_update ~id:"u3" t2 t3 in
  (match Apply.apply mgr u3 with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "u3: %a" Apply.pp_error e);
  Alcotest.(check int32) "depth 3" 600l (call m img "peek" [ 3l ]);
  (match Apply.verify mgr with
   | Ok () -> ()
   | Error e -> Alcotest.failf "verify chain: %a" Apply.pp_error e);
  (* unwind the whole chain *)
  List.iter
    (fun id ->
      match Apply.undo mgr id with
      | Ok () -> ()
      | Error e -> Alcotest.failf "undo %s: %a" id Apply.pp_error e)
    [ "u3"; "u2"; "u1" ];
  Alcotest.(check int32) "fully unwound" 300l (call m img "peek" [ 3l ])

let test_verify_deep_stack () =
  (* 32 stacked updates of one function: each redirects the previous
     replacement (§5.4), so its jump lands inside that update's module
     text, in a window verify must exempt at any depth *)
  let depth = 32 in
  let tree, img, m = boot base_src in
  let src = Option.get (Tree.find tree "k/t.c") in
  let version n =
    if n = 0 then tree
    else
      Tree.add tree "k/t.c"
        (replace "acc = acc + ticket_base;"
           (Printf.sprintf "acc = acc + ticket_base + %d;" n)
           src)
  in
  let mgr = Apply.init m in
  for n = 1 to depth do
    let id = Printf.sprintf "u%d" n in
    match Apply.apply mgr (mk_update ~id (version (n - 1)) (version n)) with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s: %a" id Apply.pp_error e
  done;
  Alcotest.(check int32) "top of the stack runs" 396l
    (call m img "peek" [ 3l ]);
  let expect_clean what =
    match Apply.verify mgr with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: %a" what Apply.pp_error e
  in
  expect_clean "verify at depth 32";
  let peek id =
    let a =
      List.find (fun (a : Apply.applied) -> a.update.update_id = id)
        (Apply.applied mgr)
    in
    List.find (fun (r : Apply.replacement) -> r.r_fn = "peek") a.replacements
  in
  let r10 = peek "u10" and r11 = peek "u11" in
  Alcotest.(check int) "u11 redirects u10's replacement" r10.r_new_addr
    r11.r_old_addr;
  (* two damaged body bytes past the exempt window: the first is named *)
  let poke at v =
    let saved = Machine.read_bytes m at 1 in
    Machine.write_u8 m at v;
    saved
  in
  let first = r10.r_new_addr + 7 and second = r10.r_new_addr + 9 in
  let s1 = poke first (Machine.read_u8 m first lxor 0xff) in
  let s2 = poke second (Machine.read_u8 m second lxor 0xff) in
  (match Apply.verify mgr with
   | Error (Apply.Integrity msg) ->
     Alcotest.(check string) "names the update and the first address"
       (Printf.sprintf "update u10: replacement code at %#x was modified"
          first)
       msg
   | Ok () -> Alcotest.fail "verify missed damaged replacement code"
   | Error e -> Alcotest.failf "unexpected: %a" Apply.pp_error e);
  Machine.write_bytes m first s1;
  Machine.write_bytes m second s2;
  expect_clean "verify after repair";
  (* a rewritten byte inside u11's trampoline window is exempt: only the
     topmost redirect of peek owns its jump *)
  let w = poke (r11.r_old_addr + 4) 0x5a in
  expect_clean "rewritten exempt window";
  Machine.write_bytes m (r11.r_old_addr + 4) w;
  expect_clean "verify after restoring the window"

let test_hook_fault_aborts () =
  (* a custom hook that faults must abort the apply with Hook_fault *)
  let tree, _img, m = boot base_src in
  let tree' =
    Tree.add tree "k/t.c"
      (replace "return ticket_base + counter;"
         "return ticket_base + counter + 1;"
         (Option.get (Tree.find tree "k/t.c"))
       ^ {|
void bad_hook() {
  int *p = (int*)0;
  *p = 1;
}
ksplice_pre_apply(bad_hook);
|})
  in
  let u = mk_update ~id:"badhook" tree tree' in
  let mgr = Apply.init m in
  match Apply.apply mgr u with
  | Error (Apply.Hook_fault (_, Machine.Memory_violation _)) -> ()
  | Ok _ -> Alcotest.fail "expected hook fault"
  | Error e -> Alcotest.failf "unexpected error: %a" Apply.pp_error e

let test_verify_empty_manager () =
  let _, _, m = boot base_src in
  match Apply.verify (Apply.init m) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "verify empty: %a" Apply.pp_error e

let suite =
  [
    ( "apply-edge",
      [
        t "static local state preserved" test_static_local_state_preserved;
        t "verify clean and damaged" test_verify_clean_and_damaged;
        t "trampoline chain depth 3" test_trampoline_chain_depth3;
        t "verify on a 32-deep stack" test_verify_deep_stack;
        t "hook fault aborts" test_hook_fault_aborts;
        t "verify empty manager" test_verify_empty_manager;
      ] );
  ]
