(* Atomic replace: a cumulative update supersedes the applied stack in
   one transaction. Unit tests for the stack semantics (collapse,
   footprint parity with the undo-then-apply twin, re-stacking on undo,
   the contiguous-top-segment integrity checks, byte-identical fault
   rollback) plus a shallow run of the corpus cumulative sweep, which
   also round-trips the shadow-variable extras (§5.3). *)

module Tree = Patchfmt.Source_tree
module Diff = Patchfmt.Diff
module Create = Ksplice.Create
module Apply = Ksplice.Apply
module Txn = Ksplice.Txn
module Faultinj = Ksplice.Faultinj
module Image = Klink.Image
module Machine = Kernel.Machine

let t name f = Alcotest.test_case name `Quick f

let base_tree =
  Tree.of_list
    [ ( "kernel/k.c",
        "int level = 1;\n\
         int probe(int x) {\n\
        \  int acc = 0;\n\
        \  int i;\n\
        \  for (i = 0; i < x; i = i + 1)\n\
        \    acc = acc + level;\n\
        \  return acc;\n\
         }\n" ) ]

let edit tree f =
  Tree.add tree "kernel/k.c" (f (Option.get (Tree.find tree "kernel/k.c")))

(* probe(4): base 4, tree1 8, tree2 12 *)
let tree1 =
  edit base_tree
    (Fixture.replace "acc = acc + level;" "acc = acc + level + 1;")

let tree2 =
  edit tree1
    (Fixture.replace "acc = acc + level + 1;" "acc = acc + level + 2;")

let mk_update ?supersedes ~id ~from ~to_ () =
  match
    Create.create ?supersedes
      { source = from; patch = Diff.diff_trees from to_; update_id = id;
        description = id }
  with
  | Ok c -> c.update
  | Error e -> Alcotest.failf "create %s: %a" id Create.pp_error e

let u1 () = mk_update ~id:"hop-1" ~from:base_tree ~to_:tree1 ()
let u2 () = mk_update ~id:"hop-2" ~from:tree1 ~to_:tree2 ()

let cum ?(supersedes = [ "hop-1"; "hop-2" ]) () =
  mk_update ~supersedes ~id:"cum" ~from:base_tree ~to_:tree2 ()

let boot_base () =
  let build = Fixture.build ~options:Minic.Driver.run_build base_tree in
  let img = Fixture.link ~base:0x100000 (Kbuild.objects build) in
  let m = Machine.create img in
  let mgr = Apply.init m in
  let call () =
    let sym = Option.get (Image.lookup_global img "probe") in
    match Machine.call_function m ~addr:sym.addr ~args:[ 4l ] with
    | Ok v -> v
    | Error f -> Alcotest.failf "probe: %a" Machine.pp_fault f
  in
  (mgr, call)

let apply_ok mgr u =
  match Apply.apply mgr u with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "apply %s: %a" u.Ksplice.Update.update_id Apply.pp_error e

let undo_ok mgr id =
  match Apply.undo mgr id with
  | Ok () -> ()
  | Error e -> Alcotest.failf "undo %s: %a" id Apply.pp_error e

let stack_ids mgr =
  List.rev_map
    (fun (a : Apply.applied) -> a.Apply.update.Ksplice.Update.update_id)
    (Apply.applied mgr)

let stack_two mgr =
  apply_ok mgr (u1 ());
  apply_ok mgr (u2 ())

let test_collapse () =
  let mgr, call = boot_base () in
  stack_two mgr;
  Alcotest.(check int32) "stacked" 12l (call ());
  (match Apply.apply_cumulative mgr (cum ()) with
   | Ok a ->
     Alcotest.(check int) "two updates displaced" 2
       (List.length a.Apply.displaced)
   | Error e -> Alcotest.failf "atomic replace: %a" Apply.pp_error e);
  Alcotest.(check (list string)) "one update on the stack" [ "cum" ]
    (stack_ids mgr);
  Alcotest.(check int32) "behaviour preserved" 12l (call ());
  match Apply.verify mgr with
  | Ok () -> ()
  | Error e -> Alcotest.failf "verify: %a" Apply.pp_error e

let test_footprint_matches_plain_twin () =
  let mgra, _ = boot_base () in
  let mgrb, _ = boot_base () in
  let c = cum () in
  (* twin A: unwind by hand, then a plain apply of the same update *)
  stack_two mgra;
  undo_ok mgra "hop-2";
  undo_ok mgra "hop-1";
  apply_ok mgra c;
  (* twin B: one atomic replace *)
  stack_two mgrb;
  (match Apply.apply_cumulative mgrb c with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "atomic replace: %a" Apply.pp_error e);
  Alcotest.(check string) "byte-identical footprints" (Apply.footprint mgra)
    (Apply.footprint mgrb)

let test_undo_restacks () =
  let mgr, call = boot_base () in
  stack_two mgr;
  (match Apply.apply_cumulative mgr (cum ()) with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "atomic replace: %a" Apply.pp_error e);
  undo_ok mgr "cum";
  Alcotest.(check (list string)) "chain re-stacked, oldest first"
    [ "hop-1"; "hop-2" ] (stack_ids mgr);
  Alcotest.(check int32) "stacked behaviour back" 12l (call ());
  (match Apply.verify mgr with
   | Ok () -> ()
   | Error e -> Alcotest.failf "verify after un-collapse: %a" Apply.pp_error e);
  (* and the revived chain unwinds all the way down *)
  undo_ok mgr "hop-2";
  undo_ok mgr "hop-1";
  Alcotest.(check (list string)) "empty stack" [] (stack_ids mgr);
  Alcotest.(check int32) "base behaviour restored" 4l (call ())

let test_undo_keeps_revived_modules () =
  (* undoing the cumulative revives the displaced modules where they
     were, so nothing allocated while it is applied (shadow memory, a
     user program) or after its undo may lie there *)
  let mgr, _ = boot_base () in
  let m = Apply.machine mgr in
  stack_two mgr;
  let top =
    List.fold_left
      (fun top (a : Apply.applied) ->
        List.fold_left (fun top (_, hi) -> max top hi) top a.module_ranges)
      0 (Apply.applied mgr)
  in
  (match Apply.apply_cumulative mgr (cum ()) with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "atomic replace: %a" Apply.pp_error e);
  let marker = Machine.alloc_module m ~size:16 ~align:4 in
  for i = 0 to 3 do
    Machine.write_i32 m (marker + (4 * i)) 0x5a5a5a5al
  done;
  undo_ok mgr "cum";
  Alcotest.(check (list string)) "chain re-stacked" [ "hop-1"; "hop-2" ]
    (stack_ids mgr);
  for i = 0 to 3 do
    Alcotest.(check int32) "the marker survives the undo" 0x5a5a5a5al
      (Machine.read_i32 m (marker + (4 * i)))
  done;
  Alcotest.(check bool) "the next allocation clears the revived modules" true
    (Machine.alloc_module m ~size:1 ~align:1 >= top)

let test_fresh_machine_collapses_trivially () =
  let mgr, call = boot_base () in
  (match Apply.apply_cumulative mgr (cum ()) with
   | Ok a ->
     Alcotest.(check int) "nothing displaced" 0 (List.length a.Apply.displaced)
   | Error e -> Alcotest.failf "atomic replace: %a" Apply.pp_error e);
  Alcotest.(check (list string)) "installed" [ "cum" ] (stack_ids mgr);
  Alcotest.(check int32) "patched" 12l (call ())

let expect_integrity what = function
  | Error (Apply.Integrity _) -> ()
  | Ok _ -> Alcotest.failf "%s: expected an integrity error" what
  | Error e -> Alcotest.failf "%s: unexpected error: %a" what Apply.pp_error e

let test_integrity_checks () =
  (* supersedes nothing: not a cumulative update *)
  let mgr, _ = boot_base () in
  expect_integrity "non-cumulative" (Apply.apply_cumulative mgr (u1 ()));
  (* a superseded update buried beneath an unsuperseded one *)
  let mgr2, call = boot_base () in
  stack_two mgr2;
  expect_integrity "buried"
    (Apply.apply_cumulative mgr2 (cum ~supersedes:[ "hop-1" ] ()));
  (* supersedes out of chain order *)
  expect_integrity "order"
    (Apply.apply_cumulative mgr2 (cum ~supersedes:[ "hop-2"; "hop-1" ] ()));
  (* both rejections left the stack alone *)
  Alcotest.(check (list string)) "stack untouched" [ "hop-1"; "hop-2" ]
    (stack_ids mgr2);
  Alcotest.(check int32) "behaviour untouched" 12l (call ())

let test_fault_rolls_back_whole_collapse () =
  let mgr, _ = boot_base () in
  stack_two mgr;
  let c = cum () in
  let m = Apply.machine mgr in
  List.iteri
    (fun i step ->
      let snap = Machine.snapshot m in
      let plan = { Faultinj.step; seed = 7 + i } in
      let session = Faultinj.make m plan in
      let r = Apply.apply_cumulative mgr ~inject:session c in
      Faultinj.disarm session;
      match r with
      | Error _ ->
        Alcotest.(check (list string))
          (Format.asprintf "%a leaves the machine byte-identical"
             Faultinj.pp_plan plan)
          []
          (Machine.diff_snapshot m snap);
        Alcotest.(check (list string))
          (Format.asprintf "%a leaves the stack standing" Faultinj.pp_plan
             plan)
          [ "hop-1"; "hop-2" ] (stack_ids mgr)
      | Ok _ ->
        (* benign or unfired: un-collapse to re-baseline the next step *)
        undo_ok mgr "cum")
    Txn.all_steps

let test_sweep_shallow () =
  let module Sweep = Corpus.Sweep in
  let shadows = List.map (fun c -> Sweep.Shadow c) Corpus.Cve.shadow_extras in
  let r =
    Sweep.run ~rows:([ Sweep.Depth 1; Sweep.Depth 2 ] @ shadows)
      Sweep.cumulative
  in
  if not (Sweep.ok r) then Alcotest.failf "cumulative sweep: %a" Sweep.pp r;
  let depth_rows =
    List.filter_map (function Sweep.Collapse row -> Some row | _ -> None) r.rows
  in
  let shadow_rows =
    List.filter_map
      (function Sweep.Shadow_round_trip row -> Some row | _ -> None)
      r.rows
  in
  Alcotest.(check int) "both depth rows ran" 2 (List.length depth_rows);
  List.iter
    (fun (row : Sweep.curow) ->
      Alcotest.(check int)
        (Printf.sprintf "depth %d fully published" row.cu_requested)
        row.cu_requested row.cu_depth;
      Alcotest.(check bool) "fsck clean" true row.cu_fsck_clean)
    depth_rows;
  Alcotest.(check int) "both shadow extras round-tripped" 2
    (List.length shadow_rows);
  List.iter
    (fun (row : Sweep.cushadow) ->
      Alcotest.(check bool)
        (row.cs_cve ^ " attached shadows")
        true (row.cs_shadows > 0))
    shadow_rows

let suite =
  [
    ( "cumulative",
      [
        t "atomic replace collapses the stack" test_collapse;
        t "footprint matches the plain twin" test_footprint_matches_plain_twin;
        t "undo re-stacks the superseded chain" test_undo_restacks;
        t "undo keeps the revived modules' memory"
          test_undo_keeps_revived_modules;
        t "fresh machine collapses trivially"
          test_fresh_machine_collapses_trivially;
        t "integrity checks refuse bad stacks" test_integrity_checks;
        t "every fault rolls back the whole collapse"
          test_fault_rolls_back_whole_collapse;
        t "corpus sweep at shallow depth" test_sweep_shallow;
      ] );
  ]
