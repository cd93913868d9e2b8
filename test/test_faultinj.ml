(* Transactional apply and fault injection: any injected fault at any
   pipeline step must roll the machine back byte-identically, undo must
   restore the image byte-identically, and the quiescence loop must use
   bounded backoff with useful diagnostics and report every pause. *)

module Tree = Patchfmt.Source_tree
module Diff = Patchfmt.Diff
module Image = Klink.Image
module Machine = Kernel.Machine
module Create = Ksplice.Create
module Apply = Ksplice.Apply
module Txn = Ksplice.Txn
module Faultinj = Ksplice.Faultinj

open Fixture

let t name f = Alcotest.test_case name `Quick f

let base_src =
  {|
int fares = 7;
int fare(int z) {
  int acc = 0;
  int i;
  for (i = 0; i < z; i = i + 1)
    acc = acc + fares;
  return acc;
}
int churn(int n) {
  int acc = 0;
  int i;
  for (i = 0; i < n; i = i + 1)
    acc = acc + fare(3);
  return acc;
}
|}

let contains ~needle hay =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let check_identical what m snap =
  match Machine.diff_snapshot m snap with
  | [] -> ()
  | diffs ->
    Alcotest.failf "%s: machine diverged from snapshot:\n  %s" what
      (String.concat "\n  " diffs)

(* --- alcotest cases --- *)

let test_undo_restores_bytes () =
  (* satellite 4: ksplice-undo replays the committed journal and the
     kernel image is byte-identical to its pre-apply state *)
  let tree, img, m = boot base_src in
  Alcotest.(check int32) "before" 21l (call m img "fare" [ 3l ]);
  let u = mk_update ~id:"fare" tree (patched_fare tree) in
  let mgr = Apply.init m in
  let snap = Machine.snapshot m in
  (match Apply.apply mgr u with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "apply: %a" Apply.pp_error e);
  Alcotest.(check int32) "patched" 24l (call m img "fare" [ 3l ]);
  (* the patched call above ran VM code, which moves thread bookkeeping;
     re-snapshot just the undo half on a quiet machine *)
  let tree2, img2, m2 = boot base_src in
  let u2 = mk_update ~id:"fare2" tree2 (patched_fare tree2) in
  let mgr2 = Apply.init m2 in
  let snap2 = Machine.snapshot m2 in
  (match Apply.apply mgr2 u2 with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "apply: %a" Apply.pp_error e);
  (match Apply.undo mgr2 "fare2" with
   | Ok () -> ()
   | Error e -> Alcotest.failf "undo: %a" Apply.pp_error e);
  check_identical "apply then undo" m2 snap2;
  Alcotest.(check int32) "behaviour restored" 21l (call m2 img2 "fare" [ 3l ]);
  (* and the first machine still undoes correctly even after use *)
  (match Apply.undo mgr "fare" with
   | Ok () -> ()
   | Error e -> Alcotest.failf "undo: %a" Apply.pp_error e);
  ignore snap;
  Alcotest.(check int32) "behaviour restored on used machine" 21l
    (call m img "fare" [ 3l ])

let test_backoff_reports_blockers () =
  (* satellite 2: bounded exponential backoff with attempt count and
     blocking-thread backtraces in the error *)
  let tree, img, m = boot base_src in
  (* park a thread inside fare itself: ~100M loop iterations, so every
     quiescence attempt deterministically finds it there *)
  let entry = (Option.get (Image.lookup_global img "fare")).addr in
  ignore (Machine.spawn m ~name:"churner" ~uid:0 ~entry ~args:[ 100000000l ]);
  ignore (Machine.run m ~steps:50 : int);
  let u = mk_update ~id:"fare" tree (patched_fare tree) in
  let mgr = Apply.init m in
  let snap = Machine.snapshot m in
  match
    Apply.apply mgr
      ~engage:(Apply.stop_machine ~retry_cap:400 ~retry_budget:1850 ())
      u
  with
  | Ok _ -> Alcotest.fail "expected Not_quiescent"
  | Error (Apply.Not_quiescent nq) ->
    (* the step budget bounds the attempts: backoffs of 250 + 4 x 400
       steps spend all 1850, so six attempts run *)
    Alcotest.(check int) "attempts the budget allows" 6 nq.nq_attempts;
    Alcotest.(check bool) "backoff consumed scheduler steps" true
      (nq.nq_steps_run > 0);
    Alcotest.(check bool) "names the patched function" true
      (List.exists
         (fun f -> fst (Ksplice.Update.split_canonical f) = "fare")
         nq.nq_functions);
    (* the parked thread executes inside fare: it must be named as the
       blocker, with a backtrace *)
    Alcotest.(check bool) "identifies the churner thread" true
      (List.exists
         (fun (who, bt) ->
           contains ~needle:"churner" who && bt <> [])
         nq.nq_blockers);
    check_identical "rollback after quiescence failure" m snap
  | Error e -> Alcotest.failf "unexpected error: %a" Apply.pp_error e

let test_budget_caps_backoff () =
  (* the step budget stops the retries *)
  let tree, img, m = boot base_src in
  let entry = (Option.get (Image.lookup_global img "fare")).addr in
  ignore (Machine.spawn m ~name:"churner" ~uid:0 ~entry ~args:[ 100000000l ]);
  ignore (Machine.run m ~steps:50 : int);
  let u = mk_update ~id:"fare" tree (patched_fare tree) in
  let mgr = Apply.init m in
  match
    Apply.apply mgr
      ~engage:(Apply.stop_machine ~retry_cap:1024 ~retry_budget:2000 ())
      u
  with
  | Ok _ -> Alcotest.fail "expected Not_quiescent"
  | Error (Apply.Not_quiescent nq) ->
    Alcotest.(check bool) "steps within budget" true (nq.nq_steps_run <= 2000)
  | Error e -> Alcotest.failf "unexpected error: %a" Apply.pp_error e

let test_pause_counts_every_attempt () =
  (* every attempt stops the machine, so a retried apply pauses for the
     sum: 500 us + 50 us per live thread while the blocker still runs
     fare(200), 500 us for the attempt that lands after it returned *)
  let tree, img, m = boot base_src in
  let entry = (Option.get (Image.lookup_global img "fare")).addr in
  ignore (Machine.spawn m ~name:"blocker" ~uid:0 ~entry ~args:[ 200l ]);
  let u = mk_update ~id:"fare" tree (patched_fare tree) in
  let mgr = Apply.init m in
  Trace.reset ();
  Trace.set_enabled true;
  let result, retries =
    Fun.protect
      ~finally:(fun () ->
        Trace.set_enabled false;
        Trace.reset ())
      (fun () ->
        let r = Apply.apply mgr u in
        (r, Trace.counter_value "apply.quiescence_retries"))
  in
  match result with
  | Error e -> Alcotest.failf "apply: %a" Apply.pp_error e
  | Ok a ->
    Alcotest.(check bool) "the blocker forced retries" true (retries > 0);
    Alcotest.(check int) "pause sums every attempt"
      ((retries * 550_000) + 500_000)
      a.Apply.pause_ns

let fault_case ~step ~expect_err () =
  let tree, img, m = boot base_src in
  let u = mk_update ~id:"fare" tree (patched_fare tree) in
  let mgr = Apply.init m in
  let snap = Machine.snapshot m in
  let session = Faultinj.make m { step; seed = 42 } in
  (match Apply.apply mgr ~inject:session u with
   | Ok _ -> Alcotest.fail "expected the injected fault to abort apply"
   | Error e ->
     Alcotest.(check bool)
       (Format.asprintf "error class for %s: %a" (Txn.step_name step)
          Apply.pp_error e)
       true (expect_err e));
  Alcotest.(check bool) "fault fired" true (Faultinj.fired session);
  check_identical
    ("rollback after fault at " ^ Txn.step_name step)
    m snap;
  Alcotest.(check int32) "old behaviour intact" 21l (call m img "fare" [ 3l ]);
  (* the machine must be reusable: a clean apply now succeeds *)
  (match Apply.apply mgr u with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "clean apply after fault: %a" Apply.pp_error e);
  Alcotest.(check int32) "patched after clean apply" 24l
    (call m img "fare" [ 3l ])

let test_oom_rolls_back =
  fault_case ~step:Txn.Allocate
    ~expect_err:(function Apply.Out_of_memory _ -> true | _ -> false)

let test_corrupt_reloc_detected =
  fault_case ~step:Txn.Relocate
    ~expect_err:(function Apply.Integrity _ -> true | _ -> false)

let test_hook_fault_at_commit_unwinds_trampolines () =
  (* the hardest rollback: post-apply hooks fault after the trampolines
     are live; rollback must lift them again *)
  let tree, img, m = boot base_src in
  let tree' =
    Tree.add tree "k/t.c"
      (replace "acc = acc + fares;" "acc = acc + fares + 1;"
         (Option.get (Tree.find tree "k/t.c"))
       ^ {|
int fare_fixup_ran = 0;
int fare_fixup() {
  fare_fixup_ran = 1;
  return 0;
}
ksplice_post_apply(fare_fixup);
|})
  in
  let u = mk_update ~id:"fare" tree tree' in
  let mgr = Apply.init m in
  let snap = Machine.snapshot m in
  let session = Faultinj.make m { step = Txn.Commit; seed = 7 } in
  (match Apply.apply mgr ~inject:session u with
   | Ok _ -> Alcotest.fail "expected the post-apply hook fault to abort"
   | Error (Apply.Hook_fault _) -> ()
   | Error e -> Alcotest.failf "unexpected error: %a" Apply.pp_error e);
  Alcotest.(check bool) "fault fired" true (Faultinj.fired session);
  check_identical "rollback after commit-step hook fault" m snap;
  Alcotest.(check int32) "trampoline lifted: old behaviour" 21l
    (call m img "fare" [ 3l ]);
  (match Apply.apply mgr u with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "clean apply: %a" Apply.pp_error e);
  Alcotest.(check int32) "patched" 24l (call m img "fare" [ 3l ])

let test_txn_double_close_raises () =
  (* closing a transaction twice is a programming error and must fail
     loudly, not silently corrupt the journal *)
  let _, _, m = boot base_src in
  let txn = Txn.begin_ m in
  Txn.discard txn;
  let expect_closed f =
    Alcotest.check_raises "second close rejected"
      (Invalid_argument "Txn: transaction already closed") (fun () -> f ())
  in
  expect_closed (fun () -> Txn.rollback txn);
  expect_closed (fun () -> ignore (Txn.commit txn : Txn.journal));
  expect_closed (fun () -> Txn.discard txn);
  (* the machine is untouched and a fresh transaction still works *)
  let txn2 = Txn.begin_ m in
  Txn.rollback txn2

let test_stacked_undo_hook_fault_leaves_both_applied () =
  (* two stacked updates; undoing the topmost fails in its reverse hook.
     The undo transaction must put the journal bytes back, leaving BOTH
     updates applied and the kernel byte-identical to pre-undo. *)
  let tree, img, m = boot base_src in
  let tree_a = patched_fare tree in
  let tree_b =
    Tree.add tree_a "k/t.c"
      (replace "acc = acc + fare(3);" "acc = acc + fare(3) + 1;"
         (Option.get (Tree.find tree_a "k/t.c"))
       ^ {|
int churn_unfix_ran = 0;
int churn_unfix() {
  churn_unfix_ran = 1;
  return 0;
}
ksplice_reverse(churn_unfix);
|})
  in
  let ua = mk_update ~id:"fareA" tree tree_a in
  let ub = mk_update ~id:"churnB" tree_a tree_b in
  let mgr = Apply.init m in
  (match Apply.apply mgr ua with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "apply A: %a" Apply.pp_error e);
  (match Apply.apply mgr ub with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "apply B: %a" Apply.pp_error e);
  Alcotest.(check int32) "both patches live" 25l (call m img "churn" [ 1l ]);
  let snap = Machine.snapshot m in
  (* fault every hook call: the reverse hook of B cannot run *)
  Machine.set_call_injector m (Some (fun pc -> Some (Machine.Memory_violation pc)));
  (match Apply.undo mgr "churnB" with
   | Ok () -> Alcotest.fail "expected the reverse hook fault to abort undo"
   | Error (Apply.Hook_fault _) -> ()
   | Error e -> Alcotest.failf "unexpected error: %a" Apply.pp_error e);
  Machine.set_call_injector m None;
  check_identical "failed undo rolled back" m snap;
  Alcotest.(check (list string)) "both updates still applied"
    [ "churnB"; "fareA" ]
    (List.map
       (fun (a : Apply.applied) -> a.update.Ksplice.Update.update_id)
       (Apply.applied mgr));
  Alcotest.(check int32) "patched behaviour intact" 25l
    (call m img "churn" [ 1l ]);
  (* with the injector gone the stack unwinds cleanly *)
  (match Apply.undo mgr "churnB" with
   | Ok () -> ()
   | Error e -> Alcotest.failf "clean undo B: %a" Apply.pp_error e);
  (match Apply.undo mgr "fareA" with
   | Ok () -> ()
   | Error e -> Alcotest.failf "clean undo A: %a" Apply.pp_error e);
  Alcotest.(check int32) "base behaviour restored" 21l
    (call m img "churn" [ 1l ])

(* --- the qcheck property (satellite 3): random CVE x step x seed --- *)

(* updates are machine-independent, so they are built once and cached;
   each property case boots a fresh machine (cheap, ~ms) so that one
   case's scheduler progress cannot bleed into the next *)
let corpus_updates =
  lazy
    (let base = Corpus.Base_kernel.tree () in
     let cache = Hashtbl.create 8 in
     fun (cve : Corpus.Cve.t) ->
       match Hashtbl.find_opt cache cve.id with
       | Some u -> u
       | None ->
         let u =
           match
             Create.create
               { source = base; patch = Corpus.Cve.hot_patch cve base;
                 update_id = cve.id; description = cve.desc }
           with
           | Ok c -> c.Create.update
           | Error e ->
             Alcotest.failf "%s: create: %a" cve.id Create.pp_error e
         in
         Hashtbl.add cache cve.id u;
         u)

(* a spread of corpus CVEs: plain, custom-code with apply hooks, custom
   with post-apply hooks, exploit-bearing *)
let prop_cves =
  [ "CVE-2006-2451"; "CVE-2005-3110"; "CVE-2005-2709"; "CVE-2008-0007";
    "CVE-2007-3851" ]

let prop_fault_rollback =
  let open QCheck2 in
  let gen =
    Gen.triple
      (Gen.oneofl prop_cves)
      (Gen.oneofl Txn.all_steps)
      (Gen.int_range 0 4095)
  in
  let print (id, step, seed) =
    Printf.sprintf "%s @ %s, seed %d" id (Txn.step_name step) seed
  in
  Test.make ~name:"faulted apply rolls back byte-identically" ~count:20
    ~print gen
    (fun (cve_id, step, seed) ->
      let update_of = Lazy.force corpus_updates in
      let b = Corpus.Boot.boot () in
      let mgr = Apply.init b.machine in
      let m = b.Corpus.Boot.machine in
      let cve = Option.get (Corpus.Cve.find cve_id) in
      let update = update_of cve in
      let snap = Machine.snapshot m in
      let session = Faultinj.make m { step; seed } in
      let result = Apply.apply mgr ~inject:session update in
      Faultinj.disarm session;
      let fired = Faultinj.fired session in
      let clean_undo () =
        match Apply.undo mgr cve.id with
        | Ok () -> true
        | Error e ->
          Test.fail_reportf "undo failed: %a" Apply.pp_error e
      in
      match result with
      | Error e ->
        (* the fault must have fired, the machine must be byte-identical,
           and a subsequent clean apply must succeed *)
        (match Machine.diff_snapshot m snap with
         | [] -> ()
         | d ->
           Test.fail_reportf "diverged after %a:\n%s" Apply.pp_error e
             (String.concat "\n" d));
        fired
        && (match Apply.apply mgr update with
            | Ok _ -> clean_undo ()
            | Error e ->
              Test.fail_reportf "clean apply failed: %a" Apply.pp_error e)
      | Ok _ ->
        (* benign or never-fired: verify, then undo for the next case *)
        (not (fired && Faultinj.expect_abort (Faultinj.kind_for_step step)))
        && (match Apply.verify mgr with
            | Ok () -> true
            | Error e ->
              Test.fail_reportf "verify: %a" Apply.pp_error e)
        && clean_undo ())

let suite =
  [
    ( "faultinj",
      [
        t "undo restores bytes identically" test_undo_restores_bytes;
        t "backoff reports attempts and blockers"
          test_backoff_reports_blockers;
        t "retry budget caps backoff" test_budget_caps_backoff;
        t "pause counts every stop_machine attempt"
          test_pause_counts_every_attempt;
        t "oom at allocate rolls back" test_oom_rolls_back;
        t "corrupt relocation detected and rolled back"
          test_corrupt_reloc_detected;
        t "hook fault at commit unwinds live trampolines"
          test_hook_fault_at_commit_unwinds_trampolines;
        t "double close raises" test_txn_double_close_raises;
        t "stacked undo hook fault leaves both applied"
          test_stacked_undo_hook_fault_leaves_both_applied;
        QCheck_alcotest.to_alcotest prop_fault_rollback;
      ] );
  ]
