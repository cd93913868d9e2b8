(* The per-thread consistency model: dispatch routing, safe-point
   migration, pauseless convergence under load, the reverse transition,
   the forced-straggler fallback, and byte-identical rollback of a
   failed mid-transition apply. *)

module Tree = Patchfmt.Source_tree
module Diff = Patchfmt.Diff
module Image = Klink.Image
module Machine = Kernel.Machine
module Create = Ksplice.Create
module Apply = Ksplice.Apply
module Transition = Manager.Transition

open Fixture

let t name f = Alcotest.test_case name `Quick f

(* [spin] burns scheduler time without ever touching [fare]: a busy
   thread that stays migratable and keeps the clock honest (no
   time-teleport while a straggler sleeps) *)
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
int spin(int n) {
  int acc = 0;
  int i;
  for (i = 0; i < n; i = i + 1)
    acc = acc + i;
  return acc;
}
|}

let entry_of img name = (Option.get (Image.lookup_global img name)).addr

let apply_ok ?engage mgr u =
  match Apply.apply mgr ?engage u with
  | Ok a -> a
  | Error e -> Alcotest.failf "apply: %a" Apply.pp_error e

let drive m =
  (* run until every spawned thread is done *)
  let budget = ref 200 in
  while
    !budget > 0
    && List.exists
         (fun (th : Machine.thread) ->
           match th.state with
           | Machine.Runnable | Machine.Sleeping _ -> true
           | _ -> false)
         (Machine.threads m)
  do
    decr budget;
    if Machine.run m ~steps:20_000 = 0 then budget := 0
  done

(* --- dispatch stubs route by patch_state --- *)

let test_dispatch_routing () =
  let _, img, m = boot base_src in
  let fare = entry_of img "fare" in
  let spin = entry_of img "spin" in
  (* a transition routing fare -> spin for migrated threads; the
     synthetic call_function thread starts on the goal side, so the
     call lands in spin: spin(3) = 0+1+2 = 3, not fare(3) = 21 *)
  Machine.begin_transition m ~update:"u" ~route_migrated:true
    [ (fare, spin) ];
  Alcotest.(check int32) "migrated thread routed" 3l (call m img "fare" [ 3l ]);
  Machine.end_transition m;
  Alcotest.(check int32) "no transition, no routing" 21l
    (call m img "fare" [ 3l ]);
  (* reverse polarity: a migrated thread falls through to the entry *)
  Machine.begin_transition m ~update:"u" ~route_migrated:false
    [ (fare, spin) ];
  Alcotest.(check int32) "migrated thread falls through" 21l
    (call m img "fare" [ 3l ]);
  Machine.end_transition m;
  Alcotest.check_raises "double end rejected"
    (Invalid_argument "Machine.end_transition: no active transition")
    (fun () -> Machine.end_transition m)

(* --- at rest, the per-thread apply is byte-identical to stop_machine --- *)

let test_at_rest_identity () =
  let tree, img_a, ma = boot base_src in
  let _, img_b, mb = boot base_src in
  let u = mk_update ~id:"fare" tree (patched_fare tree) in
  let mgra = Apply.init ma in
  let mgrb = Apply.init mb in
  let stats = ref None in
  ignore
    (apply_ok ~engage:(Transition.engage ~on_stats:(fun s -> stats := Some s) ())
       mgra u
      : Apply.applied);
  ignore (apply_ok mgrb u : Apply.applied);
  (* full cross-machine byte identity: at rest both engagements must
     produce exactly the same machine *)
  (match Machine.diff_snapshot ma (Machine.snapshot mb) with
   | [] -> ()
   | d ->
     Alcotest.failf "per-thread apply diverged from stop_machine:\n  %s"
       (String.concat "\n  " d));
  (match !stats with
   | Some s ->
     Alcotest.(check int) "no pause" 0 s.Transition.st_pause_ns;
     Alcotest.(check int) "no forced migration" 0 s.Transition.st_forced
   | None -> Alcotest.fail "engagement reported no stats");
  Alcotest.(check int32) "patched on A" 24l (call ma img_a "fare" [ 3l ]);
  Alcotest.(check int32) "patched on B" 24l (call mb img_b "fare" [ 3l ])

(* --- under load: convergence with zero pause, correct behaviour --- *)

let test_under_load_no_pause () =
  let tree, img, m = boot base_src in
  let churn = entry_of img "churn" in
  let workers =
    List.init 3 (fun i ->
        Machine.spawn m
          ~name:(Printf.sprintf "worker/%d" i)
          ~uid:1000 ~entry:churn ~args:[ 400l ])
  in
  ignore (Machine.run m ~steps:500 : int);
  let u = mk_update ~id:"fare" tree (patched_fare tree) in
  let mgr = Apply.init m in
  let stats = ref None in
  ignore
    (apply_ok ~engage:(Transition.engage ~on_stats:(fun s -> stats := Some s) ())
       mgr u
      : Apply.applied);
  let s = Option.get !stats in
  Alcotest.(check int) "no pause under load" 0 s.Transition.st_pause_ns;
  Alcotest.(check bool) "no fallback" false s.Transition.st_fallback;
  Alcotest.(check bool) "every live worker migrated at a safe point" true
    (List.for_all
       (fun (th : Machine.thread) ->
         List.exists
           (fun (mg : Transition.migration) -> mg.mg_tid = th.tid)
           s.Transition.st_migrations)
       workers);
  Alcotest.(check bool) "scheduler actually ran mid-transition" true
    (s.Transition.st_sched_steps > 0);
  drive m;
  List.iter
    (fun (th : Machine.thread) ->
      match th.state with
      | Machine.Exited _ -> ()
      | _ -> Alcotest.failf "worker %d did not finish cleanly" th.tid)
    workers;
  Alcotest.(check int32) "patched behaviour" 24l (call m img "fare" [ 3l ]);
  Alcotest.(check bool) "transition dismantled" true
    (Machine.transition_update m = None)

(* --- the reverse transition: undo under load --- *)

let test_reverse_transition_under_load () =
  let tree, img, m = boot base_src in
  let u = mk_update ~id:"fare" tree (patched_fare tree) in
  let mgr = Apply.init m in
  let fare = entry_of img "fare" in
  let pre_bytes = Machine.read_bytes m fare 5 in
  ignore (apply_ok mgr u : Apply.applied);
  Alcotest.(check int32) "patched" 24l (call m img "fare" [ 3l ]);
  let churn = entry_of img "churn" in
  let workers =
    List.init 3 (fun i ->
        Machine.spawn m
          ~name:(Printf.sprintf "worker/%d" i)
          ~uid:1000 ~entry:churn ~args:[ 400l ])
  in
  ignore (Machine.run m ~steps:500 : int);
  let stats = ref None in
  (match
     Apply.undo mgr
       ~engage:(Transition.engage ~on_stats:(fun s -> stats := Some s) ())
       "fare"
   with
   | Ok () -> ()
   | Error e -> Alcotest.failf "reverse transition: %a" Apply.pp_error e);
  let s = Option.get !stats in
  Alcotest.(check int) "reverse transition never paused" 0
    s.Transition.st_pause_ns;
  Alcotest.(check bool) "undo direction recorded" true
    (s.Transition.st_direction = `Undo);
  Alcotest.(check bytes) "entry bytes restored" pre_bytes
    (Machine.read_bytes m fare 5);
  drive m;
  List.iter
    (fun (th : Machine.thread) ->
      match th.state with
      | Machine.Exited _ -> ()
      | _ -> Alcotest.failf "worker %d did not finish cleanly" th.tid)
    workers;
  Alcotest.(check int32) "old behaviour restored" 21l
    (call m img "fare" [ 3l ])

(* --- a straggler demotes the engagement to the bounded fallback --- *)

(* a spinner keeps the clock honest while a straggler sleeps at fare's
   entry: pc inside the guard range, immune to safe points until it
   wakes — long after the migration budget of [straggler_budget] *)
let straggler_machine () =
  let tree, img, m = boot base_src in
  ignore
    (Machine.spawn m ~name:"spinner" ~uid:1000 ~entry:(entry_of img "spin")
       ~args:[ 2_000_000l ]
      : Machine.thread);
  let straggler =
    Machine.spawn m ~name:"straggler" ~uid:1000 ~entry:(entry_of img "fare")
      ~args:[ 1l ]
  in
  straggler.Machine.state <- Machine.Sleeping (Machine.tick m + 3_000);
  (tree, img, m, straggler)

let straggler_budget = 2_000

let test_forced_straggler_fallback () =
  let tree, img, m, straggler = straggler_machine () in
  let u = mk_update ~id:"fare" tree (patched_fare tree) in
  let mgr = Apply.init m in
  let stats = ref None in
  let eng =
    Transition.engage ~budget:straggler_budget
      ~on_stats:(fun s -> stats := Some s)
      ()
  in
  ignore (apply_ok ~engage:eng mgr u : Apply.applied);
  let s = Option.get !stats in
  Alcotest.(check bool) "fallback engaged" true s.Transition.st_fallback;
  Alcotest.(check bool) "straggler was force-migrated" true
    (List.exists
       (fun (mg : Transition.migration) ->
         mg.mg_tid = straggler.Machine.tid
         && mg.mg_class = Transition.Forced)
       s.Transition.st_migrations);
  Alcotest.(check bool) "fallback pause is the stop_machine cost" true
    (s.Transition.st_pause_ns > 0);
  (* byte identity against a stop_machine twin: the fallback must land
     exactly what the paper's engagement lands *)
  let tree_b, _, mb = boot base_src in
  let mgrb = Apply.init mb in
  ignore
    (apply_ok mgrb (mk_update ~id:"fare" tree_b (patched_fare tree_b))
      : Apply.applied);
  Alcotest.(check string) "footprint identical to stop_machine"
    (Apply.footprint mgrb) (Apply.footprint mgr);
  (* the straggler ran the OLD code to completion: per-thread
     consistency let it finish its in-flight call *)
  drive m;
  (match straggler.Machine.state with
   | Machine.Exited v -> Alcotest.(check int32) "old fare(1)" 7l v
   | _ -> Alcotest.fail "straggler never finished");
  Alcotest.(check int32) "patched afterwards" 24l (call m img "fare" [ 3l ])

(* --- the fallback honours an injected quiescence veto --- *)

let test_fallback_honours_veto () =
  let tree, _, m, _ = straggler_machine () in
  let u = mk_update ~id:"fare" tree (patched_fare tree) in
  let mgr = Apply.init m in
  let snap = Machine.snapshot m in
  let session =
    Ksplice.Faultinj.make m { step = Ksplice.Txn.Quiesce; seed = 0 }
  in
  (match
     Apply.apply mgr ~inject:session
       ~engage:(Transition.engage ~budget:straggler_budget ())
       u
   with
   | Error (Apply.Not_quiescent _) -> ()
   | Ok _ -> Alcotest.fail "the vetoed fallback landed the update"
   | Error e -> Alcotest.failf "unexpected error: %a" Apply.pp_error e);
  Alcotest.(check bool) "veto fired" true (Ksplice.Faultinj.fired session);
  match Machine.diff_snapshot m snap with
  | [] -> ()
  | d ->
    Alcotest.failf "vetoed fallback left the machine diverged:\n  %s"
      (String.concat "\n  " d)

(* --- a mid-transition failure rolls back byte-identically --- *)

let test_mid_transition_rollback () =
  let tree, img, m = boot base_src in
  (* a churner that never leaves fare: the fallback cannot quiesce *)
  ignore
    (Machine.spawn m ~name:"churner" ~uid:0 ~entry:(entry_of img "fare")
       ~args:[ 100000000l ]
      : Machine.thread);
  ignore (Machine.run m ~steps:50 : int);
  let u = mk_update ~id:"fare" tree (patched_fare tree) in
  let mgr = Apply.init m in
  let snap = Machine.snapshot m in
  let eng = Transition.engage ~budget:1_000 () in
  (match Apply.apply mgr ~engage:eng u with
   | Ok _ -> Alcotest.fail "expected the transition to fail"
   | Error (Apply.Not_quiescent nq) ->
     Alcotest.(check bool) "diagnostics name the churner" true
       (List.exists
          (fun (who, _) ->
            let n = String.length "churner" in
            let rec go i =
              i + n <= String.length who
              && (String.sub who i n = "churner" || go (i + 1))
            in
            go 0)
          nq.Apply.nq_blockers)
   | Error e -> Alcotest.failf "unexpected error: %a" Apply.pp_error e);
  Alcotest.(check bool) "transition dismantled after failure" true
    (Machine.transition_update m = None);
  (match Machine.diff_snapshot m snap with
   | [] -> ()
   | d ->
     Alcotest.failf "mid-transition abort left the machine diverged:\n  %s"
       (String.concat "\n  " d));
  Alcotest.(check int32) "old behaviour intact" 21l (call m img "fare" [ 3l ])

(* --- while a transition is in flight, other pipelines are refused --- *)

let test_transition_excludes_other_applies () =
  let tree, img, m = boot base_src in
  let u = mk_update ~id:"fare" tree (patched_fare tree) in
  let mgr = Apply.init m in
  Machine.begin_transition m ~update:"other" ~route_migrated:true
    [ (entry_of img "fare", entry_of img "spin") ];
  (match Apply.apply mgr u with
   | Error (Apply.Integrity _) -> ()
   | Ok _ -> Alcotest.fail "apply accepted during a foreign transition"
   | Error e -> Alcotest.failf "unexpected error: %a" Apply.pp_error e);
  Machine.end_transition m;
  ignore (apply_ok mgr u : Apply.applied);
  Machine.begin_transition m ~update:"other" ~route_migrated:true [];
  (match Apply.undo mgr "fare" with
   | Error (Apply.Integrity _) -> ()
   | Ok () -> Alcotest.fail "undo accepted during a foreign transition"
   | Error e -> Alcotest.failf "unexpected error: %a" Apply.pp_error e);
  Machine.end_transition m;
  match Apply.undo mgr "fare" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "clean undo: %a" Apply.pp_error e

(* --- qcheck: at rest, per-thread apply+undo === stop_machine, for a
   spread of corpus CVEs and machine histories --- *)

let prop_cves =
  [ "CVE-2006-2451"; "CVE-2005-3110"; "CVE-2005-2709"; "CVE-2008-0007";
    "CVE-2007-3851" ]

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

let prop_at_rest_identity =
  let open QCheck2 in
  let gen = Gen.pair (Gen.oneofl prop_cves) (Gen.int_range 0 3) in
  let print (id, k) = Printf.sprintf "%s after %d syscalls" id k in
  Test.make
    ~name:"per-thread apply+undo is byte-identical to stop_machine"
    ~count:10 ~print gen
    (fun (cve_id, k) ->
      let update_of = Lazy.force corpus_updates in
      let cve = Option.get (Corpus.Cve.find cve_id) in
      let update = update_of cve in
      let ba = Corpus.Boot.boot () in
      let bb = Corpus.Boot.boot () in
      (* identical machine histories before the apply *)
      List.iter
        (fun (b : Corpus.Boot.booted) ->
          for i = 1 to k do
            ignore (Corpus.Boot.syscall b ~uid:1000 0 [ Int32.of_int i ])
          done)
        [ ba; bb ];
      let mgra = Apply.init ba.Corpus.Boot.machine in
      let mgrb = Apply.init bb.Corpus.Boot.machine in
      let identical what =
        match
          Machine.diff_snapshot ba.Corpus.Boot.machine
            (Machine.snapshot bb.Corpus.Boot.machine)
        with
        | [] -> true
        | d ->
          Test.fail_reportf "%s: machines diverged:\n%s" what
            (String.concat "\n" d)
      in
      let engage = Transition.engage () in
      (match Apply.apply mgra ~engage update with
       | Ok _ -> ()
       | Error e ->
         Test.fail_reportf "per-thread apply: %a" Apply.pp_error e);
      (match Apply.apply mgrb update with
       | Ok _ -> ()
       | Error e -> Test.fail_reportf "baseline apply: %a" Apply.pp_error e);
      identical "after apply"
      &&
      ((match Apply.undo mgra ~engage cve.id with
        | Ok () -> ()
        | Error e ->
          Test.fail_reportf "per-thread undo: %a" Apply.pp_error e);
       (match Apply.undo mgrb cve.id with
        | Ok () -> ()
        | Error e -> Test.fail_reportf "baseline undo: %a" Apply.pp_error e);
       identical "after undo"))

let suite =
  [
    ( "transition",
      [
        t "dispatch stubs route by patch_state" test_dispatch_routing;
        t "at rest: byte-identical to stop_machine" test_at_rest_identity;
        t "under load: zero pause, all safe-point migrations"
          test_under_load_no_pause;
        t "reverse transition under load" test_reverse_transition_under_load;
        t "forced straggler converges through the fallback"
          test_forced_straggler_fallback;
        t "fallback honours the quiescence veto" test_fallback_honours_veto;
        t "mid-transition failure rolls back byte-identically"
          test_mid_transition_rollback;
        t "in-flight transition excludes other pipelines"
          test_transition_excludes_other_applies;
        QCheck_alcotest.to_alcotest prop_at_rest_identity;
      ] );
  ]
