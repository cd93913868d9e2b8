module Machine = Kernel.Machine
module Apply = Ksplice.Apply
module Txn = Ksplice.Txn

let src =
  Logs.Src.create "ksplice.transition" ~doc:"Per-thread transition manager"

module Log = (val Logs.src_log src : Logs.LOG)

type policy = {
  slice : int;
  budget : int;
  fb_max_attempts : int;
  fb_retry_base : int;
  fb_retry_cap : int;
  fb_retry_budget : int;
}

let default_policy =
  { slice = 400;
    budget = 40_000;
    fb_max_attempts = 10;
    fb_retry_base = 250;
    fb_retry_cap = 4_000;
    fb_retry_budget = 20_000 }

type sp_class = Scan | Syscall | Quantum | Forced

let sp_class_name = function
  | Scan -> "scan"
  | Syscall -> "syscall"
  | Quantum -> "quantum"
  | Forced -> "forced"

let all_classes = [ Scan; Syscall; Quantum; Forced ]

type migration = {
  mg_tid : int;
  mg_name : string;
  mg_class : sp_class;
  mg_at : int;
}

type stats = {
  st_update : string;
  st_direction : [ `Apply | `Undo ];
  st_threads : int;
  st_migrations : migration list;
  st_rounds : int;
  st_sched_steps : int;
  st_fallback : bool;
  st_forced : int;
  st_pause_ns : int;
}

let migrated_by_class stats =
  List.map
    (fun c ->
      ( c,
        List.length
          (List.filter (fun m -> m.mg_class = c) stats.st_migrations) ))
    all_classes

let pp_stats ppf s =
  Format.fprintf ppf
    "%s %s: %d threads migrated in %d rounds (%d sched steps)%s; pause %d \
     ns; by class: %s"
    (match s.st_direction with `Apply -> "apply" | `Undo -> "undo")
    s.st_update
    (List.length s.st_migrations)
    s.st_rounds s.st_sched_steps
    (if s.st_fallback then
       Printf.sprintf " [stop_machine fallback, %d forced]" s.st_forced
     else "")
    s.st_pause_ns
    (String.concat ", "
       (List.filter_map
          (fun (c, n) ->
            if n = 0 then None
            else Some (Printf.sprintf "%s=%d" (sp_class_name c) n))
          (migrated_by_class s)))

let backoff_steps ~base ~cap n = min cap (base * (1 lsl min n 20))

(* The livepatch-style engagement: dispatch stubs + safe-point
   migration, with §5.2 stop_machine demoted to a bounded fallback for
   stragglers. Plugged into [Apply.apply]/[Apply.undo] via [?engage]. *)
let engage ?(policy = default_policy) ?on_stats () (e : Apply.engagement) =
  let m = e.Apply.e_machine in
  let migrations = ref [] in
  let forced = ref 0 in
  let record (th : Machine.thread) cls =
    migrations :=
      { mg_tid = th.tid; mg_name = th.name; mg_class = cls;
        mg_at = Machine.instructions_retired m }
      :: !migrations;
    Trace.count ("transition.migrated." ^ sp_class_name cls) 1
  in
  (* the per-thread §5.2 check: a thread migrates the moment neither its
     pc nor any live stack word touches the guarded ranges *)
  let try_migrate cls (th : Machine.thread) =
    if
      (not (Machine.thread_migrated th))
      && not (Apply.thread_blocks m e.e_guard_ranges th)
    then begin
      Machine.migrate_thread th;
      record th cls
    end
  in
  let scan () = List.iter (try_migrate Scan) (Machine.threads m) in
  let all_migrated () =
    List.for_all Machine.thread_migrated (Machine.threads m)
  in
  let n_threads = List.length (Machine.threads m) in
  Trace.count "transition.engagements" 1;
  e.e_enter Txn.Transition;
  (* undo restores the original entry bytes here, so the fall-through
     side of every dispatch stub is executable before any thread runs *)
  e.e_prepare ();
  Machine.begin_transition m ~update:e.e_update
    ~route_migrated:e.e_route_migrated e.e_dispatch;
  let fail err =
    Machine.set_safepoint_hook m None;
    (match Machine.transition_update m with
     | Some _ -> Machine.end_transition m
     | None -> ());
    Error err
  in
  (* initial stack-check pass: exited threads and sleepers already clear
     of the guard ranges migrate without ever reaching a safe point *)
  scan ();
  Machine.set_safepoint_hook m
    (Some
       (fun th sp ->
         try_migrate
           (match sp with
            | Machine.Sp_syscall -> Syscall
            | Machine.Sp_quantum -> Quantum)
           th));
  let rounds = ref 0 in
  let sched_steps = ref 0 in
  let stalled = ref false in
  while
    (not (all_migrated ()))
    && !sched_steps < policy.budget
    && not !stalled
  do
    incr rounds;
    let ran = ref 0 in
    e.e_sched (fun () -> ran := Machine.run m ~steps:policy.slice);
    sched_steps := !sched_steps + !ran;
    scan ();
    (* nothing ran: every unmigrated thread is permanently off-cpu, so
       more scheduling cannot help — go straight to the fallback *)
    if !ran = 0 then stalled := true
  done;
  Machine.set_safepoint_hook m None;
  let outcome =
    if all_migrated () then begin
      (* no-pause convergence: the machine never stopped *)
      Machine.end_transition m;
      e.e_enter Txn.Trampoline;
      e.e_install ();
      Ok 0
    end
    else begin
      (* straggler fallback: the bounded stop_machine loop of §5.2,
         force-migrating whoever is left once the guards quiesce *)
      Trace.count "transition.fallbacks" 1;
      Log.info (fun k ->
          k "%s: %d straggler(s) after %d sched steps; stop_machine \
             fallback"
            e.e_update
            (List.length
               (List.filter
                  (fun th -> not (Machine.thread_migrated th))
                  (Machine.threads m)))
            !sched_steps);
      e.e_enter Txn.Quiesce;
      let rec attempt n spent pause_acc =
        let ok, pause =
          Machine.stop_machine m (fun () ->
              if Apply.quiescent m e.e_guard_ranges then begin
                List.iter
                  (fun th ->
                    if not (Machine.thread_migrated th) then begin
                      Machine.migrate_thread th;
                      incr forced;
                      record th Forced
                    end)
                  (Machine.threads m);
                Machine.end_transition m;
                e.e_enter Txn.Trampoline;
                e.e_install ();
                true
              end
              else false)
        in
        let pause_acc = pause_acc + pause in
        if ok then Ok pause_acc
        else begin
          let delay =
            min
              (backoff_steps ~base:policy.fb_retry_base
                 ~cap:policy.fb_retry_cap n)
              (policy.fb_retry_budget - spent)
          in
          if n + 1 >= policy.fb_max_attempts || delay <= 0 then
            fail
              (Apply.Not_quiescent
                 { Apply.nq_functions = e.e_functions;
                   nq_attempts = n + 1;
                   nq_steps_run = !sched_steps + spent;
                   nq_blockers = Apply.blocking_threads m e.e_guard_ranges })
          else begin
            Trace.count "transition.fallback_retries" 1;
            e.e_sched (fun () ->
                ignore (Machine.run m ~steps:delay : int));
            attempt (n + 1) (spent + delay) pause_acc
          end
        end
      in
      attempt 0 0 0
    end
  in
  Result.map
    (fun pause_ns ->
      let stats =
        { st_update = e.e_update;
          st_direction = e.e_direction;
          st_threads = n_threads;
          st_migrations = List.rev !migrations;
          st_rounds = !rounds;
          st_sched_steps = !sched_steps;
          st_fallback = !forced > 0 || pause_ns > 0;
          st_forced = !forced;
          st_pause_ns = pause_ns }
      in
      Trace.observe "transition.pause_ns" (float_of_int pause_ns);
      Trace.observe "transition.sched_steps" (float_of_int !sched_steps);
      Log.info (fun k -> k "%a" pp_stats stats);
      (match on_stats with Some f -> f stats | None -> ());
      pause_ns)
    outcome
