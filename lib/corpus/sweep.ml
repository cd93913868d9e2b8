module Machine = Kernel.Machine
module Txn = Ksplice.Txn
module Faultinj = Ksplice.Faultinj
module Apply = Ksplice.Apply
module Create = Ksplice.Create
module J = Report.Json

(* ---------- the harness: one signature, one driver, one printer ---------- *)

module type S = sig
  type key
  type row

  val name : string
  val default_rows : unit -> key list
  val gate_rows : unit -> key list
  val key_of_string : string -> key option
  val key_name : key -> string
  val run_row : seed:int -> index:int -> key -> row
  val progress : row -> string
  val violations : row -> string list
  val row_json : row -> J.t
  val totals : row list -> J.t
  val check : row list -> string list
end

type 'row report = {
  sweep : string;
  seed : int;
  rows : 'row list;
  lines : string list;
  rows_json : J.t list;
  totals : J.t;
  violations : string list;
}

let run (type k r) ?rows ?(seed = 0) ?domains ?progress
    (module M : S with type key = k and type row = r) =
  let keys = match rows with Some l -> l | None -> M.default_rows () in
  (* rows are independent (each boots its own machines), so they fan out
     across the domain pool; progress lines arrive in completion order,
     serialised by a mutex, while the report keeps input order *)
  let progress_m = Mutex.create () in
  let emit line =
    Option.iter (fun f -> Mutex.protect progress_m (fun () -> f line)) progress
  in
  let rows =
    Parallel.map ?domains
      (fun (index, key) ->
        let row = M.run_row ~seed ~index key in
        emit (M.progress row);
        row)
      (List.mapi (fun i k -> (i, k)) keys)
  in
  let violations =
    List.concat
      (List.map2
         (fun key row ->
           List.map
             (Printf.sprintf "%s: %s" (M.key_name key))
             (M.violations row))
         keys rows)
    @ M.check rows
  in
  { sweep = M.name; seed; rows; lines = List.map M.progress rows;
    rows_json = List.map M.row_json rows; totals = M.totals rows; violations }

let ok r = r.violations = []
let num n = J.Num (float_of_int n)
let strs l = J.Arr (List.map (fun s -> J.Str s) l)

let to_json r =
  J.Obj
    [
      ("sweep", J.Str r.sweep);
      ("seed", num r.seed);
      ("ok", J.Bool (ok r));
      ("violations", strs r.violations);
      ("totals", r.totals);
      ("rows", J.Arr r.rows_json);
    ]

let pp ppf r =
  Format.fprintf ppf "%s sweep: %d row(s), seed %d@\n" r.sweep
    (List.length r.lines) r.seed;
  List.iter (Format.fprintf ppf "  %s@\n") r.lines;
  Format.fprintf ppf "@\n%a" Report.Render.pp r.totals;
  List.iter (Format.fprintf ppf "VIOLATION %s@\n") r.violations;
  Format.fprintf ppf "%s sweep: %s@\n" r.sweep
    (if ok r then "ok"
     else Printf.sprintf "FAILED (%d violation(s))" (List.length r.violations))

(* shared pieces of the sweeps below *)

module By_cve = struct
  type key = Cve.t

  let key_of_string = Cve.find
  let key_name (c : Cve.t) = c.id
end

let cves_named ids = List.map (fun id -> Option.get (Cve.find id)) ids
let sum f rows = List.fold_left (fun acc r -> acc + f r) 0 rows
let count p l = List.length (List.filter p l)
let tag notes = if notes = [] then "" else "  VIOLATION"

(* ---------- the fault-injection sweep ---------- *)

type cell =
  | Rolled_back
  | Benign
  | Not_applicable
  | Violation of string list

let cell_char = function
  | Rolled_back -> 'R'
  | Benign -> 'B'
  | Not_applicable -> '-'
  | Violation _ -> '!'

type row = {
  cve_id : string;
  cells : (Txn.step * cell) list;
  recovered : bool;
  notes : string list;
}

let err_str e = Format.asprintf "%a" Apply.pp_error e

let create_result (cve : Cve.t) ~patch base =
  Create.create
    { source = base; patch; update_id = cve.id; description = cve.desc }
  |> Result.map (fun c -> c.Create.update)
  |> Result.map_error
       (Format.asprintf "%s: create failed: %a" cve.id Create.pp_error)

let create_update (cve : Cve.t) base =
  match create_result cve ~patch:(Cve.hot_patch cve base) base with
  | Ok u -> u
  | Error m -> failwith m

(* One faulted cell: snapshot, [apply] under injection, judge. The
   machine is reused across cells — rollback (and [undo] of [undo_id],
   for cells where the [what] went through) must return it to a
   consistent state, which the next cell's snapshot then re-baselines.
   The fault sweep's apply and the cumulative sweep's collapse share it. *)
let faulted_cell mgr ~what ~undo ~undo_id ~apply step ~seed =
  let m = Apply.machine mgr in
  let snap = Machine.snapshot m in
  let plan = { Faultinj.step; kind = Faultinj.kind_for_step step; seed } in
  let session = Faultinj.make m plan in
  let result = apply session in
  Faultinj.disarm session;
  let fired = Faultinj.fired session in
  match result with
  | Error e ->
    let diff = Machine.diff_snapshot m snap in
    if diff <> [] then
      Violation
        (Format.asprintf "abort of %a left the machine diverged: %s"
           Faultinj.pp_plan plan (err_str e)
         :: diff)
    else if not fired then
      Violation
        [ Format.asprintf
            "%a never fired yet %s failed: %s" Faultinj.pp_plan plan what
            (err_str e) ]
    else Rolled_back
  | Ok _ ->
    (* it went through; it must be a benign or unfired fault, and the
       update must verify and undo cleanly for the next cell *)
    let verdict =
      if fired && Faultinj.expect_abort plan.kind then
        Violation
          [ Format.asprintf "%a fired but %s succeeded"
              Faultinj.pp_plan plan what ]
      else
        match Apply.verify mgr with
        | Error e ->
          Violation
            [ Format.asprintf "%s under %a did not verify: %s" what
                Faultinj.pp_plan plan (err_str e) ]
        | Ok () -> if fired then Benign else Not_applicable
    in
    (match Apply.undo mgr undo_id with
     | Ok () -> verdict
     | Error e -> (
       match verdict with
       | Violation msgs ->
         Violation
           (msgs @ [ Printf.sprintf "and %s failed: %s" undo (err_str e) ])
       | _ ->
         Violation
           [ Printf.sprintf "%s after surviving %s failed: %s" undo what
               (err_str e) ]))

(* After the faulted cells: the CVE's hot update must still apply
   cleanly on the same machine, hold up under stress, and (where an
   exploit exists) block it. *)
let check_recovery (b : Boot.booted) mgr (cve : Cve.t) update =
  let notes = ref [] in
  let note fmt = Format.kasprintf (fun s -> notes := s :: !notes) fmt in
  (match Apply.apply mgr update with
   | Error e -> note "clean re-apply failed: %s" (err_str e)
   | Ok _ -> (
     (match Apply.verify mgr with
      | Ok () -> ()
      | Error e -> note "verify after re-apply: %s" (err_str e));
     let r = Stress.run b ~threads:2 ~iterations:5 in
     if not r.ok then
       note "stress after re-apply: %s" (String.concat "; " r.failures);
     match Exploits.find cve.id with
     | None -> ()
     | Some ex ->
       let o = ex.run b in
       if o.succeeded then
         note "exploit %s still succeeds after re-apply: %s" ex.name o.detail));
  (!notes = [], List.rev !notes)

let sweep_cve ~seed index (cve : Cve.t) base =
  let update = create_update cve base in
  let b = Boot.boot () in
  let mgr = Apply.init b.machine in
  let cells =
    List.mapi
      (fun si step ->
        let cell_seed = seed + (1009 * index) + (31 * si) in
        ( step,
          faulted_cell mgr ~what:"apply" ~undo:"undo" ~undo_id:cve.id
            ~apply:(fun inject -> Apply.apply mgr ~inject update)
            step ~seed:cell_seed ))
      Txn.all_steps
  in
  let recovered, notes = check_recovery b mgr cve update in
  { cve_id = cve.id; cells; recovered; notes }

let cell_string cells =
  String.of_seq (Seq.map (fun (_, c) -> cell_char c) (List.to_seq cells))

(* one note per violating cell: the step and its diagnostics *)
let cell_violations cells =
  List.filter_map
    (fun (step, c) ->
      match c with
      | Violation msgs ->
        Some (Printf.sprintf "%s: %s" (Txn.step_name step)
                (String.concat "; " msgs))
      | _ -> None)
    cells

let cell_totals cells =
  let n p = num (count p cells) in
  [
    ("cells", num (List.length cells));
    ("rolled_back", n (( = ) Rolled_back));
    ("benign", n (( = ) Benign));
    ("not_applicable", n (( = ) Not_applicable));
    ("violations", n (function Violation _ -> true | _ -> false));
  ]

let small_gate =
  [ "CVE-2006-2451"; "CVE-2006-3626"; "CVE-2007-4573"; "CVE-2008-0600" ]

let fault : (module S with type key = Cve.t and type row = row) =
  (module struct
    include By_cve

    type nonrec row = row

    let name = "fault"
    let default_rows () = Cve.all
    let gate_rows () = cves_named small_gate

    let run_row ~seed ~index cve =
      sweep_cve ~seed index cve (Base_kernel.tree ())

    let progress row =
      Printf.sprintf "%-14s %s %s" row.cve_id (cell_string row.cells)
        (if row.recovered then "recovered" else "RECOVERY FAILED")

    let violations row = cell_violations row.cells @ row.notes

    let row_json row =
      J.Obj
        [ ("cve", J.Str row.cve_id); ("cells", J.Str (cell_string row.cells));
          ("recovered", J.Bool row.recovered); ("notes", strs row.notes) ]

    let totals rows =
      J.Obj
        (cell_totals (List.concat_map (fun r -> List.map snd r.cells) rows)
        @ [ ( "recovery_failures",
              num (count (fun r -> not r.recovered) rows) ) ])

    let check _ = []
  end)

(* ---------- the supervised (manager-level) sweep ----------

   The transactional sweep above proves §5.2 for one apply; this one
   proves the supervision loop around it: every CVE is pushed through
   [Manager] under three hostile regimes, and each cell must reach a
   terminal state (liveness) with a clean rollback audit (safety). *)

type scenario = Injected | Adversarial | Unhealthy

let all_scenarios = [ Injected; Adversarial; Unhealthy ]

let scenario_name = function
  | Injected -> "injected"
  | Adversarial -> "adversarial"
  | Unhealthy -> "unhealthy"

let scenario_char = function
  | Injected -> 'I'
  | Adversarial -> 'A'
  | Unhealthy -> 'U'

type mcell = {
  mc_status : Manager.status;
  mc_attempts : int;
  mc_clock : int;
  mc_events : int;
  mc_violations : int;
  mc_notes : string list;  (* scenario-contract breaches; [] = passed *)
  mc_report : Report.Json.t;  (* the cell's full manager event log *)
}

type mrow = {
  m_cve : string;
  m_cells : (scenario * mcell) list;
}

(* the health gate the manager runs after every successful apply: the
   CVE's exploit must be blocked (where one exists) and a short stress
   smoke must pass *)
let health_checks (b : Boot.booted) (cve : Cve.t) =
  let exploit =
    match Exploits.find cve.id with
    | None -> []
    | Some ex ->
      [ { Manager.hc_name = "exploit:" ^ ex.name;
          hc_probe =
            (fun () ->
              let o = ex.run b in
              if o.succeeded then
                Error ("exploit still succeeds: " ^ o.detail)
              else Ok ()) } ]
  in
  exploit
  @ [ { Manager.hc_name = "stress-smoke";
        hc_probe =
          (fun () ->
            let r = Stress.run b ~threads:2 ~iterations:3 in
            if r.ok then Ok ()
            else Error (String.concat "; " r.failures)) } ]

(* tight enough that the watchdog and retry queue actually trip in the
   adversarial and forced-not-quiescent cells, loose enough that a
   drainable blocker still converges *)
let manager_policy ~seed =
  { Manager.default_policy with
    seed; deadline = 12_000; retry_limit = 4; backoff_base = 300;
    backoff_cap = 2_000; jitter = 100 }

(* the entry address of the first replaced function — where the
   manager sweep's adversarial churner runs and the transition sweep's
   straggler sleeps *)
let replaced_entry machine (update : Ksplice.Update.t) =
  match update.replaced_functions with
  | [] -> None
  | (_, cfn) :: _ ->
    let raw, _ = Ksplice.Update.split_canonical cfn in
    (match
       Machine.lookup_name machine raw
       |> List.filter (fun (s : Klink.Image.syminfo) -> s.kind = `Func)
     with
     | [ s ] -> Some s.addr
     | _ -> None)

let run_mcell ~seed scenario (cve : Cve.t) update =
  let b = Boot.boot () in
  let ap = Apply.init b.machine in
  let mgr = Manager.create ~policy:(manager_policy ~seed) ap in
  let health = health_checks b cve in
  let notes = ref [] in
  let note fmt = Format.kasprintf (fun s -> notes := s :: !notes) fmt in
  let session = ref None in
  (match scenario with
   | Injected ->
     (* one canonical fault, at a step chosen deterministically from
        (seed, cve) — armed for the first attempt only, so the retry
        path sees the transient heal *)
     let steps = Txn.all_steps in
     let si = abs (Hashtbl.hash (seed, cve.id)) mod List.length steps in
     let step = List.nth steps si in
     let plan =
       { Faultinj.step; kind = Faultinj.kind_for_step step; seed }
     in
     let s = Faultinj.make b.machine plan in
     session := Some (plan, s);
     Manager.submit mgr update ~health
       ~inject:(fun ~attempt -> if attempt = 1 then Some s else None)
   | Adversarial ->
     (* an adversarial scheduler: a thread parked at the entry of a
        function the update will replace — its pc sits in the §5.2
        guard range until the manager's backoff drains it *)
     Option.iter
       (fun entry ->
         ignore
           (Machine.spawn b.machine ~name:"churner" ~uid:1 ~entry
              ~args:[ 1l ]
             : Machine.thread))
       (replaced_entry b.machine update);
     Manager.submit mgr update ~health
   | Unhealthy ->
     (* the update applies fine but the gate must fail: a canary probe
        forces the auto-revert/quarantine path *)
     let canary =
       { Manager.hc_name = "canary";
         hc_probe = (fun () -> Error "deliberately failing probe") }
     in
     Manager.submit mgr update ~health:(health @ [ canary ]));
  Manager.run mgr;
  (match !session with Some (_, s) -> Faultinj.disarm s | None -> ());
  let st =
    match Manager.status mgr cve.id with
    | Some st -> st
    | None -> Manager.Waiting
  in
  let attempts = Manager.attempts mgr cve.id in
  (* liveness: Manager.run returned and the update is terminal *)
  (match st with
   | Manager.Waiting -> note "not terminal: still waiting after run"
   | _ -> ());
  (* safety: every abort, park, and auto-revert audited byte-identical *)
  if Manager.violations mgr > 0 then
    note "%d rollback-audit violations" (Manager.violations mgr);
  (* scenario contracts *)
  (match scenario with
   | Injected ->
     let plan, s = Option.get !session in
     let fired = Faultinj.fired s in
     (match st with
      | Manager.Applied_healthy ->
        if fired && Faultinj.expect_abort plan.kind then begin
          (* only a transient quiescence fault may heal on retry *)
          if plan.kind <> Faultinj.Forced_not_quiescent then
            note "%a fired yet update went healthy" Faultinj.pp_plan plan
          else if attempts < 2 then
            note "healed %a without a retry" Faultinj.pp_plan plan
        end
      | Manager.Parked (Manager.Rejected _) ->
        if not (fired && Faultinj.expect_abort plan.kind) then
          note "parked though %a never fired" Faultinj.pp_plan plan
      | Manager.Parked _ ->
        (* a quiescence park can't happen here: the machine is at rest
           and the fault is armed for the first attempt only *)
        note "unexpected park class under %a" Faultinj.pp_plan plan
      | st -> note "unexpected state %s" (Manager.status_name st));
     if st <> Manager.Applied_healthy && Apply.applied ap <> [] then
       note "non-healthy outcome left the update applied"
   | Adversarial ->
     (match st with
      | Manager.Applied_healthy | Manager.Parked (Manager.Exhausted_retries _)
        -> ()
      | st -> note "unexpected state %s" (Manager.status_name st));
     if st <> Manager.Applied_healthy && Apply.applied ap <> [] then
       note "parked update still applied"
   | Unhealthy ->
     (match st with
      | Manager.Quarantined { reverted = true; evidence } ->
        if
          not
            (List.exists (fun (n, _) -> String.equal n "canary") evidence)
        then note "quarantine evidence misses the canary probe"
      | Manager.Quarantined { reverted = false; _ } ->
        note "auto-revert failed; unhealthy update still live"
      | st -> note "unexpected state %s" (Manager.status_name st));
     if Apply.applied ap <> [] then
       note "quarantined update still on the applied stack");
  {
    mc_status = st;
    mc_attempts = attempts;
    mc_clock = Manager.now mgr;
    mc_events = List.length (Manager.events mgr);
    mc_violations = Manager.violations mgr;
    mc_notes = List.rev !notes;
    mc_report = Manager.report mgr;
  }

let manager : (module S with type key = Cve.t and type row = mrow) =
  (module struct
    include By_cve

    type row = mrow

    let name = "manager"
    let default_rows () = Cve.all
    let gate_rows () = cves_named small_gate

    let run_row ~seed ~index (cve : Cve.t) =
      let update = create_update cve (Base_kernel.tree ()) in
      let cell sc =
        let cell_seed =
          seed + (1013 * index) + Hashtbl.hash (scenario_name sc)
        in
        (sc, run_mcell ~seed:cell_seed sc cve update)
      in
      { m_cve = cve.id; m_cells = List.map cell all_scenarios }

    let progress row =
      Printf.sprintf "%-14s %s" row.m_cve
        (String.concat " "
           (List.map
              (fun (sc, c) ->
                Printf.sprintf "%c:%s%s" (scenario_char sc)
                  (Manager.status_name c.mc_status)
                  (if c.mc_notes = [] then "" else "(FAIL)"))
              row.m_cells))

    let violations row =
      List.concat_map
        (fun (sc, c) ->
          List.map (Printf.sprintf "%s: %s" (scenario_name sc)) c.mc_notes)
        row.m_cells

    let cell_json (sc, c) =
      J.Obj
        [
          ("scenario", J.Str (scenario_name sc));
          ("status", J.Str (Manager.status_name c.mc_status));
          ("attempts", num c.mc_attempts);
          ("clock", num c.mc_clock);
          ("events", num c.mc_events);
          ("violations", num c.mc_violations);
          ("notes", strs c.mc_notes);
          ("manager", c.mc_report);
        ]

    let row_json row =
      J.Obj
        [ ("cve", J.Str row.m_cve);
          ("cells", J.Arr (List.map cell_json row.m_cells)) ]

    let totals rows =
      let cells = List.concat_map (fun r -> List.map snd r.m_cells) rows in
      let n p = num (count p cells) in
      J.Obj
        [
          ("cells", num (List.length cells));
          ("healthy", n (fun c -> c.mc_status = Manager.Applied_healthy));
          ( "parked",
            n (fun c ->
                match c.mc_status with Manager.Parked _ -> true | _ -> false)
          );
          ( "quarantined",
            n (fun c ->
                match c.mc_status with
                | Manager.Quarantined _ -> true
                | _ -> false) );
          ("violations", num (sum (fun c -> c.mc_violations) cells));
          ("failures", n (fun c -> c.mc_notes <> []));
        ]

    let check _ = []
  end)

(* ---------- the crash sweep: persistence under process death ----------

   The filesystem analogue of the apply sweep above: publish a CVE's
   update into a fresh on-disk repository, killing the simulated process
   at every i-th mutating I/O operation ([Vfs.Crash]); then reopen with
   a clean handle (the reboot) and assert the store recovers to
   fsck-clean with the chain atomically all-or-nothing, and that GC
   afterwards reclaims exactly the unreachable blobs. *)

module Repo = Ksplice.Repository
module Tree = Patchfmt.Source_tree
module Diff = Patchfmt.Diff

type crow = {
  cr_cve : string;
  cr_ops : int;  (* mutating I/O ops in a fault-free publish *)
  cr_published : int;  (* crash points after which the chain survived whole *)
  cr_absent : int;  (* crash points after which it vanished atomically *)
  cr_gc_swept : int;
  cr_gc_bytes : int;
  cr_notes : string list;  (* violations; [] = row passed *)
}

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_tmp_dir f =
  let dir = Filename.temp_file "ksplcrash" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f dir)

let publish_once ?vfs dir ~source ~patch ~update =
  match Repo.open_dir ?vfs dir with
  | Error e -> Error (Format.asprintf "open_dir: %a" Repo.pp_error e)
  | Ok repo -> (
    match Repo.publish repo ~source ~patch ~update with
    | Ok _ -> Ok ()
    | Error e -> Error (Format.asprintf "publish: %a" Repo.pp_error e))

let chain_ids repo ~digest =
  Result.map
    (List.map (fun (e : Repo.entry) -> e.update.Ksplice.Update.update_id))
    (Repo.pending repo ~digest)

(* One crash point: publish under Crash@i, reopen clean, judge.
   Returns (published, swept, bytes, notes). *)
let crash_cell ~seed ~source ~patch ~update ~base_digest
    (update_id : string) i =
  with_tmp_dir (fun dir ->
      let vfs, inj = Vfs.inject { Vfs.at = i; kind = Vfs.Crash; seed } Vfs.real in
      let notes = ref [] in
      let note fmt = Format.kasprintf (fun s -> notes := !notes @ [ s ]) fmt in
      (match publish_once ~vfs dir ~source ~patch ~update with
      | exception Vfs.Crashed -> ()
      | Ok () ->
        if Vfs.fired inj then
          (* the crash op was the last one: publish returned before any
             further I/O could refuse — still a valid crash point *)
          ()
        else note "crash point %d never fired (run has %d ops)" i (Vfs.ops inj)
      | Error m -> note "publish failed without a crash: %s" m);
      (* the dead handle is discarded; reopening is the reboot *)
      match Repo.open_dir dir with
      | Error e -> (false, 0, 0, [ Format.asprintf "reopen: %a" Repo.pp_error e ])
      | Ok repo ->
        (match Repo.fsck repo with
        | Ok _ -> ()
        | Error r ->
          List.iter
            (fun iss ->
              note "fsck after recovery: %a" Store.pp_fsck_issue iss)
            r.Repo.store_report.Store.f_issues;
          List.iter
            (fun (d, m) -> note "fsck: entry %s: %s" d m)
            r.Repo.corrupt_entries);
        let published =
          match chain_ids repo ~digest:base_digest with
          | Ok [] -> false
          | Ok [ id ] when String.equal id update_id -> true
          | Ok ids ->
            note "chain is half-published: [%s]" (String.concat "; " ids);
            false
          | Error e ->
            note "pending after recovery: %a" Repo.pp_error e;
            false
        in
        let swept, bytes =
          match Repo.gc repo with
          | Error e ->
            note "gc after recovery: %a" Repo.pp_error e;
            (0, 0)
          | Ok g ->
            (* GC must preserve the chain exactly and, when the publish
               vanished, leave nothing behind *)
            (match chain_ids repo ~digest:base_digest with
            | Ok ids ->
              let expect = if published then [ update_id ] else [] in
              if ids <> expect then
                note "gc changed the chain: [%s]" (String.concat "; " ids)
            | Error e -> note "pending after gc: %a" Repo.pp_error e);
            (match Repo.fsck repo with
            | Ok r ->
              if (not published) && r.Repo.store_report.Store.f_blobs <> 0 then
                note "gc left %d unreachable blob(s) in an empty repository"
                  r.Repo.store_report.Store.f_blobs
            | Error _ -> note "fsck after gc reports damage");
            (g.Store.gc_swept, g.Store.gc_bytes)
        in
        (published, swept, bytes, !notes))

(* Fault-free probe: counts the mutating ops of a publish and proves the
   published chain actually syncs onto a freshly booted subscriber. *)
let crash_probe (cve : Cve.t) base ~patch ~update =
  with_tmp_dir (fun dir ->
      let vfs, count = Vfs.counting Vfs.real in
      match publish_once ~vfs dir ~source:base ~patch ~update with
      | Error m -> (0, [ "fault-free publish failed: " ^ m ])
      | Ok () -> (
        let n = count () in
        match Repo.open_dir dir with
        | Error e -> (n, [ Format.asprintf "reopen: %a" Repo.pp_error e ])
        | Ok repo -> (
          let b = Boot.boot () in
          let mgr = Apply.init b.Boot.machine in
          match Repo.sync repo mgr ~source:base with
          | Ok r when r.Repo.applied = [ cve.id ] -> (n, [])
          | Ok r ->
            ( n,
              [ Printf.sprintf "sync applied [%s], expected [%s]"
                  (String.concat "; " r.Repo.applied) cve.id ] )
          | Error e ->
            (n, [ Format.asprintf "sync after publish: %a" Repo.pp_error e ]))))

let crash_cve ~seed (cve : Cve.t) base =
  let patch = Cve.hot_patch cve base in
  let update = create_update cve base in
  let base_digest = Tree.digest base in
  let ops, probe_notes = crash_probe cve base ~patch ~update in
  let published = ref 0 in
  let absent = ref 0 in
  let swept = ref 0 in
  let bytes = ref 0 in
  let notes = ref probe_notes in
  for i = 1 to ops do
    let p, s, by, ns =
      crash_cell ~seed ~source:base ~patch ~update ~base_digest cve.id i
    in
    if ns = [] then if p then incr published else incr absent
    else
      notes :=
        !notes
        @ List.map (Printf.sprintf "crash@%d: %s" i) ns;
    swept := !swept + s;
    bytes := !bytes + by
  done;
  {
    cr_cve = cve.id;
    cr_ops = ops;
    cr_published = !published;
    cr_absent = !absent;
    cr_gc_swept = !swept;
    cr_gc_bytes = !bytes;
    cr_notes = !notes;
  }

(* every 8th CVE: a deterministic sample spanning the corpus — each row
   costs [ops] publish+recover+gc rounds, so the full 64 would be slow *)
let corpus_sample () = List.filteri (fun i _ -> i mod 8 = 0) Cve.all

let crash : (module S with type key = Cve.t and type row = crow) =
  (module struct
    include By_cve

    type row = crow

    let name = "crash"
    let default_rows = corpus_sample
    let gate_rows () = cves_named [ "CVE-2006-2451"; "CVE-2008-0600" ]

    let run_row ~seed ~index cve =
      crash_cve ~seed:(seed + (1009 * index)) cve (Base_kernel.tree ())

    let progress row =
      Printf.sprintf "%-14s %3d crash points: %d whole, %d absent%s"
        row.cr_cve row.cr_ops row.cr_published row.cr_absent
        (tag row.cr_notes)

    let violations row = row.cr_notes

    let row_json row =
      J.Obj
        [ ("cve", J.Str row.cr_cve); ("ops", num row.cr_ops);
          ("published", num row.cr_published); ("absent", num row.cr_absent);
          ("gc_swept", num row.cr_gc_swept); ("gc_bytes", num row.cr_gc_bytes);
          ("notes", strs row.cr_notes) ]

    let totals rows =
      J.Obj
        [
          ("cells", num (sum (fun r -> r.cr_ops) rows));
          ("published", num (sum (fun r -> r.cr_published) rows));
          ("absent", num (sum (fun r -> r.cr_absent) rows));
          ("violations", num (sum (fun r -> List.length r.cr_notes) rows));
          ("gc_swept", num (sum (fun r -> r.cr_gc_swept) rows));
          ("gc_bytes", num (sum (fun r -> r.cr_gc_bytes) rows));
        ]

    let check _ = []
  end)

(* ---------- the transition sweep: patch under load, no global pause ----------

   Twin machines run the same busy multi-threaded stress workload. Mid-
   flight, machine A applies the CVE's update through the per-thread
   engagement (Manager.Transition) and machine B through the paper's
   stop_machine loop. The per-thread apply must converge with zero
   pause and zero forced migrations, both workloads must keep their
   invariants, and the two machines must end with byte-identical patch
   footprints. The same twin discipline then covers the reverse
   transition (undo under load) and a forced-straggler apply, where a
   thread parked asleep inside the patched function must demote the
   engagement to the bounded stop_machine fallback — which must still
   land the identical footprint. *)

module Transition = Manager.Transition

type trow = {
  t_cve : string;
  t_threads : int;
  t_pause_ns : int;  (* per-thread apply pause (0 = pauseless) *)
  t_undo_pause_ns : int;
  t_base_pause_ns : int;  (* stop_machine baseline pause under load *)
  t_migrated : (string * int) list;  (* safe-point class -> threads *)
  t_rounds : int;
  t_sched_steps : int;
  t_straggler_forced : int;
  t_straggler_pause_ns : int;
  t_notes : string list;  (* contract breaches; [] = row passed *)
}

(* generous §5.2 bounds for the baseline twin: under the stress load it
   must converge (the comparison needs a successful baseline), however
   many backoff rounds that takes *)
let baseline_apply mgr update =
  Apply.apply mgr ~max_attempts:64 ~retry_budget:400_000 ~retry_cap:8_000
    update

let baseline_undo mgr id =
  Apply.undo mgr ~max_attempts:64 ~retry_budget:400_000 ~retry_cap:8_000 id

(* [Stress.run] is single-use per boot (its host-side check expects each
   counter to equal exactly one run's iterations), so every phase gets a
   fresh pair of twin machines *)
let run_tcell (cve : Cve.t) update =
  let notes = ref [] in
  let note fmt = Format.kasprintf (fun s -> notes := !notes @ [ s ]) fmt in
  let check_stress who (r : Stress.report) =
    if not r.ok then
      note "stress %s: %s" who (String.concat "; " r.failures)
  in
  let compare_footprints mgra mgrb when_ =
    if not (String.equal (Apply.footprint mgra) (Apply.footprint mgrb))
    then note "footprints diverge %s" when_
  in
  (* --- 1. apply under load: per-thread vs stop_machine --- *)
  let ba = Boot.boot () in
  let bb = Boot.boot () in
  let mgra = Apply.init ba.Boot.machine in
  let mgrb = Apply.init bb.Boot.machine in
  let apply_stats = ref None in
  let engage = Transition.engage ~on_stats:(fun s -> apply_stats := Some s) () in
  check_stress "under per-thread apply"
    (Stress.run ba ~during:(fun () ->
         match Apply.apply mgra ~engage update with
         | Ok _ -> ()
         | Error e -> note "per-thread apply failed: %s" (err_str e)));
  let base_pause = ref 0 in
  check_stress "under baseline apply"
    (Stress.run bb ~during:(fun () ->
         match baseline_apply mgrb update with
         | Ok a -> base_pause := a.Apply.pause_ns
         | Error e -> note "baseline apply failed: %s" (err_str e)));
  (match !apply_stats with
   | None -> ()
   | Some s ->
     if s.Transition.st_fallback then
       note "per-thread apply fell back to stop_machine (%d forced)"
         s.Transition.st_forced;
     if s.Transition.st_pause_ns <> 0 then
       note "per-thread apply paused %d ns" s.Transition.st_pause_ns);
  compare_footprints mgra mgrb "after apply under load";
  (match Apply.verify mgra with
   | Ok () -> ()
   | Error e -> note "transitioned machine does not verify: %s" (err_str e));
  (match Exploits.find cve.id with
   | None -> ()
   | Some ex ->
     let o = ex.run ba in
     if o.succeeded then
       note "exploit still succeeds after per-thread apply: %s" o.detail);
  (* --- 2. undo under load: reverse transition vs stop_machine --- *)
  let ba2 = Boot.boot () in
  let bb2 = Boot.boot () in
  let mgra2 = Apply.init ba2.Boot.machine in
  let mgrb2 = Apply.init bb2.Boot.machine in
  let apply_at_rest mgr who =
    match Apply.apply mgr update with
    | Ok _ -> ()
    | Error e -> note "%s apply at rest failed: %s" who (err_str e)
  in
  apply_at_rest mgra2 "per-thread twin";
  apply_at_rest mgrb2 "baseline twin";
  let saved_a =
    match Apply.applied mgra2 with a :: _ -> a.Apply.saved | [] -> []
  in
  let undo_stats = ref None in
  let engage_undo =
    Transition.engage ~on_stats:(fun s -> undo_stats := Some s) ()
  in
  check_stress "under reverse transition"
    (Stress.run ba2 ~during:(fun () ->
         match Apply.undo mgra2 ~engage:engage_undo cve.id with
         | Ok () -> ()
         | Error e -> note "reverse transition failed: %s" (err_str e)));
  check_stress "under baseline undo"
    (Stress.run bb2 ~during:(fun () ->
         match baseline_undo mgrb2 cve.id with
         | Ok () -> ()
         | Error e -> note "baseline undo failed: %s" (err_str e)));
  (* the reverse transition must restore the entry bytes exactly *)
  List.iter
    (fun (addr, bytes) ->
      let got =
        Machine.read_bytes ba2.Boot.machine addr (Bytes.length bytes)
      in
      if not (Bytes.equal got bytes) then
        note "entry bytes at %#x not restored by the reverse transition"
          addr)
    saved_a;
  (match !undo_stats with
   | None -> ()
   | Some s ->
     if s.Transition.st_pause_ns <> 0 then
       note "reverse transition paused %d ns" s.Transition.st_pause_ns);
  (* --- 3. forced straggler: bounded fallback must converge --- *)
  let straggler_stats = ref None in
  let ba3 = Boot.boot () in
  (match replaced_entry ba3.Boot.machine update with
   | None -> ()
   | Some entry ->
     let bb3 = Boot.boot () in
     let mgra3 = Apply.init ba3.Boot.machine in
     let mgrb3 = Apply.init bb3.Boot.machine in
     let straggle machine =
       (* a thread parked asleep at the patched function's entry: its pc
          sits in the guard range and it cannot reach a safe point until
          it wakes — long after the migration budget below *)
       let th =
         Machine.spawn machine ~name:"straggler" ~uid:1 ~entry
           ~args:[ 1l ]
       in
       th.Machine.state <- Machine.Sleeping (Machine.tick machine + 3_000)
     in
     let eng =
       Transition.engage
         ~policy:{ Transition.default_policy with budget = 2_000 }
         ~on_stats:(fun s -> straggler_stats := Some s)
         ()
     in
     check_stress "under straggler apply"
       (Stress.run ba3 ~during:(fun () ->
            straggle ba3.Boot.machine;
            match Apply.apply mgra3 ~engage:eng update with
            | Ok _ -> ()
            | Error e -> note "straggler apply failed: %s" (err_str e)));
     check_stress "under straggler baseline"
       (Stress.run bb3 ~during:(fun () ->
            straggle bb3.Boot.machine;
            match baseline_apply mgrb3 update with
            | Ok _ -> ()
            | Error e ->
              note "straggler baseline apply failed: %s" (err_str e)));
     (match !straggler_stats with
      | None -> ()
      | Some s ->
        if not s.Transition.st_fallback then
          note "straggler cell never engaged the stop_machine fallback";
        if s.Transition.st_forced < 1 then
          note "the straggler was never force-migrated");
     compare_footprints mgra3 mgrb3 "after the straggler apply");
  let stats = !apply_stats in
  let classes s =
    List.filter_map
      (fun (c, n) ->
        if n = 0 then None else Some (Transition.sp_class_name c, n))
      (Transition.migrated_by_class s)
  in
  { t_cve = cve.id;
    t_threads =
      (match stats with Some s -> s.Transition.st_threads | None -> 0);
    t_pause_ns =
      (match stats with Some s -> s.Transition.st_pause_ns | None -> -1);
    t_undo_pause_ns =
      (match !undo_stats with
       | Some s -> s.Transition.st_pause_ns
       | None -> -1);
    t_base_pause_ns = !base_pause;
    t_migrated = (match stats with Some s -> classes s | None -> []);
    t_rounds = (match stats with Some s -> s.Transition.st_rounds | None -> 0);
    t_sched_steps =
      (match stats with Some s -> s.Transition.st_sched_steps | None -> 0);
    t_straggler_forced =
      (match !straggler_stats with
       | Some s -> s.Transition.st_forced
       | None -> 0);
    t_straggler_pause_ns =
      (match !straggler_stats with
       | Some s -> s.Transition.st_pause_ns
       | None -> 0);
    t_notes = !notes }

(* The machine's time model: 1 instruction = 1 ns (the stop_machine
   pause model in lib/kernel is calibrated against the same scale). A
   row's throughput dip is the fraction of the engagement's wall time
   the stress workload spent frozen: pause / (pause + work). *)
let ns_per_insn = 1

let transition_totals rows =
  let dip pause_of =
    let dip_of r =
      let pause = pause_of r and work = r.t_sched_steps * ns_per_insn in
      if pause = 0 then 0.0
      else float_of_int pause /. float_of_int (pause + work)
    in
    match rows with
    | [] -> 0.0
    | _ ->
      List.fold_left (fun a r -> a +. dip_of r) 0.0 rows
      /. float_of_int (List.length rows)
  in
  let dip_pt = dip (fun r -> r.t_pause_ns) in
  let dip_base = dip (fun r -> r.t_base_pause_ns) in
  let migrated c =
    let name = Transition.sp_class_name c in
    (* apply-phase stats carry no Forced entries (a pauseless apply never
       forces); the straggler cells do *)
    ( name,
      num
        (sum
           (fun r ->
             Option.value ~default:0 (List.assoc_opt name r.t_migrated)
             + if c = Transition.Forced then r.t_straggler_forced else 0)
           rows) )
  in
  let pauses f = J.Arr (List.map (fun r -> num (f r)) rows) in
  J.Obj
    [
      ("threads", num (sum (fun r -> r.t_threads) rows));
      ("pauseless", num (count (fun r -> r.t_pause_ns = 0) rows));
      ("fallbacks", num (count (fun r -> r.t_straggler_forced > 0) rows));
      ("violations", num (sum (fun r -> List.length r.t_notes) rows));
      ("dip", J.Num dip_pt);
      ("baseline_dip", J.Num dip_base);
      ("dip_below_baseline", J.Bool (dip_pt < dip_base));
      ("migrated_by_class", J.Obj (List.map migrated Transition.all_classes));
      ("pauses_ns", pauses (fun r -> r.t_pause_ns));
      ("undo_pauses_ns", pauses (fun r -> r.t_undo_pause_ns));
      ("baseline_pauses_ns", pauses (fun r -> r.t_base_pause_ns));
      ("straggler_pauses_ns", pauses (fun r -> r.t_straggler_pause_ns));
    ]

let transition : (module S with type key = Cve.t and type row = trow) =
  (module struct
    include By_cve

    type row = trow

    let name = "transition"

    (* the same sample as the crash sweep: each row costs six stress runs
       across its twin machines *)
    let default_rows = corpus_sample
    let gate_rows () = cves_named [ "CVE-2006-2451"; "CVE-2007-4573" ]

    (* deterministic without a seed: the machines are *)
    let run_row ~seed:_ ~index:_ cve =
      run_tcell cve (create_update cve (Base_kernel.tree ()))

    let progress row =
      Printf.sprintf "%-14s pause %d ns (baseline %d ns) forced %d%s" row.t_cve
        row.t_pause_ns row.t_base_pause_ns row.t_straggler_forced
        (tag row.t_notes)

    let violations row = row.t_notes

    let row_json row =
      J.Obj
        [
          ("cve", J.Str row.t_cve);
          ("threads", num row.t_threads);
          ("pause_ns", num row.t_pause_ns);
          ("undo_pause_ns", num row.t_undo_pause_ns);
          ("baseline_pause_ns", num row.t_base_pause_ns);
          ( "migrated",
            J.Obj (List.map (fun (c, n) -> (c, num n)) row.t_migrated) );
          ("rounds", num row.t_rounds);
          ("sched_steps", num row.t_sched_steps);
          ("straggler_forced", num row.t_straggler_forced);
          ("straggler_pause_ns", num row.t_straggler_pause_ns);
          ("notes", strs row.t_notes);
        ]

    let totals = transition_totals
    let check _ = []
  end)

(* ---------- the fleet sweep: distribution under transport faults ----------

   For each sampled CVE a server repository publishes a short stacked
   chain (this CVE plus the next corpus CVEs that still apply to the
   patched tree, capped at three hops). A fault-free probe sync counts
   the frames a full mirror costs; then every transport fault kind is
   injected at every frame index and a fresh subscriber must still
   converge: retried sync byte-identical to the server chain, mirror
   fsck-clean, zero redundant blob transfers, all deterministic in the
   seed. One extra cell per row proves graceful degradation against an
   unreachable server. *)

module Wire = Fleet.Wire
module Transport = Fleet.Transport
module Server = Fleet.Server
module Subscriber = Fleet.Subscriber

type frow = {
  fl_cve : string;
  fl_depth : int;  (* entries published on the server chain *)
  fl_frames : int;  (* frames crossing the wire in a fault-free sync *)
  fl_cells : int;
  fl_retried : int;  (* cells that needed more than one attempt *)
  fl_bytes_saved : int;  (* bytes resume skipped re-downloading *)
  fl_notes : string list;  (* violations; [] = row passed *)
}

let publish_chain repo ?(from = Cve.all) base ~depth =
  let ( let* ) = Result.bind in
  let rec go tree chain = function
    | (c : Cve.t) :: rest when List.length chain < depth ->
      if not (Cve.applies_to c tree) then go tree chain rest
      else
        let patch = Cve.hot_patch c tree in
        let* update = create_result c ~patch tree in
        let* (_ : Repo.entry) =
          Repo.publish repo ~source:tree ~patch ~update
          |> Result.map_error
               (Format.asprintf "publish %s: %a" c.id Repo.pp_error)
        in
        let* tree =
          Diff.apply patch tree
          |> Result.map_error (Printf.sprintf "apply %s: %s" c.id)
        in
        go tree ((c, update) :: chain) rest
    | _ -> Ok (List.rev chain)
  in
  go base [] from

let fleet_mirror_notes repo sub ~server_head (r : Subscriber.report) =
  let notes = ref [] in
  let note fmt = Format.kasprintf (fun s -> notes := !notes @ [ s ]) fmt in
  if not r.r_synced then
    note "sync never converged: %s" (String.concat " | " r.r_log);
  if r.r_redundant <> 0 then
    note "%d redundant blob transfer(s) on resume" r.r_redundant;
  if r.r_synced && not (String.equal r.r_head server_head) then
    note "head %s, server serves %s" r.r_head server_head;
  (* byte-identical chain refs *)
  if r.r_synced then
    List.iter
      (fun (rname, d) ->
        if String.length rname >= 6 && String.sub rname 0 6 = "entry:" then
          match Store.find_ref sub rname with
          | Some d' when String.equal d d' -> ()
          | Some d' -> note "ref %s: mirror has %s, server %s" rname d' d
          | None -> note "ref %s missing from the mirror" rname)
      (Store.refs (Repo.store repo));
  (* the mirror must be a well-formed repository whatever happened *)
  (match Repo.fsck (Repo.of_store sub) with
  | Ok _ -> ()
  | Error fr ->
    List.iter
      (fun iss -> note "mirror fsck: %a" Store.pp_fsck_issue iss)
      fr.Repo.store_report.Store.f_issues;
    List.iter
      (fun (d, m) -> note "mirror fsck: entry %s: %s" d m)
      fr.Repo.corrupt_entries);
  !notes

let fleet_cell ~seed repo ~base_digest ~server_head ~at ~kind =
  let sub = Store.create ~name:"fleet-sub" () in
  let plan = { Transport.at; kind; seed } in
  let connect attempt =
    let p = if attempt = 1 then Some plan else None in
    let session = Server.session repo in
    let tr, _ = Transport.sim ?plan:p ~serve:(Server.handle session) () in
    Some tr
  in
  let id =
    Printf.sprintf "%s@%d" (Transport.fault_kind_to_string kind) at
  in
  let r = Subscriber.sync ~id ~store:sub ~base:base_digest ~connect () in
  (r, fleet_mirror_notes repo sub ~server_head r)

let fleet_cve ~seed (cve : Cve.t) base =
  let notes = ref [] in
  let note fmt = Format.kasprintf (fun s -> notes := !notes @ [ s ]) fmt in
  let base_digest = Tree.digest base in
  (* the server chain: [cve], then the corpus CVEs stacking onto it *)
  let rec from = function
    | c :: _ as l when String.equal c.Cve.id cve.id -> l
    | _ :: tl -> from tl
    | [] -> []
  in
  let repo = Repo.of_store (Store.create ~name:("fleet-" ^ cve.id) ()) in
  let chain =
    match publish_chain repo ~from:(from Cve.all) base ~depth:3 with
    | Ok chain -> chain
    | Error m ->
      note "%s" m;
      []
  in
  let depth = List.length chain in
  if depth = 0 then note "no chain could be published";
  let server_head =
    match Repo.head repo ~digest:base_digest with
    | Ok d -> d
    | Error e ->
      note "server head: %a" Repo.pp_error e;
      base_digest
  in
  (* fault-free probe: counts the frames and proves the happy path *)
  let frames =
    let sub = Store.create ~name:"fleet-probe" () in
    let session = Server.session repo in
    let tr, stats = Transport.sim ~serve:(Server.handle session) () in
    let r =
      Subscriber.sync ~store:sub ~base:base_digest
        ~connect:(fun _ -> Some tr)
        ()
    in
    List.iter (fun m -> note "probe: %s" m)
      (fleet_mirror_notes repo sub ~server_head r);
    stats.Transport.frames
  in
  let cells = ref 0 and retried = ref 0 and saved = ref 0 in
  let kinds = Transport.all_fault_kinds in
  List.iteri
    (fun ki kind ->
      for at = 1 to frames do
        incr cells;
        let cell_seed = seed + (127 * at) + ki in
        let r, ns =
          fleet_cell ~seed:cell_seed repo ~base_digest ~server_head ~at ~kind
        in
        if r.Subscriber.r_attempts > 1 then begin
          incr retried;
          saved := !saved + r.r_bytes_saved
        end;
        List.iter
          (fun m ->
            note "%s@%d: %s" (Transport.fault_kind_to_string kind) at m)
          ns
      done)
    kinds;
  (* determinism: the first faulted cell replays bit-identically *)
  if frames > 0 then begin
    let kind = List.hd kinds in
    let run () =
      fst (fleet_cell ~seed:(seed + 127) repo ~base_digest ~server_head ~at:1 ~kind)
    in
    if run () <> run () then note "cell (%s, 1) is not deterministic in seed"
        (Transport.fault_kind_to_string kind)
  end;
  (* graceful degradation: server unreachable, old head kept, store clean *)
  (let sub = Store.create ~name:"fleet-degraded" () in
   incr cells;
   let r =
     Subscriber.sync
       ~policy:{ Subscriber.default_policy with retries = 3 }
       ~store:sub ~base:base_digest
       ~connect:(fun _ -> None)
       ()
   in
   if r.Subscriber.r_synced then note "degraded cell claims a sync";
   if not (String.equal r.r_head base_digest) then
     note "degraded cell moved the head to %s" r.r_head;
   if r.r_attempts <> 3 then
     note "degraded cell used %d attempts, expected 3" r.r_attempts;
   match Store.fsck sub with
   | Ok _ -> ()
   | Error _ -> note "degraded store not fsck-clean");
  {
    fl_cve = cve.id;
    fl_depth = depth;
    fl_frames = frames;
    fl_cells = !cells;
    fl_retried = !retried;
    fl_bytes_saved = !saved;
    fl_notes = !notes;
  }

let fleet : (module S with type key = Cve.t and type row = frow) =
  (module struct
    include By_cve

    type row = frow

    let name = "fleet"
    let default_rows = corpus_sample
    let gate_rows () = cves_named [ "CVE-2006-2451"; "CVE-2008-0600" ]

    let run_row ~seed ~index cve =
      fleet_cve ~seed:(seed + (2003 * index)) cve (Base_kernel.tree ())

    let progress row =
      Printf.sprintf
        "%-14s depth %d, %3d frames, %3d cells: %d retried, %dB saved%s"
        row.fl_cve row.fl_depth row.fl_frames row.fl_cells row.fl_retried
        row.fl_bytes_saved (tag row.fl_notes)

    let violations row = row.fl_notes

    let row_json row =
      J.Obj
        [ ("cve", J.Str row.fl_cve); ("depth", num row.fl_depth);
          ("frames", num row.fl_frames); ("cells", num row.fl_cells);
          ("retried", num row.fl_retried);
          ("bytes_saved", num row.fl_bytes_saved);
          ("notes", strs row.fl_notes) ]

    let totals rows =
      J.Obj
        [
          ("cells", num (sum (fun r -> r.fl_cells) rows));
          ("retried", num (sum (fun r -> r.fl_retried) rows));
          ("bytes_saved", num (sum (fun r -> r.fl_bytes_saved) rows));
          ("violations", num (sum (fun r -> List.length r.fl_notes) rows));
        ]

    let check _ = []
  end)

(* ---------- the cumulative sweep: atomic replace at depth ----------

   For each requested depth k a chain of k corpus CVEs (each still
   applicable to the successively patched tree) is published into a
   repository and collapsed with [Repo.publish_cumulative]. Contracts:

   - the collapse's [supersedes] lists exactly the chain ids, oldest
     first;
   - on a machine carrying the stacked chain, [Apply.apply_cumulative]
     lands a footprint byte-identical to the undo-then-plain-apply twin
     (same machine history, same alloc cursors);
   - undoing the collapse re-stacks the original chain, byte-exact;
   - a fault injected at every [Txn] step aborts the whole collapse —
     unwind and install alike — back to the byte-identical stacked
     machine;
   - the repository (per-update chain plus the cumulative entry)
     passes fsck.

   The shadow rows prove §5.3 end to end for the shadow-variable
   extras: patch (ctor attaches the side table), exploit blocked,
   collapse and un-collapse keep the shadows live, final undo runs the
   dtors and the exploit returns. *)

type curow = {
  cu_requested : int;
  cu_depth : int;  (* chain entries actually published *)
  cu_chain : string list;  (* update ids, oldest first *)
  cu_cells : (Txn.step * cell) list;
  cu_fsck_clean : bool;
  cu_notes : string list;  (* violations; [] = row passed *)
}

type cushadow = {
  cs_cve : string;
  cs_shadows : int;  (* shadow bindings live after the collapse *)
  cs_notes : string list;
}

let stack_ids mgr =
  List.rev_map
    (fun (a : Apply.applied) -> a.Apply.update.Ksplice.Update.update_id)
    (Apply.applied mgr)

let run_curow ~seed ~depth base =
  let notes = ref [] in
  let note fmt = Format.kasprintf (fun s -> notes := !notes @ [ s ]) fmt in
  let name = Printf.sprintf "cumulative-%d" depth in
  let repo = Repo.of_store (Store.create ~name ()) in
  let chain =
    match publish_chain repo base ~depth with
    | Ok chain -> chain
    | Error m ->
      note "%s" m;
      []
  in
  let ids = List.map (fun ((c : Cve.t), _) -> c.id) chain in
  if chain = [] then note "no chain could be published";
  let cum_id = Printf.sprintf "cumulative-depth-%d" depth in
  let cum =
    if chain = [] then None
    else
      match
        Repo.publish_cumulative repo ~source:base ~update_id:cum_id
          ~description:
            (Printf.sprintf "collapse of %d updates" (List.length chain))
      with
      | Ok e -> Some e.Repo.update
      | Error e ->
        note "publish_cumulative: %a" Repo.pp_error e;
        None
  in
  (match cum with
   | None -> ()
   | Some cu ->
     if cu.Ksplice.Update.supersedes <> ids then
       note "collapse supersedes [%s], chain is [%s]"
         (String.concat "; " cu.Ksplice.Update.supersedes)
         (String.concat "; " ids));
  let stack_all mgr who =
    List.iter
      (fun (_, (u : Ksplice.Update.t)) ->
        match Apply.apply mgr u with
        | Ok _ -> ()
        | Error e ->
          note "%s: stacking %s failed: %s" who u.update_id (err_str e))
      chain
  in
  let cells = ref [] in
  (match cum with
   | None -> ()
   | Some cu ->
     (* footprint twins: undo-then-plain-apply vs atomic replace *)
     let ba = Boot.boot () and bb = Boot.boot () in
     let mgra = Apply.init ba.Boot.machine in
     let mgrb = Apply.init bb.Boot.machine in
     stack_all mgra "plain twin";
     stack_all mgrb "collapse twin";
     List.iter
       (fun ((c : Cve.t), _) ->
         match Apply.undo mgra c.id with
         | Ok () -> ()
         | Error e -> note "plain twin: undo %s failed: %s" c.id (err_str e))
       (List.rev chain);
     (match Apply.apply mgra cu with
      | Ok _ -> ()
      | Error e -> note "plain twin: apply failed: %s" (err_str e));
     (match Apply.apply_cumulative mgrb cu with
      | Ok _ -> ()
      | Error e -> note "atomic replace failed: %s" (err_str e));
     if not (String.equal (Apply.footprint mgra) (Apply.footprint mgrb))
     then note "collapse footprint diverges from the plain twin";
     (match stack_ids mgrb with
      | [ id ] when String.equal id cum_id -> ()
      | got ->
        note "after the collapse the stack is [%s], want [%s]"
          (String.concat "; " got) cum_id);
     (match Apply.verify mgrb with
      | Ok () -> ()
      | Error e -> note "collapsed machine does not verify: %s" (err_str e));
     List.iter
       (fun ((c : Cve.t), _) ->
         match Exploits.find c.id with
         | None -> ()
         | Some ex ->
           let o = ex.run bb in
           if o.succeeded then
             note "exploit %s still succeeds after the collapse: %s" ex.name
               o.detail)
       chain;
     (* undoing the collapse must re-stack the superseded chain *)
     (match Apply.undo mgrb cum_id with
      | Error e -> note "undo of the collapse failed: %s" (err_str e)
      | Ok () ->
        if stack_ids mgrb <> ids then
          note "undo of the collapse re-stacked [%s], want [%s]"
            (String.concat "; " (stack_ids mgrb))
            (String.concat "; " ids);
        match Apply.verify mgrb with
        | Ok () -> ()
        | Error e -> note "re-stacked machine does not verify: %s" (err_str e));
     (* the faulted cells, on a third stacked machine *)
     let bc = Boot.boot () in
     let mgrc = Apply.init bc.Boot.machine in
     stack_all mgrc "fault twin";
     cells :=
       List.mapi
         (fun si step ->
           ( step,
             faulted_cell mgrc ~what:"collapse" ~undo:"un-collapse"
               ~undo_id:cum_id
               ~apply:(fun inject -> Apply.apply_cumulative mgrc ~inject cu)
               step ~seed:(seed + (31 * si)) ))
         Txn.all_steps;
     (* recovery: a clean collapse must still land after the sweep *)
     (match Apply.apply_cumulative mgrc cu with
      | Error e -> note "clean collapse after the sweep failed: %s" (err_str e)
      | Ok _ -> (
        match Apply.verify mgrc with
        | Ok () -> ()
        | Error e -> note "recovered collapse does not verify: %s" (err_str e))));
  let fsck_clean =
    match Repo.fsck repo with
    | Ok _ -> true
    | Error fr ->
      List.iter
        (fun iss -> note "fsck: %a" Store.pp_fsck_issue iss)
        fr.Repo.store_report.Store.f_issues;
      List.iter
        (fun (d, m) -> note "fsck: entry %s: %s" d m)
        fr.Repo.corrupt_entries;
      false
  in
  {
    cu_requested = depth;
    cu_depth = List.length chain;
    cu_chain = ids;
    cu_cells = !cells;
    cu_fsck_clean = fsck_clean;
    cu_notes = !notes;
  }

(* §5.3 round trip for one shadow-variable extra *)
let run_cushadow (cve : Cve.t) base =
  let notes = ref [] in
  let note fmt = Format.kasprintf (fun s -> notes := !notes @ [ s ]) fmt in
  let b = Boot.boot () in
  let m = b.Boot.machine in
  let mgr = Apply.init m in
  let count0 = Machine.shadow_count m in
  let check_exploit who expect =
    match Exploits.find cve.id with
    | None -> note "no exploit registered for %s" cve.id
    | Some ex ->
      let o = ex.run b in
      if o.succeeded <> expect then
        note "%s: exploit %s %s (%s)" who ex.name
          (if o.succeeded then "succeeded" else "was blocked")
          o.detail
  in
  let repo = Repo.of_store (Store.create ~name:("cushadow-" ^ cve.id) ()) in
  let patch = Cve.hot_patch cve base in
  let update = create_update cve base in
  (match Repo.publish repo ~source:base ~patch ~update with
   | Ok _ -> ()
   | Error e -> note "publish: %a" Repo.pp_error e);
  let cum_id = cve.id ^ "-cumulative" in
  let cum =
    match
      Repo.publish_cumulative repo ~source:base ~update_id:cum_id
        ~description:("collapse of " ^ cve.id)
    with
    | Ok e -> Some e.Repo.update
    | Error e ->
      note "publish_cumulative: %a" Repo.pp_error e;
      None
  in
  (match Apply.apply mgr update with
   | Ok _ -> ()
   | Error e -> note "apply failed: %s" (err_str e));
  if Machine.shadow_count m <= count0 then
    note "shadow ctor attached nothing (%d bindings)" (Machine.shadow_count m);
  check_exploit "patched" false;
  let shadows = ref 0 in
  (match cum with
   | None -> ()
   | Some cu ->
     (match Apply.apply_cumulative mgr cu with
      | Ok _ -> ()
      | Error e -> note "atomic replace failed: %s" (err_str e));
     shadows := Machine.shadow_count m;
     if !shadows <= count0 then
       note "collapse dropped the shadows (%d bindings)" !shadows;
     check_exploit "collapsed" false;
     (match Apply.undo mgr cum_id with
      | Ok () -> ()
      | Error e -> note "undo of the collapse failed: %s" (err_str e));
     if Machine.shadow_count m <= count0 then
       note "un-collapse lost the original update's shadows";
     check_exploit "re-stacked" false);
  (match Apply.undo mgr cve.id with
   | Ok () -> ()
   | Error e -> note "final undo failed: %s" (err_str e));
  if Machine.shadow_count m <> count0 then
    note "shadow dtor left %d bindings (started with %d)"
      (Machine.shadow_count m) count0;
  check_exploit "reverted" true;
  { cs_cve = cve.id; cs_shadows = !shadows; cs_notes = !notes }

type cumulative_key = Depth of int | Shadow of Cve.t
type cumulative_row = Collapse of curow | Shadow_round_trip of cushadow

let cumulative :
    (module S with type key = cumulative_key and type row = cumulative_row) =
  (module struct
    type key = cumulative_key
    type row = cumulative_row

    let name = "cumulative"
    let shadows = List.map (fun c -> Shadow c) Cve.shadow_extras
    let default_rows () = List.map (fun d -> Depth d) [ 1; 8; 32 ] @ shadows
    let gate_rows () = [ Depth 1; Depth 4 ] @ shadows

    let key_of_string s =
      match int_of_string_opt s with
      | Some d when d > 0 -> Some (Depth d)
      | _ ->
        List.find_opt (fun (c : Cve.t) -> String.equal c.id s) Cve.shadow_extras
        |> Option.map (fun c -> Shadow c)

    let key_name = function
      | Depth d -> Printf.sprintf "depth %d" d
      | Shadow c -> c.Cve.id

    let run_row ~seed ~index = function
      | Depth depth ->
        Collapse
          (run_curow ~seed:(seed + (4001 * index)) ~depth (Base_kernel.tree ()))
      | Shadow cve -> Shadow_round_trip (run_cushadow cve (Base_kernel.tree ()))

    let progress = function
      | Collapse row ->
        Printf.sprintf "depth %-3d (%d published) %s  fsck %s%s"
          row.cu_requested row.cu_depth (cell_string row.cu_cells)
          (if row.cu_fsck_clean then "clean" else "DIRTY")
          (tag row.cu_notes)
      | Shadow_round_trip row ->
        Printf.sprintf "%-14s %d shadow bindings%s" row.cs_cve row.cs_shadows
          (tag row.cs_notes)

    let violations = function
      | Collapse row -> cell_violations row.cu_cells @ row.cu_notes
      | Shadow_round_trip row -> row.cs_notes

    let row_json = function
      | Collapse row ->
        J.Obj
          [ ("requested", num row.cu_requested); ("depth", num row.cu_depth);
            ("chain", strs row.cu_chain);
            ("cells", J.Str (cell_string row.cu_cells));
            ("fsck_clean", J.Bool row.cu_fsck_clean);
            ("notes", strs row.cu_notes) ]
      | Shadow_round_trip row ->
        J.Obj
          [ ("cve", J.Str row.cs_cve); ("shadows", num row.cs_shadows);
            ("notes", strs row.cs_notes) ]

    let totals rows =
      let cells =
        List.concat_map
          (function
            | Collapse r -> List.map snd r.cu_cells
            | Shadow_round_trip _ -> [])
          rows
      in
      J.Obj
        [
          ("cells", num (List.length cells));
          ("rolled_back", num (count (( = ) Rolled_back) cells));
          ("violations", num (sum (fun r -> List.length (violations r)) rows));
        ]

    let check _ = []
  end)

(* ---------- the minimal-differencing sweep ----------

   For every corpus CVE (plus the shadow and differencing extras) build
   the update twice — function-granular minimal and whole-unit baseline
   — and prove the minimal one is complete (applies, verifies, survives
   stress, blocks the exploit, lands a deterministic footprint) while
   measuring what minimality buys: update bytes and run-pre candidate
   trials. *)

type dmrow = {
  dm_cve : string;
  dm_min_bytes : int;
  dm_whole_bytes : int;
  dm_min_syms : int;  (** defined symbols shipped in the minimal primary *)
  dm_whole_syms : int;
  dm_min_trials : int;  (** run-pre candidate trials during apply *)
  dm_whole_trials : int;
  dm_closure : bool;  (** some symbol shipped by dependency closure *)
  dm_data_ref : bool;  (** some function shipped as a data referent *)
  dm_notes : string list;  (** violations; [[]] = row passed *)
}

let defined_syms (o : Objfile.t) =
  List.length (List.filter Objfile.Symbol.is_defined o.Objfile.symbols)

let update_size (u : Ksplice.Update.t) =
  Bytes.length (Ksplice.Update.to_bytes u)

(* the run-pre trial counter is process-global: applies that are being
   measured take this lock so concurrent rows cannot bleed into each
   other's deltas *)
let dm_trials_mutex = Mutex.create ()

let dm_measured_apply update =
  Mutex.lock dm_trials_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock dm_trials_mutex)
    (fun () ->
      let b = Boot.boot () in
      let mgr = Apply.init b.machine in
      Ksplice.Runpre.reset_match_attempts ();
      let r = Apply.apply mgr update in
      let trials = Ksplice.Runpre.match_attempts () in
      (b, mgr, r, trials))

let expected_banner_sum s =
  Int32.of_int (String.fold_left (fun a c -> a + Char.code c) 0 s)

let run_dmrow (cve : Cve.t) base =
  let notes = ref [] in
  let note fmt = Format.kasprintf (fun s -> notes := !notes @ [ s ]) fmt in
  let patch = Cve.hot_patch cve base in
  let req =
    { Create.source = base; patch; update_id = cve.id;
      description = cve.desc }
  in
  let cmin, cwhole =
    match (Create.create req, Create.create ~minimal:false req) with
    | Ok a, Ok b -> (Some a, Some b)
    | Error e, _ ->
      note "minimal create failed: %a" Create.pp_error e;
      (None, None)
    | _, Error e ->
      note "whole-unit create failed: %a" Create.pp_error e;
      (None, None)
  in
  match (cmin, cwhole) with
  | Some cmin, Some cwhole ->
    (* completeness of the explanation: every defined primary symbol
       must carry an inclusion reason *)
    let reasons = Create.shipped_symbols cmin in
    List.iter
      (fun (sym : Objfile.Symbol.t) ->
        if Objfile.Symbol.is_defined sym
           && not (List.mem_assoc sym.name reasons)
        then note "shipped symbol %s has no inclusion reason" sym.name)
      cmin.Create.update.primary.symbols;
    let has_reason p =
      List.exists (fun (_, (_, r)) -> p r) reasons
    in
    let dm_closure =
      has_reason (function Ksplice.Prepost.Closure_of _ -> true | _ -> false)
    in
    let dm_data_ref =
      has_reason (function
        | Ksplice.Prepost.Data_referent _ -> true
        | _ -> false)
    in
    (* minimal apply: measured, then proven complete *)
    let b, mgr, rmin, min_trials = dm_measured_apply cmin.Create.update in
    (match rmin with
     | Error e -> note "minimal apply failed: %s" (err_str e)
     | Ok _ -> (
       (match Apply.verify mgr with
        | Ok () -> ()
        | Error e -> note "minimal apply did not verify: %s" (err_str e));
       let r = Stress.run b ~threads:2 ~iterations:5 in
       if not r.ok then
         note "stress on minimal apply: %s" (String.concat "; " r.failures);
       (match Exploits.find cve.id with
        | None -> ()
        | Some ex ->
          let o = ex.run b in
          if o.succeeded then
            note "exploit %s survives the minimal update: %s" ex.name
              o.detail);
       if String.equal cve.id Cve.diff_banner.id then begin
         let got = Boot.read_global b "banner_sum" in
         let want = expected_banner_sum Cve.banner_new in
         if not (Int32.equal got want) then
           note "banner_sum %ld after refresh, expected %ld" got want
       end;
       (* twin determinism: the same minimal update on a second fresh
          boot must land a byte-identical footprint *)
       let _, mgr2, rmin2, _ = dm_measured_apply cmin.Create.update in
       (match rmin2 with
        | Error e -> note "twin minimal apply failed: %s" (err_str e)
        | Ok _ ->
          if not (String.equal (Apply.footprint mgr) (Apply.footprint mgr2))
          then note "minimal apply footprint is not deterministic")));
    (* whole-unit twin: must also work, and cost at least as much *)
    let _, mgrw, rwhole, whole_trials =
      dm_measured_apply cwhole.Create.update
    in
    (match rwhole with
     | Error e -> note "whole-unit apply failed: %s" (err_str e)
     | Ok _ -> (
       match Apply.verify mgrw with
       | Ok () -> ()
       | Error e -> note "whole-unit apply did not verify: %s" (err_str e)));
    let dm_min_bytes = update_size cmin.Create.update in
    let dm_whole_bytes = update_size cwhole.Create.update in
    if dm_min_bytes > dm_whole_bytes then
      note "minimal update larger than whole-unit (%d > %d)" dm_min_bytes
        dm_whole_bytes;
    if min_trials > whole_trials then
      note "minimal apply tried more candidates (%d > %d)" min_trials
        whole_trials;
    {
      dm_cve = cve.id;
      dm_min_bytes;
      dm_whole_bytes;
      dm_min_syms = defined_syms cmin.Create.update.primary;
      dm_whole_syms = defined_syms cwhole.Create.update.primary;
      dm_min_trials = min_trials;
      dm_whole_trials = whole_trials;
      dm_closure;
      dm_data_ref;
      dm_notes = !notes;
    }
  | _ ->
    {
      dm_cve = cve.id;
      dm_min_bytes = 0;
      dm_whole_bytes = 0;
      dm_min_syms = 0;
      dm_whole_syms = 0;
      dm_min_trials = 0;
      dm_whole_trials = 0;
      dm_closure = false;
      dm_data_ref = false;
      dm_notes = !notes;
    }

(* the Table-1 refusals: each data-init mainline patch (custom code
   stripped) whose initializer image genuinely changes must come back as
   Data_semantics_changed naming the datum *)
let dm_persist_rejects base =
  List.fold_left
    (fun acc (cve : Cve.t) ->
      match cve.custom with
      | Some (Cve.Changes_data_init, _) -> (
        match
          Create.create
            { Create.source = base; patch = Cve.mainline_patch cve base;
              update_id = cve.id; description = "" }
        with
        | Error (Create.Data_semantics_changed ((_, d) :: _))
          when String.length d > 0 ->
          acc + 1
        | _ -> acc)
      | _ -> acc)
    0 Cve.all

(* a property of the corpus, not of any row: computed once *)
let persist_rejects = lazy (dm_persist_rejects (Base_kernel.tree ()))

let diffmin : (module S with type key = Cve.t and type row = dmrow) =
  (module struct
    include By_cve

    type row = dmrow

    let name = "diffmin"
    let default_rows () = Cve.all @ Cve.shadow_extras @ Cve.diff_extras

    let gate_rows () =
      cves_named [ "CVE-2006-2451"; "CVE-2008-0600"; "DIFF-2009-0001" ]

    let run_row ~seed:_ ~index:_ cve = run_dmrow cve (Base_kernel.tree ())

    let progress row =
      Printf.sprintf "%-14s %5d/%5d B  %3d/%3d trials%s%s%s" row.dm_cve
        row.dm_min_bytes row.dm_whole_bytes row.dm_min_trials
        row.dm_whole_trials
        (if row.dm_closure then " C" else "")
        (if row.dm_data_ref then " D" else "")
        (tag row.dm_notes)

    let violations row = row.dm_notes

    let row_json row =
      J.Obj
        [
          ("cve", J.Str row.dm_cve);
          ("min_bytes", num row.dm_min_bytes);
          ("whole_bytes", num row.dm_whole_bytes);
          ("min_syms", num row.dm_min_syms);
          ("whole_syms", num row.dm_whole_syms);
          ("min_trials", num row.dm_min_trials);
          ("whole_trials", num row.dm_whole_trials);
          ("closure", J.Bool row.dm_closure);
          ("data_ref", J.Bool row.dm_data_ref);
          ("notes", strs row.dm_notes);
        ]

    let totals rows =
      J.Obj
        [
          ("bytes_min", num (sum (fun r -> r.dm_min_bytes) rows));
          ("bytes_whole", num (sum (fun r -> r.dm_whole_bytes) rows));
          ("trials_min", num (sum (fun r -> r.dm_min_trials) rows));
          ("trials_whole", num (sum (fun r -> r.dm_whole_trials) rows));
          ("closure_demos", num (count (fun r -> r.dm_closure) rows));
          ("dataref_demos", num (count (fun r -> r.dm_data_ref) rows));
          ("persist_rejects", num (Lazy.force persist_rejects));
          ("violations", num (sum (fun r -> List.length r.dm_notes) rows));
        ]

    (* what minimality must buy over the whole sweep, beyond each row *)
    let check rows =
      let total f = sum f rows in
      List.filter_map
        (fun (failed, msg) -> if failed then Some msg else None)
        [
          ( count (fun r -> r.dm_closure) rows < 1,
            "no symbol shipped by dependency closure" );
          ( count (fun r -> r.dm_data_ref) rows < 1,
            "no function shipped as a data referent" );
          ( Lazy.force persist_rejects < 1,
            "no data-init mainline patch refused as persistent data" );
          ( total (fun r -> r.dm_min_bytes)
            >= total (fun r -> r.dm_whole_bytes),
            "minimal updates are not smaller than whole-unit ones" );
          ( total (fun r -> r.dm_min_trials)
            > total (fun r -> r.dm_whole_trials),
            "minimal applies tried more run-pre candidates" );
        ]
  end)

(* ---------- the registry ---------- *)

type sweep = Sweep : (module S with type key = 'k and type row = 'r) -> sweep

let all =
  [ Sweep fault; Sweep manager; Sweep crash; Sweep transition; Sweep fleet;
    Sweep cumulative; Sweep diffmin ]

let find name =
  List.find_opt
    (fun (Sweep (module M)) -> String.equal M.name name)
    all
