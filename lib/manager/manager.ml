module Machine = Kernel.Machine
module Apply = Ksplice.Apply
module Txn = Ksplice.Txn
module Update = Ksplice.Update
module J = Report.Json
module Transition = Transition

let src = Logs.Src.create "ksplice.manager" ~doc:"Supervised update manager"

module Log = (val Logs.src_log src : Logs.LOG)

type health_check = {
  hc_name : string;
  hc_probe : unit -> (unit, string) result;
}

(* tight enough that the watchdog and retry queue actually trip in the
   manager sweep's adversarial and forced-not-quiescent cells, loose
   enough that a drainable blocker still converges: [deadline] is each
   apply's and undo's scheduler-step budget, an update gets
   [retry_limit] attempts, and the wait after attempt n is
   min(backoff_cap, backoff_base * 2^(n-1)) plus a jitter below
   [jitter] *)
let deadline = 12_000
let retry_limit = 4
let backoff_base = 300
let backoff_cap = 2_000
let jitter = 100

type park_reason =
  | Exhausted_retries of Apply.not_quiescent
  | Rejected of string

type status =
  | Waiting
  | Applied_healthy
  | Parked of park_reason
  | Quarantined of {
      evidence : (string * string) list;
      reverted : bool;
    }

let status_name = function
  | Waiting -> "waiting"
  | Applied_healthy -> "applied-healthy"
  | Parked _ -> "parked"
  | Quarantined _ -> "quarantined"

let pp_status ppf = function
  | Waiting -> Format.pp_print_string ppf "waiting"
  | Applied_healthy -> Format.pp_print_string ppf "applied-healthy"
  | Parked (Exhausted_retries nq) ->
    Format.fprintf ppf "parked: never quiesced in %d manager attempts; %s"
      nq.Apply.nq_attempts
      (String.concat ", " nq.Apply.nq_functions)
  | Parked (Rejected msg) -> Format.fprintf ppf "parked: %s" msg
  | Quarantined { evidence; reverted } ->
    Format.fprintf ppf "quarantined (%s): %s"
      (if reverted then "reverted" else "REVERT FAILED, still live")
      (String.concat "; "
         (List.map (fun (n, m) -> n ^ ": " ^ m) evidence))

module Event = struct
  type kind =
    | Submitted
    | Applied
    | Apply_failed
    | Retried
    | Parked
    | Health_failed
    | Reverted
    | Quarantined
    | Healthy
    | Violation

  let kind_name = function
    | Submitted -> "submitted"
    | Applied -> "applied"
    | Apply_failed -> "apply-failed"
    | Retried -> "retried"
    | Parked -> "parked"
    | Health_failed -> "health-failed"
    | Reverted -> "reverted"
    | Quarantined -> "quarantined"
    | Healthy -> "healthy"
    | Violation -> "violation"

  type t = {
    seq : int;
    at : int;
    retired : int;
    update : string;
    kind : kind;
    attempt : int;
    steps : int;
    detail : string;
  }

  let pp ppf e =
    Format.fprintf ppf "[%4d @%d] %-14s %-13s attempt=%d steps=%d%s" e.seq
      e.at e.update (kind_name e.kind) e.attempt e.steps
      (if e.detail = "" then "" else " " ^ e.detail)
end

type entry = {
  e_update : Update.t;
  e_health : health_check list;
  e_inject : attempt:int -> Ksplice.Faultinj.session option;
  e_cumulative : bool;  (* apply via atomic replace *)
  e_order : int;  (* submission order: the retry-queue tie-break *)
  mutable e_attempts : int;
  mutable e_due : int;  (* manager-clock time of the next attempt *)
  mutable e_status : status;
}

type t = {
  ap : Apply.t;
  seed : int;  (* the retry jitter's seed *)
  mutable entries : entry list;  (* submission order *)
  mutable clock : int;
  mutable events : Event.t list;  (* most recent first *)
  mutable next_seq : int;
  mutable violation_count : int;
}

let create ~seed ap =
  {
    ap;
    seed;
    entries = [];
    clock = 0;
    events = [];
    next_seq = 0;
    violation_count = 0;
  }

let apply_state t = t.ap
let now t = t.clock
let events t = List.rev t.events
let violations t = t.violation_count

let statuses t =
  List.map (fun e -> (e.e_update.Update.update_id, e.e_status)) t.entries

let status t id =
  List.find_map
    (fun e ->
      if String.equal e.e_update.Update.update_id id then Some e.e_status
      else None)
    t.entries

let attempts t id =
  List.fold_left
    (fun acc e ->
      if String.equal e.e_update.Update.update_id id then e.e_attempts
      else acc)
    0 t.entries

let err_str e = Format.asprintf "%a" Apply.pp_error e

(* The typed event, viewed as a trace record. This is the manager's one
   serialization path: [event_json] renders through [Trace.record_json],
   and [emit] mirrors the same fields into the live trace buffer, so the
   event log and a trace export cannot drift apart. *)
let event_fields (e : Event.t) =
  [
    ("update", Trace.Str e.Event.update);
    ("at", Trace.Int e.Event.at);
    ("attempt", Trace.Int e.Event.attempt);
    ("steps", Trace.Int e.Event.steps);
    ("detail", Trace.Str e.Event.detail);
  ]

let event_record (e : Event.t) : Trace.record =
  {
    Trace.id = e.Event.seq;
    parent = -1;
    clock = e.Event.retired;
    kind = Trace.Instant;
    name = "manager." ^ Event.kind_name e.Event.kind;
    fields = event_fields e;
  }

let emit t ?(attempt = 0) ?(steps = 0) ?(detail = "") update kind =
  let ev =
    {
      Event.seq = t.next_seq;
      at = t.clock;
      retired = Machine.instructions_retired (Apply.machine t.ap);
      update;
      kind;
      attempt;
      steps;
      detail;
    }
  in
  t.next_seq <- t.next_seq + 1;
  t.events <- ev :: t.events;
  Trace.instant ("manager." ^ Event.kind_name kind) ~fields:(event_fields ev);
  Log.debug (fun k -> k "%a" Event.pp ev)

let submit_gen ~cumulative ~health ~inject t (update : Update.t) =
  let id = update.Update.update_id in
  if
    List.exists
      (fun e -> String.equal e.e_update.Update.update_id id)
      t.entries
  then invalid_arg (Printf.sprintf "Manager.submit: %s already submitted" id);
  let e =
    {
      e_update = update;
      e_health = health;
      e_inject = inject;
      e_cumulative = cumulative;
      e_order = List.length t.entries;
      e_attempts = 0;
      e_due = t.clock;
      e_status = Waiting;
    }
  in
  t.entries <- t.entries @ [ e ];
  emit t id Event.Submitted
    ~detail:(if cumulative then "cumulative" else "")

let submit ?(health = []) ?(inject = fun ~attempt:_ -> None) t update =
  submit_gen ~cumulative:false ~health ~inject t update

let submit_cumulative ?(health = []) ?(inject = fun ~attempt:_ -> None) t
    update =
  if not (Update.is_cumulative update) then
    invalid_arg
      (Printf.sprintf "Manager.submit_cumulative: %s supersedes nothing"
         update.Update.update_id);
  submit_gen ~cumulative:true ~health ~inject t update

(* every apply and undo runs the §5.2 loop under the step deadline *)
let watchdog = Apply.stop_machine ~deadline ()

(* --- rollback auditing --- *)

let audit_clean t id ~what snap =
  let diff = Machine.diff_snapshot (Apply.machine t.ap) snap in
  if diff <> [] then begin
    t.violation_count <- t.violation_count + 1;
    emit t id Event.Violation
      ~detail:
        (Printf.sprintf "%s left the machine diverged: %s" what
           (String.concat " | " diff))
  end

(* After a successful undo, every journaled address must hold its
   pre-apply byte. Unlike a whole-machine diff this stays sound when
   genuine time passed between apply and revert (scheduler progress,
   one-way hook migrations): the §5.2 contract is about the journaled
   image bytes, and those are exactly what we check. *)
let audit_undo_bytes t id journal =
  let m = Apply.machine t.ap in
  let expected = Hashtbl.create 64 in
  List.iter
    (fun (addr, old) ->
      Bytes.iteri (fun i c -> Hashtbl.replace expected (addr + i) c) old)
    (* replay order: later writes in the list land last and win *)
    (Txn.journal_writes journal);
  let bad = ref None in
  Hashtbl.iter
    (fun addr c ->
      if !bad = None && Char.chr (Machine.read_u8 m addr) <> c then
        bad := Some addr)
    expected;
  match !bad with
  | None -> ()
  | Some addr ->
    t.violation_count <- t.violation_count + 1;
    emit t id Event.Violation
      ~detail:
        (Printf.sprintf "auto-revert left journaled byte at %#x diverged"
           addr)

(* --- the supervision loop --- *)

let park t e reason ~detail =
  e.e_status <- Parked reason;
  emit t e.e_update.Update.update_id Event.Parked ~attempt:e.e_attempts
    ~detail

(* The health gate. The probes run inside their own transaction: machine
   code they execute (exploit probes, stress smoke) is observed like any
   other mutation, so a failing gate unwinds the probe side effects
   before auto-reverting, and a passing gate keeps them (they are real
   time). Note the ordering constraint: [Apply.undo] opens its own
   transaction, so the gate's transaction must be closed first. *)
let health_gate t e (a : Apply.applied) =
  let id = e.e_update.Update.update_id in
  let m = Apply.machine t.ap in
  let snap_commit = Machine.snapshot m in
  let txn = Txn.begin_ m in
  let evidence =
    let failures = ref [] in
    (match Apply.verify t.ap with
     | Ok () -> ()
     | Error err -> failures := ("verify", err_str err) :: !failures);
    List.iter
      (fun hc ->
        match hc.hc_probe () with
        | Ok () -> ()
        | Error msg -> failures := (hc.hc_name, msg) :: !failures
        | exception exn ->
          failures := (hc.hc_name, Printexc.to_string exn) :: !failures)
      e.e_health;
    List.rev !failures
  in
  match evidence with
  | [] ->
    Txn.discard txn;
    e.e_status <- Applied_healthy;
    emit t id Event.Healthy ~attempt:e.e_attempts
  | evidence ->
    Txn.rollback txn;
    audit_clean t id ~what:"health-gate rollback" snap_commit;
    List.iter
      (fun (name, msg) ->
        emit t id Event.Health_failed ~attempt:e.e_attempts
          ~detail:(name ^ ": " ^ msg))
      evidence;
    (match Apply.undo t.ap ~engage:watchdog id with
     | Ok () ->
       audit_undo_bytes t id a.Apply.journal;
       emit t id Event.Reverted ~attempt:e.e_attempts;
       e.e_status <- Quarantined { evidence; reverted = true };
       emit t id Event.Quarantined
         ~detail:(Printf.sprintf "%d probe(s) failed" (List.length evidence))
     | Error uerr ->
       (* the degraded-but-honest case: the unhealthy update is still
          live; record it rather than pretend *)
       let evidence = evidence @ [ ("undo", err_str uerr) ] in
       e.e_status <- Quarantined { evidence; reverted = false };
       emit t id Event.Quarantined
         ~detail:("auto-revert failed: " ^ err_str uerr))

let attempt t e =
  let id = e.e_update.Update.update_id in
  let m = Apply.machine t.ap in
  let snap = Machine.snapshot m in
  e.e_attempts <- e.e_attempts + 1;
  (* a cumulative entry goes through atomic replace; everything after
     the apply — health gate, auto-revert, auditing — is identical, and
     undoing a quarantined cumulative restores the displaced stack from
     its journal without re-applying anything *)
  let apply_once =
    (if e.e_cumulative then Apply.apply_cumulative else Apply.apply)
      ~engage:watchdog
      ?inject:(e.e_inject ~attempt:e.e_attempts)
  in
  match apply_once t.ap e.e_update with
  | Ok a -> health_gate t e a
  | Error err ->
    audit_clean t id ~what:"apply rollback" snap;
    emit t id Event.Apply_failed ~attempt:e.e_attempts ~detail:(err_str err);
    (match err with
     | Apply.Not_quiescent nq | Apply.Deadline_exceeded { de_diag = nq; _ }
       ->
       if e.e_attempts >= retry_limit then
         park t e (Exhausted_retries nq)
           ~detail:
             (Printf.sprintf "retry limit (%d) exhausted: %s" retry_limit
                (err_str err))
       else begin
         (* the jitter is seeded by (seed, update id, attempt): the
            schedule replays, yet updates don't thundering-herd *)
         let delay =
           Ksplice.Backoff.retry_delay ~base:backoff_base ~cap:backoff_cap
             ~bound:jitter ~seed:t.seed ~id ~attempt:e.e_attempts
         in
         e.e_due <- t.clock + delay;
         emit t id Event.Retried ~attempt:e.e_attempts ~steps:delay
           ~detail:(Printf.sprintf "next attempt at t=%d" e.e_due)
       end
     | _ ->
       (* anything else is deterministic: retrying cannot help *)
       park t e (Rejected (err_str err)) ~detail:(err_str err))

(* Advance the manager clock to [target], letting the kernel run. The
   clock advances by the full wait even when every thread is blocked
   (Machine.run returns early): virtual time owes no progress to the
   workload, and liveness must not depend on it. *)
let wait_until t target =
  if target > t.clock then begin
    let m = Apply.machine t.ap in
    ignore (Machine.run m ~steps:(target - t.clock) : int);
    t.clock <- target
  end

let run t =
  let waiting () =
    List.filter (fun e -> e.e_status = Waiting) t.entries
  in
  let rec loop () =
    match waiting () with
    | [] -> ()
    | ws ->
      (* earliest due first; submission order breaks ties *)
      let next =
        List.fold_left
          (fun best e ->
            match best with
            | None -> Some e
            | Some b ->
              if
                e.e_due < b.e_due
                || (e.e_due = b.e_due && e.e_order < b.e_order)
              then Some e
              else best)
          None ws
      in
      let e = Option.get next in
      wait_until t e.e_due;
      attempt t e;
      loop ()
  in
  loop ()

(* --- JSON report --- *)

let num n = J.Num (float_of_int n)

let park_reason_json = function
  | Exhausted_retries nq ->
    J.Obj
      [
        ("reason", J.Str "exhausted-retries");
        ("attempts", num nq.Apply.nq_attempts);
        ("steps_run", num nq.Apply.nq_steps_run);
        ( "functions",
          J.Arr (List.map (fun f -> J.Str f) nq.Apply.nq_functions) );
        ( "blockers",
          J.Arr
            (List.map
               (fun (who, bt) ->
                 J.Obj
                   [
                     ("thread", J.Str who);
                     ("backtrace", J.Arr (List.map (fun f -> J.Str f) bt));
                   ])
               nq.Apply.nq_blockers) );
      ]
  | Rejected msg ->
    J.Obj [ ("reason", J.Str "rejected"); ("error", J.Str msg) ]

let status_json = function
  | Waiting -> J.Obj [ ("state", J.Str "waiting") ]
  | Applied_healthy -> J.Obj [ ("state", J.Str "applied-healthy") ]
  | Parked r ->
    J.Obj [ ("state", J.Str "parked"); ("park", park_reason_json r) ]
  | Quarantined { evidence; reverted } ->
    J.Obj
      [
        ("state", J.Str "quarantined");
        ("reverted", J.Bool reverted);
        ( "evidence",
          J.Arr
            (List.map
               (fun (n, m) ->
                 J.Obj [ ("probe", J.Str n); ("failure", J.Str m) ])
               evidence) );
      ]

let event_json (e : Event.t) = Trace.record_json (event_record e)

let report t =
  J.Obj
    [
      ("schema", J.Str "ksplice-manager/1");
      ("seed", num t.seed);
      ("deadline", num deadline);
      ("retry_limit", num retry_limit);
      ("clock", num t.clock);
      ("violations", num t.violation_count);
      ( "updates",
        J.Arr
          (List.map
             (fun e ->
               J.Obj
                 [
                   ("id", J.Str e.e_update.Update.update_id);
                   ("attempts", num e.e_attempts);
                   ("status", status_json e.e_status);
                 ])
             t.entries) );
      ("events", J.Arr (List.map event_json (events t)));
    ]
