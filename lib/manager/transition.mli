(** The per-thread transition manager: patch under load with no global
    pause.

    The paper's §5.2 engagement stops every CPU and demands {e global}
    quiescence — no thread anywhere may sit in a patched function. This
    module implements the livepatch-style alternative as an
    {!Ksplice.Apply.engage_fn}: dispatch stubs route each thread to old
    or new code according to its own [patch_state], and threads migrate
    one by one at {e safe points} while the machine keeps running:

    - {b scan} — a stack-check pass over all threads; anyone already
      clear of the guarded ranges (exited threads, idle sleepers)
      migrates immediately, without ever reaching a safe point;
    - {b syscall} — the [INT 0x80] gate: a thread entering the kernel
      is at a known-clean boundary;
    - {b quantum} — the end of a scheduler quantum in [Machine.run].

    When every thread has migrated, the permanent trampolines land with
    {e zero pause} — the machine never stopped. Stragglers (threads
    sleeping with a guarded return address on their stack) demote the
    engagement to the paper's bounded stop_machine loop, which
    force-migrates whoever is left once the guards quiesce; exhausting
    that fallback returns [Error (Apply.Not_quiescent _)] and the
    transaction rolls back byte-identically.

    The same engagement reverses an update: [Apply.undo ~engage] runs a
    {e reverse transition} (original entry bytes first, unmigrated
    threads routed to the still-live new code). *)

type policy = {
  slice : int;  (** scheduler steps per migration round *)
  budget : int;  (** total scheduler steps before the fallback *)
  fb_max_attempts : int;  (** fallback stop_machine attempts *)
  fb_retry_base : int;  (** fallback backoff base (steps) *)
  fb_retry_cap : int;  (** fallback backoff cap (steps) *)
  fb_retry_budget : int;  (** fallback total backoff budget (steps) *)
}

val default_policy : policy

(** How a thread came to migrate: a stack-{b scan} pass, the
    {b syscall} gate, a scheduler-{b quantum} boundary, or {b forced}
    under the stop_machine fallback. *)
type sp_class = Scan | Syscall | Quantum | Forced

val sp_class_name : sp_class -> string
val all_classes : sp_class list

(** One thread's migration, timestamped on the monotone instruction
    odometer. *)
type migration = {
  mg_tid : int;
  mg_name : string;
  mg_class : sp_class;
  mg_at : int;  (** [Machine.instructions_retired] at migration *)
}

type stats = {
  st_update : string;
  st_direction : [ `Apply | `Undo ];
  st_threads : int;  (** threads alive when the transition began *)
  st_migrations : migration list;  (** in migration order *)
  st_rounds : int;  (** migration rounds run *)
  st_sched_steps : int;  (** instructions the machine ran meanwhile *)
  st_fallback : bool;  (** stop_machine fallback engaged *)
  st_forced : int;  (** threads force-migrated by the fallback *)
  st_pause_ns : int;  (** total simulated pause (0 = pauseless) *)
}

val migrated_by_class : stats -> (sp_class * int) list
val pp_stats : Format.formatter -> stats -> unit

(** [engage ?policy ?on_stats ()] builds the engagement, suitable for
    [Apply.apply ~engage] and [Apply.undo ~engage]. [on_stats] receives
    the migration record on success (including fallback successes). *)
val engage :
  ?policy:policy ->
  ?on_stats:(stats -> unit) ->
  unit ->
  Ksplice.Apply.engage_fn
