(** ksplice-apply / ksplice-undo (§5): loading an update into a running
    kernel, the quiescence safety check, trampoline insertion, custom-code
    hooks, and reversal.

    [apply] is a transaction over the journaled steps of {!Txn.step}:

    + {b allocate} — reserve module memory;
    + {b link} — run-pre match every helper against kernel memory
      (safety + symbol resolution, §4.2), resolve the primary's symbols
      (falling back to unique kallsyms globals), compute relocations;
    + {b relocate} — write the module bytes and read-verify them,
      publish module symbols to kallsyms;
    + {b hook-pre} — run [ksplice_pre_apply] hooks;
    + {b capture}/{b quiesce} — under [stop_machine], check that no
      thread's instruction pointer or stack return addresses fall within
      any to-be-replaced function (§5.2), retrying under bounded
      exponential backoff;
    + {b trampoline} — insert a 5-byte jump at each obsolete function's
      entry; run [ksplice_apply] hooks while the machine is stopped;
    + {b commit} — run [ksplice_post_apply] hooks, retain the journal,
      record the update.

    Every machine mutation is journaled in a {!Txn.t}; on {e any}
    failure the journal replays in reverse and the volatile snapshot is
    restored, leaving the kernel byte-identical to its pre-apply state
    (checkable with [Machine.diff_snapshot]).

    Undo is symmetric and equally transactional: guarded by the
    quiescence check on the replacement code, it replays the retained
    apply journal (restoring trampoline sites {e and} module bytes),
    runs the three reverse hooks, and unpublishes symbols and privilege
    ranges. A failed undo leaves the update applied and the kernel
    unchanged. *)

type replacement = {
  r_unit : string;
  r_fn : string;  (** canonical function name *)
  r_old_addr : int;  (** entry of the obsolete function (run kernel) *)
  r_new_addr : int;  (** entry of the replacement code (primary module) *)
  r_old_size : int;  (** pre text size: the quiescence guard range *)
  r_new_size : int;
}

type applied = {
  update : Update.t;
  replacements : replacement list;
  saved : (int * Bytes.t) list;  (** trampoline sites and original bytes *)
  module_ranges : (int * int) list;  (** placed primary sections *)
  module_image : (int * Bytes.t) list;  (** relocated bytes as written *)
  added_symbols : Klink.Image.syminfo list;
  priv_ranges : (int * int) list;
      (** privileged-text ranges this apply registered *)
  journal : Txn.journal;
      (** machinery writes retained for [ksplice-undo] *)
  pause_ns : int;  (** simulated stop_machine pause *)
  displaced : applied list;
      (** the stack entries a cumulative apply atomically replaced, most
          recent first; [[]] for an ordinary update. Undoing a cumulative
          update replays its journal — reviving the displaced trampolines
          and modules byte-for-byte — and restores this stack. *)
  displaced_shadows : ((int * int) * int) list;
      (** the shadow-variable bindings as the collapse found them ([[]]
          for an ordinary update). The unwind detaches these through the
          displaced updates' destructors, so undoing the cumulative
          update re-attaches them; the shadow memory still holds the
          collapse-time values. *)
}

(** Quiescence diagnostics: which functions stayed busy, how hard we
    tried, and who was in the way. *)
type not_quiescent = {
  nq_functions : string list;  (** functions still in use *)
  nq_attempts : int;  (** stop_machine attempts made *)
  nq_steps_run : int;  (** total backoff scheduler steps consumed *)
  nq_blockers : (string * string list) list;
      (** blocking thread ("thread <tid> (<name>)") and its backtrace *)
}

type error =
  | Code_mismatch of Runpre.mismatch
      (** run and pre code differ: the §4.2 safety abort *)
  | Ambiguous_symbol of string * string * int  (** unit, symbol, matches *)
  | Unresolved_symbol of string
  | Not_quiescent of not_quiescent
  | Deadline_exceeded of { de_budget : int; de_diag : not_quiescent }
      (** the watchdog step budget ([?deadline]) ran out before the
          update quiesced; carries the configured budget and the same
          blocker diagnostics as {!Not_quiescent} *)
  | Function_too_small of string
  | Hook_fault of string * Kernel.Machine.fault
  | Out_of_memory of string  (** module area exhausted (or injected) *)
  | Already_applied of string
  | Not_applied of string
  | Not_topmost of string  (** a later update still redirects its code *)
  | Integrity of string  (** a verification found damage *)

val pp_error : Format.formatter -> error -> unit

(** {2 Engagements: how trampolines land}

    The capture/quiesce/trampoline phase of the pipeline is pluggable.
    The default engagement is the paper's §5.2 [stop_machine] loop; a
    per-thread engagement ([Manager.Transition.engage]) instead installs
    dispatch stubs, migrates threads at safe points with the machine
    running, and demotes [stop_machine] to a bounded straggler fallback.

    An engagement receives the record below and must call [e_prepare]
    before activating any transition and [e_install] exactly once on
    success; it returns the total simulated pause in nanoseconds its
    strategy imposed on the machine (0 for a pauseless transition), or a
    pipeline error; the transaction then rolls back as for any other step
    failure. *)

type engagement = {
  e_machine : Kernel.Machine.t;
  e_update : string;
  e_direction : [ `Apply | `Undo ];
  e_functions : string list;  (** names, for quiescence diagnostics *)
  e_dispatch : (int * int) list;
      (** (patched entry, replacement entry) dispatch stubs *)
  e_route_migrated : bool;
      (** apply: migrated threads are routed to the replacement; undo:
          unmigrated threads are (the entry holds the other side) *)
  e_guard_ranges : (int * int) list;
      (** a thread must be clear of these to migrate (and for the
          stop_machine fallback to fire) *)
  e_enter : Txn.step -> unit;  (** advance the transaction step marker *)
  e_sched : (unit -> unit) -> unit;
      (** run scheduler work with its writes journaled as [Txn.Sched] *)
  e_prepare : unit -> unit;
      (** make the fall-through side executable (undo restores the saved
          entry bytes); a no-op for apply *)
  e_install : unit -> unit;
      (** land the end state: apply writes the permanent jumps and runs
          the apply hooks; undo replays the journal and runs the reverse
          hooks *)
}

type engage_fn = engagement -> (int, error) result

(** {2 Quiescence primitives}

    Exposed for engagements and diagnostics: the conservative §5.2
    check over a set of guard ranges. *)

(** Does [th] execute inside [ranges], or hold a stack word pointing
    into them? Exited and faulted threads never block. *)
val thread_blocks :
  Kernel.Machine.t -> (int * int) list -> Kernel.Machine.thread -> bool

(** No live thread blocks any of [ranges]. *)
val quiescent : Kernel.Machine.t -> (int * int) list -> bool

(** The threads still holding [ranges], with backtraces. *)
val blocking_threads :
  Kernel.Machine.t -> (int * int) list -> (string * string list) list

(** The update manager: tracks applied updates on one machine (the role of
    the Ksplice core kernel module). *)
type t

val init : Kernel.Machine.t -> t
val machine : t -> Kernel.Machine.t

(** Applied updates, most recent first. *)
val applied : t -> applied list

(** [apply t update] runs the transactional pipeline above.

    Quiescence retries use bounded exponential backoff: before attempt
    [n+1] the scheduler advances [min retry_cap (retry_base * 2^n)]
    instructions (defaults 250 and 4000), within a total budget of
    [retry_budget] steps (default 20_000) and at most [max_attempts]
    attempts (default 10). On final failure the [Not_quiescent] error
    carries the attempt count, steps consumed, and the blocking threads
    with backtraces.

    [deadline] is the watchdog: a hard cap on the total scheduler steps
    the quiescence/backoff path may consume for this apply. It is
    checked before [max_attempts]/[retry_budget]; exhausting it aborts
    the transaction with {!Deadline_exceeded} and the usual
    byte-identical rollback. Unset means no deadline (the
    [retry_budget] bound still applies).

    [tolerance] selects run-pre matcher capabilities (ablation
    experiments only). [inject] threads a {!Faultinj.session} through
    the pipeline — each step boundary notifies the session so it can arm
    and disarm its machine-level fault hooks. [engage] substitutes a
    custom {!engage_fn} for the default stop_machine loop; applying (or
    undoing) while another update's transition is in flight fails with
    [Integrity]. *)
val apply :
  ?tolerance:Runpre.tolerance ->
  ?max_attempts:int ->
  ?retry_base:int ->
  ?retry_cap:int ->
  ?retry_budget:int ->
  ?deadline:int ->
  ?inject:Faultinj.session ->
  ?engage:engage_fn ->
  t -> Update.t ->
  (applied, error) result

(** [apply_cumulative t update] is {e atomic replace} (§5): [update]
    must be cumulative, and the stacked updates it supersedes must form
    the contiguous top of the applied stack, in chain order (a machine
    that stacked the whole chain collapses it; one partway up collapses
    what it has; a fresh machine with nothing applied takes the
    cumulative update directly; anything deeper than the superseded
    segment is part of the base the update was built against and stays
    untouched). In one transaction, the superseded segment unwinds
    (newest first — reverse hooks and shadow destructors run, each apply
    journal replays) and [update] then installs in its place. A fault at
    any step rolls the single journal back: the stacked configuration
    survives byte-identically, with [Integrity] errors for a
    supersedes/stack mismatch. The committed machine state is exactly
    what [undo]×k followed by [apply update] would have produced, with
    no intermediate state ever observable. Shadow constructors of
    [update] run as the replacement code goes live; on a later [undo] of
    the cumulative update, its destructors run and the displaced segment
    is restored without re-applying anything. *)
val apply_cumulative :
  ?tolerance:Runpre.tolerance ->
  ?max_attempts:int ->
  ?retry_base:int ->
  ?retry_cap:int ->
  ?retry_budget:int ->
  ?deadline:int ->
  ?inject:Faultinj.session ->
  ?engage:engage_fn ->
  t -> Update.t ->
  (applied, error) result

(** [undo t id] reverses the most recent update, which must be [id],
    transactionally (same backoff parameters as {!apply}). On success
    the kernel image is byte-identical to its pre-apply contents at the
    journaled addresses; on failure it is wholly unchanged and the
    update remains applied. With [engage], the reversal runs as a
    {e reverse transition}: the saved entry bytes come back first, then
    threads migrate to the old code at safe points while stragglers on
    the replacement are routed through dispatch stubs. *)
val undo :
  ?max_attempts:int ->
  ?retry_base:int ->
  ?retry_cap:int ->
  ?retry_budget:int ->
  ?deadline:int ->
  ?engage:engage_fn ->
  t -> string ->
  (unit, error) result

(** [verify t] audits every applied update: each replaced function's entry
    must still hold the jump to its (topmost) replacement, and the
    replacement module's bytes must be exactly as written. Run-pre
    matching checks the kernel {e before} splicing; [verify] detects
    damage {e after} — a stray memory write over a trampoline or module,
    for instance. *)
val verify : t -> (unit, error) result

(** [footprint t] is a canonical string describing what the applied
    stack planted in the machine: per update (oldest first), the live
    bytes at every patched entry, the replacement {e text} read back
    from memory (mutable data sections are excluded), and the symbols
    published to kallsyms. Two machines that applied the same updates —
    by any engagement, under any workload — must produce equal
    footprints; the transition benchmarks assert exactly that against
    the stop_machine baseline. *)
val footprint : t -> string
