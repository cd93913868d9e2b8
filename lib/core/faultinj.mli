(** Deterministic, seedable fault injection for the apply pipeline.

    A {!plan} names one pipeline step, and the fault injected there is
    that step's canonical kind ({!kind_for_step}); a {!session} arms the
    corresponding machine-level injection hook
    ([Kernel.Machine.set_alloc_injector] & co.) exactly while the apply
    pipeline is inside that step, and disarms it on leaving. Pass the
    session to [Apply.apply ~inject] and check {!fired} afterwards.

    Every fault is deterministic in [(plan, machine state)] — no clocks,
    no randomness beyond the seed — so a failing sweep cell replays
    exactly. *)

type kind =
  | Oom  (** module allocation fails *)
  | Unresolved  (** a symbol resolution query is dropped *)
  | Corrupt_reloc  (** one relocated write has a seed-chosen bit flipped *)
  | Hook_fault  (** the next update-hook call faults without executing *)
  | Forced_not_quiescent  (** every quiescence attempt is vetoed *)
  | Sched_perturb
      (** the scheduler runs a seed-chosen burst of extra instructions;
          benign — apply must still succeed (via retries if needed) *)

(** The canonical fault for each pipeline step — the sweep matrix rows.
    [Hook_fault] appears at three steps (pre/apply/post hooks). *)
val kind_for_step : Txn.step -> kind

(** Whether an injected fault of this kind must abort the apply
    ([Sched_perturb] is the one benign kind). *)
val expect_abort : kind -> bool

(** A fault at [step] of kind [kind_for_step step]; [seed] picks the
    flipped bit of a [Corrupt_reloc] and the length of a
    [Sched_perturb] burst. *)
type plan = {
  step : Txn.step;
  seed : int;
}

val pp_plan : Format.formatter -> plan -> unit

type session

val make : Kernel.Machine.t -> plan -> session
val plan : session -> plan

(** Called by the apply pipeline at each step boundary: arms the
    machine hooks on entering the planned step, disarms them on
    leaving it. *)
val on_step : session -> Txn.step -> unit

(** Consulted inside the quiescence check; [true] vetoes the attempt
    (and counts as the fault firing). *)
val veto_quiescence : session -> bool

(** Wraps the link-step resolver: when armed with {!Unresolved}, the
    first query returns [None]. *)
val sabotage_resolve :
  session -> (string -> int option) -> string -> int option

(** The fault actually triggered (an armed hook with no matching event —
    e.g. a hook fault on an update with no hooks — never fires). *)
val fired : session -> bool

(** Disarm all machine hooks this session installed. Idempotent; also
    performed implicitly when the pipeline leaves the planned step. *)
val disarm : session -> unit
