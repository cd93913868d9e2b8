(** The corpus sweeps: each one pushes a list of rows (corpus CVEs, or
    chain depths) through a feature under deliberately hostile conditions
    and holds every row to an oracle. Seven sweeps share one harness: a
    sweep is an {!S} — its rows, a seeded row runner, a one-line progress
    rendering, a row oracle, a sweep-level oracle and a JSON codec — and
    {!run} is the one driver, {!pp} the one printer, {!to_json} the one
    export.

    Every sweep is deterministic in its seed. The seed of row [i] is
    derived from the sweep seed, [i] and the cell, per sweep (fault:
    [seed + 1009*i + 31*step], manager: [seed + 1013*i + hash scenario],
    crash: [seed + 1009*i], fleet: [seed + 2003*i] plus [127*frame + kind],
    cumulative: [seed + 4001*i + 31*step]; transition and diffmin are
    seedless), so a row's verdict never depends on how many domains ran
    the sweep or in which order rows completed. *)

(** {1 The harness} *)

module type S = sig
  type key
  (** What a row is keyed by: a corpus CVE, or a chain depth. *)

  type row
  (** One row's outcome. *)

  val name : string
  val default_rows : unit -> key list

  val gate_rows : unit -> key list
  (** The small slice [dune build @sweep] holds to the oracle. *)

  val key_of_string : string -> key option
  (** The row resolver behind [ksplice-tool sweep NAME --row ID]. *)

  val key_name : key -> string

  val run_row : seed:int -> index:int -> key -> row
  (** Run row number [index] of a sweep seeded with [seed], on its own
      freshly booted machines. *)

  val progress : row -> string
  (** One line: the row's key and its cells at a glance. *)

  val violations : row -> string list
  (** The row oracle; [[]] = the row passed. *)

  val row_json : row -> Report.Json.t

  val totals : row list -> Report.Json.t
  (** The sweep's counters, encoded. *)

  val check : row list -> string list
  (** The sweep-level oracle: contracts no single row can show. *)
end

type 'row report = {
  sweep : string;
  seed : int;
  rows : 'row list;  (** in input order *)
  lines : string list;  (** {!S.progress} of each row, in input order *)
  rows_json : Report.Json.t list;
  totals : Report.Json.t;
  violations : string list;
      (** every row violation, prefixed by its row's key, then the
          sweep-level ones *)
}

(** [run ?rows ?seed ?domains ?progress sweep] runs [rows] (default
    {!S.default_rows}) with [seed] (default 0). Rows fan out across up to
    [domains] domains (default {!Parallel.default_domains}; [1] forces a
    serial sweep). [progress] receives each row's {!S.progress} line as it
    completes — in completion order; the report keeps input order. *)
val run :
  ?rows:'k list ->
  ?seed:int ->
  ?domains:int ->
  ?progress:(string -> unit) ->
  (module S with type key = 'k and type row = 'r) ->
  'r report

(** No row and no sweep-level violation. *)
val ok : _ report -> bool

(** [{sweep, seed, ok, violations, totals, rows}]. *)
val to_json : _ report -> Report.Json.t

(** Progress lines, totals, violations and the verdict. *)
val pp : Format.formatter -> _ report -> unit

type sweep = Sweep : (module S with type key = 'k and type row = 'r) -> sweep

(** The seven sweeps below, in this order. *)
val all : sweep list

val find : string -> sweep option

(** {1 The fault-injection sweep}

    For every CVE, inject the canonical fault at each apply-pipeline
    step, assert crash-consistent rollback (byte-identical machine), then
    re-apply fault-free and confirm the patched kernel still survives the
    stress workload and blocks its exploit. A failing cell can be
    replayed with [Faultinj.make] and the printed plan. *)

(** Outcome of one (CVE, step) cell. *)
type cell =
  | Rolled_back
      (** the fault fired, apply aborted, and the machine was
          byte-identical to its pre-apply snapshot *)
  | Benign
      (** a non-aborting fault ([Sched_perturb]) fired and apply still
          succeeded and verified *)
  | Not_applicable
      (** the armed fault never fired (e.g. a hook fault on an update
          with no hooks at that step); apply succeeded and was undone *)
  | Violation of string list
      (** rollback or abort contract broken; the diagnostics *)

val cell_char : cell -> char
(** [R]olled-back, [B]enign, [-] not applicable, [!] violation. *)

type row = {
  cve_id : string;
  cells : (Ksplice.Txn.step * cell) list;  (** in pipeline order *)
  recovered : bool;
      (** after the faulted cells: clean apply + verify + stress (+
          exploit blocked, where one exists) all passed *)
  notes : string list;  (** recovery diagnostics when [recovered = false] *)
}

(** Default rows: all 64 CVEs. *)
val fault : (module S with type key = Cve.t and type row = row)

(** {1 The supervised (manager-level) sweep}

    The fault cells prove §5.2 for a single transactional apply; this
    sweep proves the supervision loop around it. Every CVE is pushed
    through {!Manager.t} under three hostile regimes — the row's cells —
    and must reach a terminal state (liveness) with clean rollback audits
    (safety). *)

type scenario =
  | Injected
      (** one canonical fault (step chosen deterministically from the
          seed) armed for the first apply attempt only: abort faults
          must park the update, the transient quiescence veto must heal
          through the retry queue, benign perturbation must not matter *)
  | Adversarial
      (** a thread parked at the entry of a to-be-replaced function
          blocks §5.2 quiescence until the manager's backoff drains
          it: the watchdog and retry queue do the work *)
  | Unhealthy
      (** a canary health probe always fails: the gate must unwind the
          probes, auto-revert, and quarantine with the evidence *)

type mcell = {
  mc_status : Manager.status;  (** terminal state the cell reached *)
  mc_attempts : int;
  mc_clock : int;  (** manager steps driven *)
  mc_events : int;
  mc_violations : int;  (** rollback-audit failures (must be 0) *)
  mc_notes : string list;  (** contract breaches; [[]] = cell passed *)
  mc_report : Report.Json.t;  (** the cell's full manager event log *)
}

type mrow = {
  m_cve : string;
  m_cells : (scenario * mcell) list;
}

(** Default rows: all 64 CVEs, one freshly booted machine per cell. *)
val manager : (module S with type key = Cve.t and type row = mrow)

(** {1 The crash sweep: persistence under process death}

    The filesystem analogue of the fault sweep: each CVE's update is
    published into a fresh on-disk repository with a hard crash
    ({!Vfs.Crash}) injected at every i-th mutating I/O operation. After
    each crash the directory is reopened with a clean handle (the
    reboot); the recovered store must pass fsck, the chain must be
    atomically all-or-nothing (never half-published, never a dangling
    ref), and a garbage collection must reclaim every unreachable blob
    and none of the chain. A fault-free probe run per CVE sizes the
    sweep and proves publish→sync end to end. *)

type crow = {
  cr_cve : string;
  cr_ops : int;  (** mutating I/O ops in a fault-free publish *)
  cr_published : int;  (** crash points after which the chain survived whole *)
  cr_absent : int;  (** crash points after which it vanished atomically *)
  cr_gc_swept : int;  (** blobs reclaimed by the per-cell GCs *)
  cr_gc_bytes : int;  (** bytes reclaimed by the per-cell GCs *)
  cr_notes : string list;  (** violations; [[]] = row passed *)
}

(** Default rows: every 8th corpus CVE — each row costs one
    publish+recover+gc round per I/O op. *)
val crash : (module S with type key = Cve.t and type row = crow)

(** {1 The transition sweep: patch under load with no global pause}

    Twin machines run the same busy multi-threaded stress workload;
    mid-flight, machine A applies the CVE's update through the
    per-thread engagement ({!Manager.Transition.engage}) and machine B
    through the paper's §5.2 stop_machine loop. Contracts per row:

    - both workloads keep every invariant across the live patch;
    - the per-thread apply converges with {e zero} simulated pause, no
      forced migrations, and no fallback;
    - both machines end with byte-identical patch footprints
      ([Apply.footprint]);
    - the reverse transition (undo under load) restores the saved entry
      bytes exactly and the footprints agree again;
    - a forced straggler — a thread parked asleep inside the patched
      function — demotes the engagement to the bounded stop_machine
      fallback, which must converge, force-migrate it, and still land
      the identical footprint.

    The totals carry the throughput dips (pause / (pause + work), one
    instruction = one ns) of both engagements, the migrations by
    safe-point class, and every row's pauses. *)

type trow = {
  t_cve : string;
  t_threads : int;  (** threads alive when the transition began *)
  t_pause_ns : int;  (** per-thread apply pause (0 = pauseless) *)
  t_undo_pause_ns : int;  (** reverse-transition pause *)
  t_base_pause_ns : int;  (** stop_machine baseline pause under load *)
  t_migrated : (string * int) list;  (** safe-point class -> threads *)
  t_rounds : int;  (** migration rounds of the per-thread apply *)
  t_sched_steps : int;  (** instructions the machine ran meanwhile *)
  t_straggler_forced : int;  (** forced migrations in the straggler cell *)
  t_straggler_pause_ns : int;  (** fallback pause in the straggler cell *)
  t_notes : string list;  (** contract breaches; [[]] = row passed *)
}

(** Default rows: every 8th corpus CVE. *)
val transition : (module S with type key = Cve.t and type row = trow)

(** {1 The fleet sweep: distribution under transport faults}

    The wire analogue of the crash sweep: for each CVE a server
    repository publishes a short stacked chain (the CVE plus the next
    corpus CVEs still applicable to the patched tree, at most three
    hops). A fault-free probe sync counts the frames a full mirror
    costs; then {e every} {!Fleet.Transport.fault_kind} is injected at
    {e every} frame index, and a fresh subscriber must still converge —
    retried sync byte-identical to the server's chain refs, mirror
    fsck-clean, zero redundant blob transfers — deterministically in the
    seed. One extra cell per row proves graceful degradation: with the
    server unreachable the subscriber keeps its old head over a
    fsck-clean store. *)

type frow = {
  fl_cve : string;
  fl_depth : int;  (** entries published on the server chain *)
  fl_frames : int;  (** frames crossing the wire in a fault-free sync *)
  fl_cells : int;  (** (fault kind × frame) cells plus the degraded cell *)
  fl_retried : int;  (** cells that needed more than one attempt *)
  fl_bytes_saved : int;  (** bytes resume skipped re-downloading *)
  fl_notes : string list;  (** violations; [[]] = row passed *)
}

(** Default rows: every 8th corpus CVE. *)
val fleet : (module S with type key = Cve.t and type row = frow)

(** {1 The cumulative sweep: atomic replace at depth}

    A depth row [k] publishes a chain of [k] corpus CVEs (each still
    applicable to the successively patched tree) into a repository and
    collapses it with {!Ksplice.Repository.publish_cumulative}. Contracts:

    - the collapse's [supersedes] lists exactly the chain ids, oldest
      first;
    - on a machine carrying the stacked chain,
      {!Ksplice.Apply.apply_cumulative} lands a footprint byte-identical
      to the undo-then-plain-apply twin;
    - undoing the collapse re-stacks the original chain;
    - a fault injected at every {!Ksplice.Txn.step} aborts the whole
      collapse — unwind and install alike — back to the byte-identical
      stacked machine;
    - the repository (per-update chain plus cumulative entry) passes
      fsck.

    A shadow row proves §5.3 end to end for one of {!Cve.shadow_extras}:
    patch (the ctor attaches the side table), exploit blocked, collapse
    and un-collapse keep the shadows live, the final undo runs the dtors
    and the exploit returns. *)

type curow = {
  cu_requested : int;
  cu_depth : int;
      (** chain entries actually published ([<= cu_requested]: the
          shortfall is reported, not hidden) *)
  cu_chain : string list;  (** update ids, oldest first *)
  cu_cells : (Ksplice.Txn.step * cell) list;
  cu_fsck_clean : bool;
  cu_notes : string list;  (** violations; [[]] = row passed *)
}

type cushadow = {
  cs_cve : string;
  cs_shadows : int;  (** shadow bindings live after the collapse *)
  cs_notes : string list;
}

type cumulative_key = Depth of int | Shadow of Cve.t
type cumulative_row = Collapse of curow | Shadow_round_trip of cushadow

(** Default rows: depths 1, 8 and 32, then every shadow extra. A row
    id is a depth or a shadow extra's CVE id. *)
val cumulative :
  (module S with type key = cumulative_key and type row = cumulative_row)

(** {1 The minimal-differencing sweep}

    Each update is created twice — function-granular minimal (the
    default) and whole-unit baseline ([~minimal:false]) — and the minimal
    one is proven complete: it applies, verifies, survives stress, blocks
    the CVE's exploit where one is registered, lands a deterministic
    footprint on twin boots, and every defined symbol of its primary
    carries an inclusion reason. Alongside, the sweep measures what
    minimality buys (update bytes, run-pre candidate trials). Its
    sweep-level oracle wants at least one symbol shipped by dependency
    closure, one function shipped as a data referent, one Table-1
    data-init mainline patch refused as
    {!Ksplice.Create.Data_semantics_changed}, strictly fewer bytes and no
    more run-pre trials than the whole-unit baseline. *)

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

(** Default rows: {!Cve.all} plus {!Cve.shadow_extras} plus
    {!Cve.diff_extras}. *)
val diffmin : (module S with type key = Cve.t and type row = dmrow)
