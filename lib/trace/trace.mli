(** Structured tracing and metrics for the whole pipeline, with no
    dependency beyond {!Report} (the JSON codec the exports ride on).

    The paper's authors debugged §4 run-pre mismatches by inspecting
    byte-level traces; this module makes that diagnostic (and the §5.2
    "who pinned the function" story) a first-class artifact. Three
    primitives:

    - {b spans} — named, nested intervals ([with_span] /
      [begin_span]/[end_span]). Every span and event carries the id of
      its enclosing span, so a trace reconstructs the call tree:
      [apply] > [apply.step.quiesce] > the candidate events under it.
    - {b instants} — point events with typed fields (a rejected run-pre
      candidate with the byte offset of first divergence, a manager
      state transition).
    - {b metrics} — monotone counters and fixed-bucket histograms
      (match attempts, rejections by reason, quiescence retries,
      trampolines written).

    {b Determinism.} Records are stamped with an injected clock
    ({!set_clock}) — in this codebase always a machine's
    [instructions_retired] odometer, never wall time — and ids are a
    dense emission sequence. A single-domain run therefore exports a
    byte-identical trace on replay, exactly like the manager's event
    log (which is itself mirrored here).

    {b Degradation.} The sink is a bounded ring buffer: when full, the
    oldest record is dropped and {!dropped} incremented. Tracing never
    grows without bound and never aborts the pipeline.

    {b Concurrency.} The buffer and metric registries are
    mutex-protected; the {e current-span} context is per-domain, so work
    run on another domain starts its spans at the root.

    When disabled (the default), every emitter is a single atomic load
    and branch — instrumented hot paths stay hot. *)

(** A typed field value. *)
type value =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type kind =
  | Span_begin
  | Span_end
  | Instant

type record = {
  id : int;  (** dense, 0-based emission order *)
  parent : int;  (** id of the enclosing span's begin record; -1 = root *)
  clock : int;  (** injected clock ({!set_clock}) at emission *)
  kind : kind;
  name : string;
  fields : (string * value) list;
}

(** {2 Lifecycle} *)

val set_enabled : bool -> unit
val is_enabled : unit -> bool

(** Install the clock stamped on every record. Use a deterministic
    monotone source ([Machine.instructions_retired]); the default is a
    constant [0]. *)
val set_clock : (unit -> int) -> unit

(** Ring-buffer capacity (records). Clamped to at least 16; resets the
    buffer. Default 16384. *)
val set_capacity : int -> unit

val capacity : unit -> int

(** Clear everything: records, dropped count, ids, counters,
    histograms, the calling domain's span context, and the clock
    (back to the constant [0]). [enabled] is left alone. *)
val reset : unit -> unit

(** {2 Spans and events} *)

(** An open span handle (returned by {!begin_span}). *)
type span

(** [with_span name f] runs [f] inside a span; the end record carries
    an ["raised"] field if [f] raised. A no-op wrapper when tracing is
    disabled. *)
val with_span : ?fields:(string * value) list -> string -> (unit -> 'a) -> 'a

(** Manual span management for stage-shaped (non-lexical) intervals,
    e.g. the apply pipeline's transaction steps. [end_span] tolerates
    out-of-order ends (it removes the span from wherever it sits in
    the context stack). *)
val begin_span : ?fields:(string * value) list -> string -> span

val end_span : ?fields:(string * value) list -> span -> unit

(** Emit a point event under the current span. *)
val instant : ?fields:(string * value) list -> string -> unit

(** {2 Metrics} *)

(** [count name by] adds [by] to the counter [name], creating it at 0. *)
val count : string -> int -> unit

(** [observe name v] records [v] in histogram [name] (fixed
    power-of-4 bucket bounds, plus count/sum/min/max). *)
val observe : string -> float -> unit

val counter_value : string -> int

(** All counters, sorted by name. *)
val counters : unit -> (string * int) list

type histogram = {
  h_count : int;
  h_sum : float;
  h_min : float;  (** meaningless when [h_count = 0] *)
  h_max : float;
  h_buckets : (float * int) list;
      (** (inclusive upper bound, count); last bound is [infinity] *)
}

(** All histograms, sorted by name. *)
val histograms : unit -> (string * histogram) list

(** {2 Inspection and export} *)

(** Buffered records, oldest first. *)
val records : unit -> record list

(** Records dropped by the ring since the last {!reset}. *)
val dropped : unit -> int

val kind_name : kind -> string

(** The one record serializer: every trace export — and the manager's
    event log — goes through this, so the shapes cannot drift. *)
val record_json : record -> Report.Json.t

(** The buffered trace as a [ksplice-trace/1] JSON document
    ([schema], [capacity], [dropped], [records], and [counters] as in
    {!metrics}), so an export alone recomputes per-op counts. *)
val export : unit -> Report.Json.t

(** Counters and histograms as a [ksplice-metrics/1] JSON document. *)
val metrics : unit -> Report.Json.t
