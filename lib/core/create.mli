(** ksplice-create (§3, §5): from kernel source plus a unified-diff patch
    to an update file, via two builds and pre-post differencing.

    The source given here must be the source of the {e running} kernel —
    for a previously-patched kernel, the previously-patched source (§5.4).
    No special preparation of the running kernel is required.

    Differencing itself (symbol correlation, per-function code
    comparison, dependency closure, data classification) lives in
    {!Diffobj}, re-exported through {!Prepost}; this module turns a
    unit's diff into the shipped update: it {e carves} exactly the
    included symbols out of the post object into the primary (rodata
    ships as per-symbol slices, not whole pools), rewrites relocations
    onto canonical pre-side names so run-pre inference resolves them
    against the unpatched kernel, and trims each helper to the pre text
    sections that run-pre matching actually needs. *)

type request = {
  source : Patchfmt.Source_tree.t;  (** source of the running kernel *)
  patch : Patchfmt.Diff.t;
  update_id : string;
  description : string;
}

type error =
  | Patch_error of string  (** the patch does not apply to the source *)
  | Build_error of string  (** pre or post build failed *)
  | No_object_changes  (** the patch changed no object code *)
  | Data_semantics_changed of (string * string) list
      (** (unit, datum) pairs whose initial images changed while the patch
          provides no custom update code — the §2 case requiring a
          programmer (Table 1). Read-only initializer changes do {e not}
          trip this: they ship as fresh rodata slices. *)

val pp_error : Format.formatter -> error -> unit

(** Why each shipped symbol is in the update, tied back to the source
    patch: per patched unit, its slice of the input diff and the
    canonical primary symbols carved from it with their inclusion
    reasons. Rendered by [ksplice-tool create --explain]. *)
type provenance = {
  p_unit : string;
  p_patch : Patchfmt.Diff.stats;  (** the patch restricted to this unit *)
  p_hunks : int;
  p_shipped : (string * Prepost.reason) list;
      (** canonical primary symbol -> inclusion reason *)
}

type created = {
  update : Update.t;
  diffs : Prepost.unit_diff list;  (** per patched unit *)
  provenance : provenance list;  (** per patched unit *)
}

(** All shipped symbols of a creation as
    [(canonical, (unit, reason))] — every defined symbol of
    [update.primary] appears exactly once. *)
val shipped_symbols : created -> (string * (string * Prepost.reason)) list

(** [create ?build_options ?domains ?minimal ?store request] builds the
    update. [build_options] defaults to {!Minic.Driver.pre_build}
    (function sections on — required for the differencing to be
    per-function). [domains] bounds the domain pool used for unit
    compilation and pre/post differencing (default
    {!Parallel.default_domains}; [1] forces a fully serial creation);
    parallel and serial creation produce identical updates.

    [minimal] (default [true]) selects function-granular carving: the
    primary ships only the diff's inclusion set and each helper keeps
    only the pre text sections run-pre matching needs (replaced
    functions, inference providers for the primary's unit-local
    references, ambiguity pinners). [~minimal:false] is the whole-unit
    baseline the bench compares against: all text and read-only data of
    every patched unit ships, and helpers are whole pre objects — only
    changed functions are still {e replaced} (redirecting unchanged ones
    would invite needless §5.2 quiescence aborts).

    Creation is {e incremental} through [store] (default
    {!Store.default}): pre and post unit objects are interned by digest,
    a unit whose pre and post objects are byte-identical skips
    differencing entirely, and a (pre, post) digest pair already
    differenced in this store reuses the cached result (codec
    ["unit-diff/2"]; a blob its typed decoder refuses counts as a plain
    miss). Incremental and from-scratch
    creation produce byte-identical updates.

    [supersedes] (default [[]]) makes the result a {e cumulative} update:
    the listed update ids, oldest first, are atomically replaced when it
    is applied. Shadow-variable hooks ([ksplice_shadow_ctor] /
    [ksplice_shadow_dtor] registrations in the patch) are collected from
    the primary's Note sections into [update.shadow_ctors] /
    [update.shadow_dtors] automatically. *)
val create :
  ?build_options:Minic.Driver.options ->
  ?domains:int ->
  ?minimal:bool ->
  ?store:Store.t ->
  ?supersedes:string list ->
  request ->
  (created, error) result

(** Units whose differencing was skipped (equal pre/post digests or a
    cached diff) since the last {!reset_creation_stats} — mirrored as the
    [store.create.skipped_units] trace counter. *)
val skipped_units : unit -> int

val reset_creation_stats : unit -> unit
