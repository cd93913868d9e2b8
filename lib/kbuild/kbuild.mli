(** Kernel build system: compile a source tree ([.c] MiniC units and [.s]
    assembly units) into object files.

    Builds are deterministic — the same source and options always produce
    byte-identical objects — which is the property that lets Ksplice's
    pre build reproduce the running kernel's code (§4.3: using the same
    compiler and options "is advisable"). A content-addressed cache makes
    the post build recompile only units the patch touched, like kbuild.

    Units compile concurrently on a domain pool ({!Parallel}); per-unit
    compilation is independent, so a parallel build produces exactly the
    objects (and inline decisions) of a sequential one, in path order.
    The cache is mutex-guarded, shared across builds in one process, and
    bounded by an LRU policy (see {!set_cache_capacity}). *)

type unit_build = {
  source_name : string;  (** e.g. ["kernel/sched.c"] *)
  obj : Objfile.t;
  inline_decisions : Minic.Inline.decision list;
}

type build = {
  units : unit_build list;
  options : Minic.Driver.options;
}

(** A failed unit, as data. Compile failures carry the driver's message
    (which leads with the unit name and position); assemble failures
    carry the failing line. *)
type error =
  | Unit_compile_failed of { unit_name : string; reason : string }
  | Unit_assemble_failed of { unit_name : string; line : int; reason : string }

val pp_error : Format.formatter -> error -> unit

(** [build_tree ?domains ~options tree] compiles every [.c] and [.s] file
    of the tree, in path order, using up to [domains] domains (default
    {!Parallel.default_domains}; [1] forces a fully sequential build).
    A failure is returned as data — deterministically the first failing
    unit in path order, regardless of scheduling. *)
val build_tree :
  ?domains:int -> options:Minic.Driver.options -> Patchfmt.Source_tree.t ->
  (build, error) result

(** [objects b] lists the object files in build order. *)
val objects : build -> Objfile.t list

(** [find_unit b name] returns the unit built from source file [name]. *)
val find_unit : build -> string -> unit_build option

(** [inlined_callees b] maps each function to the functions whose bodies
    were inlined into it, per unit: [(unit, caller, callee)] triples.
    Feeds the §6.3 inlining statistics and the pre-post safety story. *)
val inlined_callees : build -> (string * string * string) list

(** {2 Compile cache}

    The cache is a handle on a content-addressed {!Store.t} named
    ["kbuild"]: compiled units are interned as digest-keyed blobs through
    a versioned codec, the cache key (source digest + path + options
    fingerprint) is a store ref, and the store supplies the mutex-guarded
    LRU bound and the statistics below (also mirrored as
    [store.kbuild.*] {!Trace} counters). *)

(** The artifact store backing the compile cache. *)
val store : unit -> Store.t

type cache_stats = {
  hits : int;  (** lookups served from the cache (cumulative) *)
  misses : int;  (** lookups that had to compile (cumulative) *)
  evictions : int;  (** entries dropped by the LRU bound (cumulative) *)
  entries : int;  (** entries resident now *)
  capacity : int;  (** maximum resident entries *)
}

val cache_stats : unit -> cache_stats

(** [set_cache_capacity n] bounds the cache to [max 1 n] entries,
    evicting least-recently-used entries immediately if over. The default
    capacity is 1024. *)
val set_cache_capacity : int -> unit

(** [reset_cache ()] drops every cached unit (counters are kept — they
    are cumulative process-level statistics). Used to benchmark cold
    builds and to stop unrelated builds leaking into each other. *)
val reset_cache : unit -> unit
