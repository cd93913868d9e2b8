(** Kernel build system: compile a source tree ([.c] MiniC units and [.s]
    assembly units) into object files.

    Builds are deterministic — the same source and options always produce
    byte-identical objects — which is the property that lets Ksplice's
    pre build reproduce the running kernel's code (§4.3: using the same
    compiler and options "is advisable"). A content-addressed cache makes
    the post build recompile only units the patch touched, like kbuild.

    Units compile one after another, in path order. The cache is
    mutex-guarded and shared across builds in one process (concurrent
    builds included). *)

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

(** [build_tree ~options tree] compiles every [.c] and [.s] file of the
    tree, in path order. A failure is returned as data: the first failing
    unit in path order. *)
val build_tree :
  options:Minic.Driver.options -> Patchfmt.Source_tree.t ->
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

    The cache is a mutex-guarded table of compiled units keyed by the
    source digest, the path and the options fingerprint. The source
    digest is the one the tree took when the file entered it
    ({!Patchfmt.Source_tree.fold}), so a warm build hashes no source. A
    hit returns the unit compiled first, physically shared. The table
    holds at most 1024 units; a full table is emptied before the next
    insert. Hits, misses and evictions are also [kbuild.cache_hits],
    [kbuild.cache_misses] and [kbuild.cache_evictions] {!Trace}
    counters. *)

type cache_stats = {
  hits : int;  (** lookups served from the cache (cumulative) *)
  misses : int;  (** lookups that had to compile (cumulative) *)
  evictions : int;  (** entries dropped by emptying a full table (cumulative) *)
  entries : int;  (** entries resident now *)
  capacity : int;  (** maximum resident entries (1024) *)
}

val cache_stats : unit -> cache_stats

(** [reset_cache ()] drops every cached unit (counters are kept — they
    are cumulative process-level statistics). Used to benchmark cold
    builds and to stop unrelated builds leaking into each other. *)
val reset_cache : unit -> unit
