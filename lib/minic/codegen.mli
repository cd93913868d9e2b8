(** Code generation: typed MiniC to SELF object files.

    The [function_sections] option is the heart of the reproduction: with
    it on (Ksplice's pre/post builds), every function and every data item
    gets its own section, and all cross-function references become
    relocations — "more general code that does not make assumptions about
    where functions and data structures are located in memory" (§3.2).
    With it off (the running kernel's distro-style build), a unit's
    functions share one [.text] with resolved intra-unit calls, alignment
    no-ops between functions, and — via [align_loops], enabled by default
    exactly when [function_sections] is off — aligned loop heads, giving
    the run/pre object-code divergences run-pre matching must absorb
    (§4.3). *)

type options = {
  function_sections : bool;
  align_loops : bool;
}

(** Defaults matching a distro kernel build: no function sections, aligned
    loops. *)
val run_options : options

(** Defaults matching a Ksplice pre/post build. *)
val pre_options : options

(** [compile_unit ~options tunit] emits the object file for a checked
    unit. *)
val compile_unit : options:options -> Tast.tunit -> Objfile.t
