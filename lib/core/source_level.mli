(** A source-level hot-update baseline, modelling the §7.1 systems
    (OPUS, LUCOS, DynAMOS) the paper argues against.

    The baseline determines what to replace by diffing the {e source} of
    the patched units (functions whose ASTs changed), compiles only those
    functions, and resolves symbols by name through the kernel's symbol
    table. §3 and §4 of the paper enumerate exactly where this breaks;
    [evaluate] performs those checks statically and reports every reason
    the source-level approach would miss code, lose state, or guess a
    wrong address — without endangering the machine.

    This gives the reproduction a quantitative version of §6.3's
    comparison: how many of the 64 patches a source-level system handles
    safely, versus Ksplice's 64. *)

type failure =
  | Missed_object_changes of string list
      (** functions whose object code changed although their source did
          not (inline ripple, prototype ripple): the baseline would leave
          stale code running (§3.1, §4.2) *)
  | Inline_sites_missed of (string * string) list
      (** (caller, callee): the patched callee is inlined into a caller
          the baseline does not replace (§4.2) *)
  | Ambiguous_symbol of string list
      (** symbols the replacement references that a symbol-table-only
          resolver cannot disambiguate (§4.1) *)
  | Static_local_lost of string list
      (** patched functions with static locals: recompiling from source
          creates fresh storage and silently loses live state (§6.3) *)
  | Assembly_file of string
      (** the patch touches a pure assembly unit (§6.3, CVE-2007-4573) *)

type verdict = {
  replaced_from_source : string list;  (** what the baseline would patch *)
  failures : failure list;  (** empty = the baseline happens to be safe *)
}

(** [evaluate ~source ~patch ~image] analyses one patch against a running
    kernel built from [source] (with kallsyms [image]). *)
val evaluate :
  source:Patchfmt.Source_tree.t ->
  patch:Patchfmt.Diff.t ->
  image:Klink.Image.t ->
  (verdict, string) result
