(** Pre-post differencing (§3): compare the object code of the kernel
    built before and after the patch, per compilation unit, to find what
    actually changed — including functions changed only indirectly (a
    callee was re-inlined, a prototype ripple changed the caller's code).

    This is the stable façade over the {!Diffobj} engine, which does the
    work kpatch's [create-diff-object] does: symbol correlation with
    rebuild-noise canonicalisation, function-granular change detection,
    dependency closure with per-symbol inclusion reasons, and per-symbol
    data classification. "Extraneous differences between the pre and the
    post object code are harmless" (§3.2) — but {e spurious} ones
    (temp renumbering, padding drift) are filtered so they produce zero
    diffs, and genuine ones ship minimally. *)

type reason = Diffobj.reason =
  | Changed
  | New
  | Closure_of of string
  | Data_referent of string

type unit_diff = Diffobj.unit_diff = {
  unit_name : string;
  changed_functions : string list;
      (** functions to replace (genuinely changed code, or unchanged
          code referencing changed read-only data) *)
  new_functions : string list;  (** present only post *)
  removed_functions : string list;  (** present only pre *)
  changed_data : string list;
      (** existing data/bss whose initial image changed: the §2
          "semantic change" signal *)
  changed_rodata : string list;
      (** read-only slices with changed/new content: shippable *)
  new_data : string list;  (** data/bss present only post *)
  renames : (string * string) list;
      (** non-identity post → pre temp-symbol correlations *)
  inclusion : (string * reason) list;
      (** every symbol the minimal primary ships, with why *)
}

val reason_to_string : reason -> string
val pp_unit_diff : Format.formatter -> unit_diff -> unit

(** [fname_of_section s] extracts the function name from a [.text.<f>]
    section. *)
val fname_of_section : Objfile.Section.t -> string option

(** [dataname_of_section s] extracts the datum name from a [.data.<n>] or
    [.bss.<n>] section. *)
val dataname_of_section : Objfile.Section.t -> string option

(** [diff_unit ~pre ~post] compares two builds of one unit (both built
    with function sections). *)
val diff_unit : pre:Objfile.t -> post:Objfile.t -> unit_diff

(** [is_empty d] holds when the patch had no object-code effect on the
    unit. *)
val is_empty : unit_diff -> bool

(** The all-empty diff for [unit_name]. *)
val empty : string -> unit_diff

(** {2 The unit-diff codec}

    Magic [UDF3] on {!Codec}. Used by {!Create}'s store-backed
    incremental differencing. [decode] is total: any input — including
    truncations and bitflips of encoded diffs — yields a typed error,
    never an exception. *)

val encode : unit_diff -> string
val decode : string -> (unit_diff, Codec.error) result
