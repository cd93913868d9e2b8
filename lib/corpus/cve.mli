(** The synthetic CVE corpus: 64 security patches against the base
    kernel, mirroring the structure of the paper's evaluation set
    (§6.1) — all with greater consequences than denial of service
    (privilege escalation ~2/3, information disclosure ~1/3), mostly
    small patches, eight requiring custom update-time code (Table 1:
    seven "changes data init", one "adds field to struct"). *)

type consequence = Priv_escalation | Info_disclosure

type custom_reason =
  | Changes_data_init
  | Adds_struct_field
  | Updates_derived_state
      (** state computed from read-only data the patch replaces — the
          update refreshes the cache via an apply hook *)

val reason_to_string : custom_reason -> string

type t = {
  id : string;
  file : string;  (** primary unit the patch touches *)
  desc : string;
  consequence : consequence;
  (* source fix: (file, old snippet, new snippet), replace-once each *)
  fix : (string * string * string) list;
  (* Table-1 entries carry custom update-time code appended to [file] *)
  custom : (custom_reason * string) option;
}

(** All 64 CVEs, in corpus order. *)
val all : t list

(** Shadow-variable extras, kept out of {!all} so the evaluation corpus
    stays the paper's 64: struct-layout extensions whose new field lives
    in the machine's shadow table, built and torn down by
    [ksplice_shadow_ctor]/[ksplice_shadow_dtor] hooks. Exercised by the
    cumulative-update sweep. *)
val shadow_extras : t list

(** Differencing extras, likewise kept out of {!all}: corpus rows built
    to demonstrate the minimal-differencing engine's data-referent and
    closure passes. {!diff_banner} replaces a string literal — the
    reading function's code is byte-identical yet must ship (its
    relocation moved to fresh read-only data), and the derived checksum
    cache is refreshed by an apply hook. *)
val diff_extras : t list

val diff_banner : t

(** The banner string before/after {!diff_banner} — the sweep computes
    the expected checksum of [banner_new] to verify the refresh ran
    through the trampolined function. *)
val banner_old : string

val banner_new : string

val find : string -> t option

(** [applies_to cve tree] is true when every snippet the fix rewrites is
    present in [tree] — i.e. the vulnerability exists in that kernel
    version (§6.2: "no single Linux kernel version needs all 64
    patches"). *)
val applies_to : t -> Patchfmt.Source_tree.t -> bool

(** [fix_edits_opt cve find] lists the files the mainline fix (no
    custom code) edits, each with its fixed contents, reading the files
    it edits through [find]; [None] when the fix does not apply to those
    files. *)
val fix_edits_opt :
  t -> (string -> string option) -> (string * string) list option

(** [mainline_patch cve base] is the upstream patch — what Figure 3
    counts.
    @raise Failure when a snippet is missing — corpus self-check. *)
val mainline_patch : t -> Patchfmt.Source_tree.t -> Patchfmt.Diff.t

(** [hot_patch cve base] is the patch fed to ksplice-create: the
    mainline fix, with the custom update code appended for the eight
    Table-1 entries.
    @raise Failure when a snippet is missing. *)
val hot_patch : t -> Patchfmt.Source_tree.t -> Patchfmt.Diff.t

(** [custom_code_lines cve] counts the logical (semicolon-terminated)
    lines of custom code, as Table 1 does. 0 when no custom code. *)
val custom_code_lines : t -> int
