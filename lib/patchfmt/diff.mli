(** Unified diffs: generation, parsing, application, and statistics.

    Ksplice takes "a patch in the standard patch format, the unified diff
    patch format" (§5) as input; Figure 3 counts the lines of code in each
    patch. This module provides both halves. *)

type line =
  | Context of string
  | Add of string
  | Del of string

type hunk = {
  old_start : int;  (** 1-based first line in the old file *)
  old_len : int;
  new_start : int;
  new_len : int;
  lines : line list;
}

type file_diff = {
  path : string;
  old_exists : bool;  (** false when the patch creates the file *)
  new_exists : bool;  (** false when the patch deletes the file *)
  hunks : hunk list;
}

type t = file_diff list

(** [diff_trees old new_] produces a patch transforming [old] into
    [new_], including file creations and deletions, with 3 lines of
    context per hunk. *)
val diff_trees : Source_tree.t -> Source_tree.t -> t

(** [diff_file path old_ new_] is {!diff_trees}' entry for a file at
    [path] on both sides, with contents [old_] and [new_]; [None] when
    they are equal. *)
val diff_file : string -> string -> string -> file_diff option

val to_string : t -> string

(** [parse s] parses a unified diff. *)
val parse : string -> (t, string) result

(** [apply patch tree] applies the patch. Hunks are located by exact
    context match at the stated position, then by searching nearby
    offsets (like patch(1) fuzz offsets). Errors name the file and hunk
    that failed. *)
val apply : t -> Source_tree.t -> (Source_tree.t, string) result

(** Patch statistics, as used by Figure 3. [changed] counts added plus
    removed lines. *)
type stats = {
  files : int;
  added : int;
  removed : int;
  changed : int;
}

val stats : t -> stats

(** [file_stats d path] restricts {!stats} to one file of the patch
    (all-zero when the patch does not touch [path]) — the source-level
    provenance surfaced per patched unit in [Create.created]. *)
val file_stats : t -> string -> stats

(** [file_hunks d path] counts the hunks touching [path]. *)
val file_hunks : t -> string -> int

(** Paths of files the patch touches. *)
val changed_files : t -> string list
