(** Source trees: the input to kernel builds and to patch application.

    A source tree is an immutable map from relative file paths to file
    contents. The base kernel, the previously-patched source, and the
    post-patch source are all values of this type. *)

type t

val empty : t
val of_list : (string * string) list -> t

(** [add t path contents] adds or replaces a file, taking its digest. *)
val add : t -> string -> string -> t

val remove : t -> string -> t
val find : t -> string -> string option
val mem : t -> string -> bool

(** [files t] lists paths in lexicographic order. *)
val files : t -> string list

val bindings : t -> (string * string) list

(** [fold f t init] applies [f path contents digest] to every file in
    path order; [digest] is the file's stored [Digest.string contents]. *)
val fold : (string -> string -> Digest.t -> 'a -> 'a) -> t -> 'a -> 'a

val equal : t -> t -> bool

(** [lines t path] splits a file into lines (no trailing newlines). *)
val lines : t -> string -> string list option

(** [digest t] is a stable content hash of the whole tree: the hex MD5
    of every path and its file's MD5, in path order. Repository entries
    are keyed by it ([entry:<digest>], [ksplice-tool sync --base]).

    File digests are taken once, when a file enters the tree ({!add},
    {!of_list}), so [digest] hashes no file contents. Storing them did
    not change the value: a tree has the digest it had when every call
    re-hashed its files. *)
val digest : t -> string
