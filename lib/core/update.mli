(** Ksplice update files.

    An update bundles the {e primary} object (replacement code: the post
    versions of every changed function, any new functions and data the
    patch introduced, copies of referenced read-only data, and the
    [.ksplice.*] hook sections) with one {e helper} object per patched
    compilation unit (the complete pre build of that unit, §5.1). The
    helper is what run-pre matching checks against the running kernel; it
    can be discarded once the update is applied.

    A {e cumulative} update additionally records the update ids it
    supersedes ([supersedes]) — applying it atomically replaces that
    whole applied stack (§5's atomic-replace sketch) — and its
    shadow-variable hooks: constructor functions run once the new code
    is live (attaching per-object side-table state for patches that
    extend a struct layout) and destructor functions run at unpatch.

    Symbol namespace: unit-local (static) symbols are canonicalised to
    [name@unit] throughout the update so that two units' identically-named
    statics never collide — the object-level answer to the ambiguous
    symbol problem of §4.1. *)

type t = {
  update_id : string;
  description : string;
  (* units the patch touched, in build order *)
  patched_units : string list;
  (* functions to be redirected with trampolines: (unit, function) with
     the function name in canonical form *)
  replaced_functions : (string * string) list;
  primary : Objfile.t;
  helpers : Objfile.t list;
  (* defining unit of every symbol the primary defines *)
  primary_sym_units : (string * string) list;
  (* update ids this cumulative update atomically replaces, oldest
     first; [] for an ordinary update *)
  supersedes : string list;
  (* canonical names of shadow-variable constructor functions, run (in
     order) once the replacement code is live *)
  shadow_ctors : string list;
  (* canonical names of shadow-variable destructor functions, run (in
     reverse order) when the update is removed *)
  shadow_dtors : string list;
}

(** Does this update atomically replace a stack ([supersedes <> []])? *)
val is_cumulative : t -> bool

(** [canonical ~binding ~unit name] is the update-namespace symbol name:
    [name@unit] for local symbols, [name] for globals. *)
val canonical :
  binding:Objfile.Symbol.binding -> unit_name:string -> string -> string

(** [split_canonical n] recovers [(original_name, unit option)]. *)
val split_canonical : string -> string * string option

(** {2 Serialisation}

    One layout, magic [KSPL4]: a header carrying every field, with the
    primary and helper objects named by their artifact-store digests,
    then the embedded object list. {!to_bytes} embeds one blob per digest
    the header names (a self-contained file); {!to_bytes_store} interns
    the objects in the store and leaves the list empty, so stacked updates
    sharing a base kernel share one physical copy of each common helper.
    One header decoder serves all four readers: it re-digests embedded
    blobs against the header and rejects trailing bytes. *)

(** Why a blob failed to decode. Decoding is {e total} — arbitrary bytes
    yield [Error], never an exception. *)
type decode_error =
  | Bad_magic of string  (** the file's first bytes are not the magic *)
  | Malformed of { off : int; reason : string }
      (** truncated, a negative length, trailing bytes, or an embedded
          object that does not match the digest the header names *)
  | Store_backed
      (** {!of_bytes} on a file whose objects live in an artifact store *)
  | Object_unavailable of { digest : Store.digest; reason : string }
      (** a named object is missing from the store, corrupt, or does not
          parse *)

val pp_decode_error : Format.formatter -> decode_error -> unit

(** The self-contained encoding. *)
val to_bytes : t -> Bytes.t

(** Decodes a self-contained file; a store-backed one is [Store_backed]. *)
val of_bytes : Bytes.t -> (t, decode_error) result

(** The store-backed encoding: the objects are {!Store.put} into [store]. *)
val to_bytes_store : Store.t -> t -> Bytes.t

(** Decodes either encoding, fetching a store-backed file's objects from
    [store]. *)
val of_bytes_store : Store.t -> Bytes.t -> (t, decode_error) result

(** The store digests a store-backed file references (primary first,
    then helpers), without fetching them: the GC's reachability edge from
    an update blob to the object blobs it shares with other updates. A
    self-contained file references nothing ([Ok []]). *)
val store_digests : Bytes.t -> (Store.digest list, decode_error) result

(** The update ids a serialised update supersedes, from the bytes alone
    (no store): how a subscriber recognises a cumulative entry in what it
    actually received. An undecodable blob supersedes nothing. *)
val supersedes_of_bytes : Bytes.t -> string list
