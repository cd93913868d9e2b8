(** Hot-update distribution (§8's future work): "one could use Ksplice to
    create hot update packages for common starting kernel configurations.
    People who subscribe their systems to these updates would be able to
    transparently receive kernel hot updates."

    A repository is a directory-backed {!Store.t}: each published entry
    is a content-addressed blob, and the mutable ref
    ["entry:<base_digest>"] maps a source state to its entry. Every read
    re-digests the blob, so a truncated or bit-flipped entry surfaces as
    a clean {!Corrupt_entry} result, never a crash. The update inside an
    entry is serialised store-backed ({!Update.to_bytes_store}), so the
    entries of a chain share one physical copy of each common helper
    object. Each entry carries the update plus the source patch, so a
    subscriber can advance its local previously-patched source (needed
    both to verify the chain and to create further updates, §5.4).
    Subscribing walks the chain from the subscriber's current digest,
    applying every pending update in order — the paper's "without any
    ongoing effort from users" flow. *)

type t

(** The artifact store holding this repository's entries and objects. *)
val store : t -> Store.t

(** A repository view over an existing store handle — e.g. a fleet
    subscriber's local mirror, which may be memory-only. Everything
    except {!open_dir} works on it. *)
val of_store : Store.t -> t

(** The mutable-ref name under which the entry for a source digest is
    published (["entry:<digest>"]) — the names a subscriber's mirror
    must reproduce. *)
val entry_ref : string -> string

(** An update published against a particular source state. *)
type entry = {
  base_digest : string;  (** digest of the source this applies to *)
  next_digest : string;  (** digest after applying the patch *)
  patch_text : string;  (** unified diff *)
  update : Update.t;
}

type error =
  | Not_a_directory of string
  | Already_published of string
      (** an entry for this source digest already exists (linear chains
          only) *)
  | Patch_rejected of string
      (** the patch does not apply to the published source *)
  | Corrupt_entry of { digest : string; reason : string }
      (** the entry for [digest] failed the re-digest check or does not
          parse *)
  | Chain_cycle of string
  | Update_apply_failed of { update_id : string; reason : string }
  | Source_patch_failed of { update_id : string; reason : string }
  | Io_failure of { path : string; reason : string }
      (** a disk operation failed (e.g. ENOSPC, unwritable directory);
          typed, never a raw [Sys_error] *)
  | Gc_unsafe of string
      (** the live set could not be verified, so nothing was collected *)

val pp_error : Format.formatter -> error -> unit

(** [open_dir dir] opens (creating if needed) a repository directory.
    All disk I/O, the check that [dir] is a directory included, goes
    through [vfs] (default {!Vfs.real}; inject a fault plan to simulate
    crashes). Opening sweeps orphan temp files (see {!recovery}) and
    reads the store's ref table; a table that does not decode is
    [Io_failure]. With [recover:false] (read-only inspection) it
    creates and sweeps nothing, a path that holds no store is
    [Io_failure], and a damaged table is left for {!fsck} to report.
    The old store layout (a [refs/] directory) is [Io_failure] either
    way. Every open is a handle that reads the disk, like a process
    after a reboot, and its ref reads see what any other handle on the
    directory has committed since. *)
val open_dir : ?vfs:Vfs.t -> ?recover:bool -> string -> (t, error) result

(** How many orphan temp files the open swept (a recovering open). *)
val recovery : t -> Store.recovery_report option

(** [publish repo ~source ~patch ~update] records [update] as the next
    hop from [source]; returns the entry. *)
val publish :
  t -> source:Patchfmt.Source_tree.t -> patch:Patchfmt.Diff.t ->
  update:Update.t -> (entry, error) result

(** [publish_cumulative repo ~source ~update_id ~description] collapses
    the pending chain starting at [source] into one cumulative entry:
    the chain's patches compose into a single patch from [source] to the
    chain head, a fresh update is built from it ({!Create.create}) whose
    [supersedes] lists every chain update id oldest first (flattened
    through any cumulative chain entries), and the entry is published
    under the ref ["cumulative:<digest>"], one hop from [source] straight
    to the chain head — the per-update chain stays intact for
    mid-chain subscribers. Fails with [Patch_rejected] when there is
    nothing pending to collapse, [Already_published] when a cumulative
    entry for [source] already exists. *)
val publish_cumulative :
  t -> source:Patchfmt.Source_tree.t -> update_id:string ->
  description:string -> (entry, error) result

(** [pending repo ~digest] is the chain of entries starting at [digest],
    oldest first (empty when up to date). Every entry on the chain is
    digest-verified as it is read. *)
val pending : t -> digest:string -> (entry list, error) result

(** The cumulative entry published for source state [digest], if any
    (digest-verified like {!pending} entries). *)
val read_cumulative : t -> string -> (entry option, error) result

(** Outcome of one subscriber synchronisation. *)
type sync_report = {
  applied : string list;  (** update ids, in application order *)
  new_source : Patchfmt.Source_tree.t;  (** advanced local source *)
}

(** [sync repo mgr ~source] fetches and applies every update pending for
    the subscriber whose running kernel was built from [source]
    (possibly already patched), keeping the local source in step. When a
    cumulative entry is published at the subscriber's digest it is
    preferred — one {!Apply.apply_cumulative} hop instead of the
    per-update walk. The whole route is fetched and verified {e before}
    any update is applied, so a corrupt entry leaves the machine
    untouched; application errors stop at the first failure. *)
val sync :
  t -> Apply.t -> source:Patchfmt.Source_tree.t ->
  (sync_report, error) result

(** {2 Integrity} *)

type fsck_report = {
  store_report : Store.fsck_report;
  entries_checked : int;  (** published entries decoded end-to-end *)
  corrupt_entries : (string * string) list;
      (** (base digest, reason) for entries that failed to decode *)
}

(** Read-only integrity check: the store-level invariants (the ref
    table decodes, blobs re-digest clean, refs resolve, no orphan temp
    files) plus a full decode of every published entry — the same
    checks [ksplice-tool fsck] runs. Never modifies the repository. *)
val fsck : t -> (fsck_report, fsck_report) result

(** {2 Distribution support}

    Digest-level views of a chain, for the fleet wire protocol: a server
    describes what a subscriber is missing without decoding updates, and
    a subscriber decides what to fetch by set difference against its own
    store — the CAS dedup that makes delta sync cheap. *)

(** One chain hop as digests: the entry blob plus the object blobs its
    serialised update interns (shared across entries of a chain). *)
type manifest_entry = {
  me_base : string;  (** source digest this entry applies to *)
  me_next : string;  (** source digest after applying it *)
  me_blob : Store.digest;  (** the KSPLREPO2 entry blob *)
  me_size : int;  (** entry blob size in bytes *)
  me_objects : (Store.digest * int) list;  (** interned objects, sized *)
}

(** [manifest repo ~digest] is the pending chain from [digest] as
    digests, oldest first. Every blob on the chain (entries and interned
    objects) is digest-verified as it is read, and every entry must
    decode ({!links}), so a server never advertises bytes it cannot
    serve intact or that its own {!pending} would reject. *)
val manifest : t -> digest:string -> (manifest_entry list, error) result

(** [head repo ~digest] is the source digest at the end of the chain
    starting at [digest] ([digest] itself when the chain is empty). *)
val head : t -> digest:string -> (string, error) result

(** What a KSPLREPO2 entry blob links, read from its bytes alone. *)
type links = {
  l_base : string;  (** source digest the entry applies to *)
  l_next : string;  (** source digest after applying it *)
  l_ref : string;
      (** the ref the entry belongs under: ["cumulative:<base>"] when
          the serialised update inside supersedes something,
          {!entry_ref} otherwise *)
  l_objects : Store.digest list;
      (** the object blobs the serialised update interns *)
}

(** [links ~digest raw] decodes an entry blob's fields and its update's
    header once, never trusting server metadata: a subscriber files a
    received entry and checks its object closure with it, the server
    builds its manifest from it, and the GC closes reachability through
    it. A blob that is not a well-formed entry, or whose update does not
    decode, is [Corrupt_entry] labelled [digest] (the source state the
    entry was read for). *)
val links : digest:string -> string -> (links, error) result

(** Mark-and-sweep garbage collection. Roots are every ref (chain
    entries and any named refs); reachability closes over each entry's
    serialised update into the object blobs it shares with other
    entries. A publish racing the sweep is protected by the store's
    transaction pinning. Refuses to collect ([Gc_unsafe]) if a blob on a
    live path is missing or corrupt, or is an entry or update that does
    not decode. *)
val gc : t -> (Store.gc_report, error) result
