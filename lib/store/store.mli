(** Content-addressed artifact store: the one digest-keyed substrate
    under store-backed update serialisation, the distribution
    repository and the fleet mirrors.

    The whole Ksplice pipeline is digest-shaped — deterministic builds
    (§4.3), pre-post differencing over object code (§3), linear update
    chains keyed by source digests (§8) — so artifacts are identified by
    the digest of their bytes and interned exactly once:

    - {b blobs}: immutable byte strings keyed by their own digest.
      [put] interns (a repeat is a {e dedup hit}, counted, with the
      duplicate bytes counted as saved); [get]/[load] retrieve.
    - {b refs}: mutable names pointing at blob digests (a repository
      chain head, a mirror's head) — the only mutable state.

    {b One table.} A handle holds one mutex-guarded blob table and one
    ref table. With a directory ([?dir]) every blob is written through
    to [blobs/], and a blob the table lacks is read from disk with its
    bytes re-digested — a truncated or bit-flipped blob is reported as
    [`Corrupt], never returned. Every ref lives in one file, [refs],
    and that file is the source of truth: each ref read and each commit
    reads it again (a read that finds the bytes it last decoded skips
    the decode), so every handle on a directory, in this process or
    another, sees every other's commits, and a commit keeps the refs
    others made. A handle's blob table is private: a second handle
    reads a blob from disk, as a process does after a reboot.

    {b Crash safety.} All disk I/O goes through an injectable {!Vfs.t},
    so the fault sweeps can kill a simulated process at any I/O
    operation. Every file lands via write-temp, fsync, rename, fsync-dir
    (a failure unlinks the temp); {!commit_refs} lands the whole ref
    table that way, so its rename is the commit point and a crash
    leaves the old table or the new one — refs never point at missing
    blobs. {!fsck} re-checks every invariant read-only; {!gc}
    mark-and-sweeps unreachable blobs from the ref roots, with in-flight
    transactions ({!with_txn}) pinned so a publish racing the sweep is
    never collected.

    {b Determinism.} Contents are a pure function of the
    [put]/[commit_refs] history: no wall clocks, no randomness, no
    process identifiers leak into blobs or refs. Two identical runs
    produce byte-identical store contents — {!fingerprint} digests the
    canonical (sorted) contents so tests can assert it.

    Counters are mirrored as {!Trace} counters
    ([store.<name>.hits/misses/dedup_hits] and
    [store.<name>.gc_collected/gc_reclaimed_bytes]) when tracing is
    enabled. *)

type t

(** Hex digest of a blob's bytes (content address). *)
type digest = string

val digest_of_string : string -> digest

(** [create ?name ?dir ?vfs ?recover ()] makes a store. [name] labels
    the trace counters (default ["store"]). Without [dir] the store lives
    in memory and keeps every blob and ref it is given. [dir] roots the
    on-disk copy: a [blobs/] directory and the ref table file [refs]
    (absent until the first commit). [vfs] (default {!Vfs.real})
    carries all disk I/O — inject a fault plan to simulate crashes.
    Opening a directory creates it if missing, sweeps orphan temp files
    (see {!recovery}) and checks that the ref table decodes.
    With [recover:false] (read-only inspection, e.g. fsck) the open
    creates and sweeps nothing, so [dir] must already hold [blobs/], and
    a ref table that does not decode is left for {!fsck} to report.

    Raises {!Vfs.Io_error} when the directory cannot be opened: it
    exists but is not a directory, a mkdir fails, a read-only open finds
    no store there, a recovering open finds a ref table that does not
    decode, or the directory holds the old layout (a [refs/] directory
    of per-ref files), which is never read as an empty table. *)
val create :
  ?name:string -> ?dir:string -> ?vfs:Vfs.t -> ?recover:bool -> unit -> t

(** {2 Blobs} *)

(** [put t blob] interns [blob] and returns its digest. Re-interning
    counts a dedup hit and the duplicate bytes as saved. With a
    directory the blob is also written durably (once). *)
val put : t -> string -> digest

(** [put_as t d blob] interns [blob] under [d] if its bytes digest to
    [d], as {!put} would, and is [false] otherwise, filing and counting
    nothing. It hashes the bytes once, where checking them with
    {!digest_of_string} and then calling {!put} hashes them twice: the
    put for bytes fetched from a peer under the digest they were wanted
    as. *)
val put_as : t -> digest -> string -> bool

(** [load t d] retrieves the blob named by [d]: from the table, else
    from disk with the bytes re-digested — a mismatch is [`Corrupt] (counted),
    never silently returned. Counts one hit or miss. *)
val load : t -> digest -> (string, [ `Missing | `Corrupt of string ]) result

(** [get t d] is {!load} with [`Corrupt] collapsed into [None]. *)
val get : t -> digest -> string option

val mem : t -> digest -> bool

(** {2 Refs and transactions} *)

(** [find_ref] and {!refs} read the ref table the directory holds now.
    While that table does not decode they serve the last one this
    handle read or wrote ({!commit_refs}, {!fsck} and {!gc} report the
    damage instead). *)
val find_ref : t -> string -> digest option

(** All refs, sorted by name. *)
val refs : t -> (string * digest) list

(** [commit_refs t updates] points every [(name, digest)] in [updates]
    at its blob, atomically with respect to crashes. With a directory
    it applies [updates] to the table the disk holds now, writes the
    result to a temp file and renames it into place: the rename is the
    commit point, so a crash before it leaves the old refs and a crash
    after it the new ones. Call with the target blobs already {!put}.
    On {!Vfs.Io_error} the disk keeps its old refs (the old table is
    written back in case the failure followed the rename), and the
    error is re-raised. A table that does not decode is refused with
    {!Vfs.Io_error} rather than replaced. A handle serialises its own
    commits; two handles that commit at the same moment (two processes,
    say) are not serialised: the later rename wins, and the other
    commit can be lost. *)
val commit_refs : t -> (string * digest) list -> unit

(** [with_txn t f] runs [f] with every blob it [put]s pinned as a GC
    root until the outermost transaction exits — by which point the
    publish has either committed its refs (reachable) or failed
    (collectable). Nestable; exceptions unpin. *)
val with_txn : t -> (unit -> 'a) -> 'a

(** {2 Recovery, fsck, GC} *)

type recovery_report = {
  tmp_removed : int;  (** orphan [.tmp] files swept *)
}

(** What recovery-on-open did, if this store has a directory and was
    opened with [~recover:true]. *)
val recovery : t -> recovery_report option

type fsck_issue =
  | Orphan_tmp of string
  | Corrupt_blob of { digest : digest; reason : string }
  | Dangling_ref of { name : string; digest : digest }
  | Damaged_refs of string  (** the ref table does not decode *)

val pp_fsck_issue : Format.formatter -> fsck_issue -> unit

type fsck_report = {
  f_blobs : int;  (** blobs checked *)
  f_refs : int;  (** refs checked *)
  f_issues : fsck_issue list;
}

(** Read-only integrity check: the ref table decodes, every blob
    re-digests clean, every ref resolves to a present blob, no orphan
    temp files. [Ok] when no issues were found. Never modifies the
    store. *)
val fsck : t -> (fsck_report, fsck_report) result

type gc_report = {
  gc_live : int;  (** blobs reachable from the roots *)
  gc_swept : int;  (** unreachable blobs deleted *)
  gc_bytes : int;  (** bytes reclaimed by this run *)
  gc_pinned : int;  (** in-flight transaction pins treated as roots *)
}

(** [gc ?expand t] mark-and-sweeps unreachable blobs. Roots are every
    ref plus the pins of in-flight {!with_txn}
    transactions; [expand digest bytes] returns the digests a live blob
    references, closing the reachability relation over encodings the
    store cannot parse itself (default: none), or why the blob does not
    decode. Deleting only unreachable blobs is crash-safe as it stands —
    a crash mid-sweep merely leaves some garbage for the next run.
    Returns [Error] without collecting anything if the ref table did not
    decode, or a blob on a live path is missing, corrupt or undecodable
    (the live set cannot be trusted; run {!fsck}). *)
val gc :
  ?expand:(digest -> string -> (digest list, string) result) -> t ->
  (gc_report, string) result

(** {2 Statistics} *)

type stats = {
  hits : int;  (** lookups served (memory or verified disk) *)
  misses : int;  (** lookups that found nothing *)
  puts : int;  (** blob interns requested *)
  dedup_hits : int;  (** interns that found the blob already present *)
  bytes_put : int;  (** bytes of distinct blobs accepted *)
  bytes_deduped : int;  (** duplicate bytes never stored again *)
  corrupt : int;  (** disk blobs rejected by the re-digest check *)
}

val stats : t -> stats

(** Digest of the canonical store contents: the sorted set of blob
    digests (memory and disk) plus the sorted refs. Two runs that
    performed the same puts and ref writes — in any order — fingerprint
    identically. *)
val fingerprint : t -> digest
