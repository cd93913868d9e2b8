(** The uptrack-style subscriber: mirrors a server's update chain into a
    local {!Store.t} over the wire protocol, surviving every transport
    fault the simulation can inject.

    Robustness invariants:
    - {b re-digest on receive}: every blob is digested before it is
      believed, by the store's checked put ({!Store.put_as}), which
      files the bytes under the wanted digest only if they hash to it.
      That is the only check on a blob's body ({!Wire}: the frame
      checksum covers its header), so each fetched byte is hashed once.
      A corrupted frame or lying server yields a typed error and a
      retry, never a poisoned store; a body that is unsolicited or
      already verified in this attempt is dropped unread.
    - {b all-or-nothing per entry}: a chain entry becomes visible only
      via {!Store.with_txn}/{!Store.commit_refs}, and only once the
      entry blob {e and} its re-derived object closure are all present —
      a killed sync never exposes a partial chain. The leading entry's
      links are decoded from its received bytes once, when its blob is
      present, and dropped when it commits, so blobs may arrive in any
      order. An entry blob that does not decode is refused
      ([Bad_entry]), never filed.
    - {b resume, never re-download}: wants are computed by set
      difference against the local store, so blobs verified in an
      earlier attempt (even an aborted one) are never transferred again.
    - {b bounded-exponential retry}: after failed attempt [n] the
      subscriber waits [min(1600, 100·2{^n-1})] ticks plus a jitter
      below 64 seeded by (id, attempt) ({!Ksplice.Backoff.retry_delay},
      the Manager's schedule), and {b graceful degradation}: when the
      server is unreachable the subscriber keeps serving its old chain
      head.

    The local mirror uses the same layout as the server
    ({!Ksplice.Repository.entry_ref} refs over a store), so
    {!Ksplice.Repository.of_store} gives pending/sync/fsck/gc over it
    directly. The subscriber's own position lives under the
    ["fleet:head"] ref and advances atomically with each entry. *)

type error =
  | Transport of Transport.recv_error
  | Protocol of string  (** unexpected frame, bad manifest linkage, … *)
  | Server of { code : string; msg : string }  (** the server said no *)
  | Digest_mismatch of { digest : string }
      (** received bytes do not digest to what was announced *)
  | Bad_entry of Ksplice.Repository.error
      (** a received entry blob does not decode: refused, old head
          kept *)

val pp_error : Format.formatter -> error -> unit

(** [head store ~base] is the locally durable chain position: the
    ["fleet:head"] ref if a sync ever committed, else [base]. *)
val head : Store.t -> base:string -> string

(** Outcome of {!sync} — also the degraded outcome, when every attempt
    failed and the subscriber keeps serving its old head. *)
type report = {
  r_head : string;  (** position after the sync (old head if degraded) *)
  r_synced : bool;  (** reached the server's chain head *)
  r_attempts : int;
  r_delays : int list;  (** backoff ticks chosen between attempts *)
  r_committed : int;  (** entries committed across all attempts *)
  r_blobs_fetched : int;
  r_bytes_fetched : int;
  r_bytes_saved : int;  (** bytes of needed blobs already present *)
  r_redundant : int;  (** verified receives of already-present blobs —
                          the zero-redundant-transfer invariant *)
  r_dups : int;  (** duplicate/unsolicited frames tolerated *)
  r_log : string list;  (** one line per failed attempt *)
}

(** [sync ~store ~base ~connect ()] brings the local mirror up to the
    server's chain head in at most [retries] attempts (default 5).
    [connect attempt] opens a fresh transport for each attempt ([None] =
    connection refused; counted and retried). [sleep] is called with
    each backoff delay, in abstract ticks (default: ignore — the
    simulation has no clock). [id] names the subscriber to the server
    and seeds its retry jitter. Total: degradation is a report, not an
    error. *)
val sync :
  ?retries:int -> ?sleep:(int -> unit) -> ?id:string -> store:Store.t ->
  base:string -> connect:(int -> Transport.t option) -> unit -> report
