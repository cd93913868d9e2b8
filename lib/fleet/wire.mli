(** The fleet wire protocol's frame codec.

    A frame is a {!Codec} frame with magic [KFR1] — [magic(4) ·
    payload_len(u32le) · payload · md5(16)] — whose payload is a tag byte
    and the frame's fields: the checksum is over the payload, so a torn
    or bit-flipped frame is rejected before any field is believed.

    A [Blob] is the one exception, because its body is checked by its
    own digest: its frame is a header frame whose payload is tag 6, the
    digest and the body's size (u32), followed by the body, raw — 65 + n
    bytes for a hex digest and an n-byte body. The decoder checks the
    header's checksum and that the size is at most {!Codec.max_payload},
    and it waits for the whole body; it does not hash the body. A body
    changed in transit therefore decodes to the same digest over other
    bytes, and the receiver's digest check ({!Store.put_as} in the
    subscriber) refuses it. Each fetched byte is hashed once, and the
    sender hashes no body to frame it.

    The decoder is {e total}: any byte string yields a frame, [`Incomplete]
    (a prefix of a valid frame — wait for more bytes), or a typed
    [`Fail] — never an exception. That totality is what lets the
    transport's fault plans (torn frames, corrupted payloads) surface as
    clean typed errors the subscriber can retry through.

    The conversation is: [Hello]/[Hello_ack] (version gate), [Head]
    (subscriber announces its chain position), [Manifest] (server
    describes the pending chain as digests), [Want] (subscriber lists
    only the digests it is missing — CAS delta sync), a [Blob] stream,
    and [Done] carrying the server's chain head. [Err] aborts. *)

(** Protocol version spoken by this implementation: 2, the [Blob]
    layout above. A v1 peer framed a [Blob]'s body inside its checksum,
    so the two would misread each other's [Blob]s, and each side refuses
    the other at [Hello]. *)
val version : int

type frame =
  | Hello of { version : int; peer : string }
  | Hello_ack of { version : int; peer : string }
  | Head of { digest : string }
  | Manifest of Ksplice.Repository.manifest_entry list
      (** the pending chain, one hop per entry, as digests plus sizes
          (sizes let a subscriber account bytes saved by delta sync
          without fetching anything) *)
  | Want of string list
  | Blob of { digest : string; bytes : string }
  | Done of { head : string }
  | Err of { code : string; msg : string }

(** Short human-readable form, for logs and sweep notes. *)
val pp_frame : Format.formatter -> frame -> unit

val encode : frame -> string

(** [decode buf ~pos] parses one frame starting at [pos], where it lies
    in [buf] ({!Codec.unframe}): the payload is not copied, and only
    the frame's fields are, a [Blob]'s body once and unhashed. [Ok (f,
    p)] is the frame and the position just past it (past a [Blob]'s
    body). A [Blob] whose header is in but whose body is not is
    [`Incomplete]. Total: never raises. Payload errors are offsets into
    the payload. *)
val decode :
  string -> pos:int ->
  (frame * int, [ `Incomplete | `Fail of Codec.error ]) result
