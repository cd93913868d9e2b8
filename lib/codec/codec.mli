(** The one binary codec behind all five binary formats: objects
    ([SELF1]), updates ([KSPL4]), repository entries ([KSPLREPO2]),
    the store's ref table ([REFS1]) and wire frames ([KFR1]; a fleet
    [Blob] frame is followed by its raw body, which the blob's digest
    checks instead of the frame checksum: see [Fleet.Wire]).

    Integers are little-endian, a string is a u32 length then its bytes,
    a list a u32 count then its elements. Decoding is {e total} — any
    input yields a value or an {!error}, never an exception — and no
    length or count is believed beyond the bytes left, so a corrupt
    field cannot make the reader allocate more than its input. *)

(** Where a blob failed to decode, and what the reader found there. *)
type error = { off : int; reason : string }

(** ["<reason> at byte <off>"] *)
val pp_error : Format.formatter -> error -> unit

(** {2 Writers} *)

val put_u8 : Buffer.t -> int -> unit

(** A length, count or size: a non-negative int below [2{^31}]. *)
val put_u32 : Buffer.t -> int -> unit

val put_i32 : Buffer.t -> int32 -> unit
val put_str : Buffer.t -> string -> unit
val put_list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit

(** {2 Reader} *)

(** A cursor over a string that reads nothing past its end bound: the
    end of a blob for {!decode}, the end of the payload for
    {!unframe}. *)
type reader

val get_u8 : reader -> int

(** A set top bit fails as ["negative length"]. *)
val get_u32 : reader -> int

val get_i32 : reader -> int32
val get_str : reader -> string

(** A count above the bytes left fails before any element is read
    (every element encoding is at least one byte). *)
val get_list : (reader -> 'a) -> reader -> 'a list

(** [fail r reason] abandons the decode in progress at [r]'s position.
    Only valid inside the function given to {!decode} or {!unframe}. *)
val fail : reader -> string -> 'a

(** [decode ~magic f s] checks that [s] starts with [magic], reads the
    rest with [f] and rejects trailing bytes. *)
val decode : magic:string -> (reader -> 'a) -> string -> ('a, error) result

(** {2 Checksummed frames}

    [magic · u32 length · payload · MD5(payload)]: self-delimiting, so
    frames stream or append back to back, and the checksum is checked
    before any payload field is believed. *)

(** The largest payload {!unframe} accepts, 16 MiB: room for any update
    blob the corpus produces. A length above it fails at once. *)
val max_payload : int

(** The frame around a payload, built in one allocation. *)
val frame : magic:string -> string -> string

(** [unframe ~magic f buf ~pos] checks the frame at [pos] and decodes
    its payload with [f] where it lies in [buf]: no copy of the payload
    is made, and [f] reads nothing past the payload's end, so a short
    payload fails as truncated rather than reading the checksum or the
    next frame. [f] must consume the payload whole. [Ok (v, next)]: the
    value and the position just past the frame. [`Incomplete]: the
    bytes are a strict prefix of a frame (wait for more, or a torn
    tail); a wrong magic fails as soon as the prefix diverges, and a
    length above {!max_payload} fails at once, so a flipped length cannot
    make a receiver buffer gigabytes. A payload that does not decode is a
    [`Fail] whose offset counts from the payload's first byte. *)
val unframe :
  magic:string -> (reader -> 'a) -> string -> pos:int ->
  ('a * int, [ `Incomplete | `Fail of error ]) result
