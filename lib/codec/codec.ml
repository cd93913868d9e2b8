type error = { off : int; reason : string }

let pp_error ppf e = Format.fprintf ppf "%s at byte %d" e.reason e.off

(* --- writers --- *)

let put_u8 b v = Buffer.add_uint8 b (v land 0xff)

(* two 16-bit halves: an [int32] argument would be boxed on every call *)
let put_u32 b v =
  Buffer.add_uint16_le b (v land 0xffff);
  Buffer.add_uint16_le b ((v lsr 16) land 0xffff)

let put_i32 = Buffer.add_int32_le

let put_str b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let put_list f b l =
  put_u32 b (List.length l);
  List.iter (f b) l

(* --- reader --- *)

(* a cursor over [buf] that reads nothing at or past [stop] *)
type reader = { buf : string; mutable pos : int; stop : int }

(* private: raised by [fail], caught only by [run] *)
exception Fail of error

let fail r reason = raise_notrace (Fail { off = r.pos; reason })
let need r n = if n > r.stop - r.pos then fail r "truncated input"

(* consume the next [n] bytes, returning where they start *)
let take r n =
  need r n;
  let p = r.pos in
  r.pos <- p + n;
  p

(* unsigned 32 bits, unboxed *)
let u32_at s p =
  String.get_uint16_le s p lor (String.get_uint16_le s (p + 2) lsl 16)

let get_u8 r = String.get_uint8 r.buf (take r 1)
let get_i32 r = String.get_int32_le r.buf (take r 4)

let get_u32 r =
  let v = u32_at r.buf (take r 4) in
  if v land 0x8000_0000 <> 0 then fail r "negative length";
  v

let get_str r =
  let n = get_u32 r in
  String.sub r.buf (take r n) n

let get_list f r =
  let n = get_u32 r in
  need r n;
  List.init n (fun _ -> f r)

(* The one decode: read [buf] from [pos] to [stop] with [f], rejecting
   bytes it leaves; error offsets count from [origin]. *)
let run f buf ~pos ~stop ~origin =
  let r = { buf; pos; stop } in
  match
    let v = f r in
    if r.pos <> stop then fail r "trailing bytes";
    v
  with
  | v -> Ok v
  | exception Fail e -> Error { e with off = e.off - origin }

let decode ~magic f s =
  if not (String.starts_with ~prefix:magic s) then
    Error { off = 0; reason = "bad magic" }
  else run f s ~pos:(String.length magic) ~stop:(String.length s) ~origin:0

(* --- checksummed frames --- *)

(* room for any update blob the corpus produces *)
let max_payload = 16 * 1024 * 1024

let frame ~magic payload =
  let m = String.length magic and n = String.length payload in
  let b = Bytes.create (m + 4 + n + 16) in
  Bytes.blit_string magic 0 b 0 m;
  Bytes.set_uint16_le b m (n land 0xffff);
  Bytes.set_uint16_le b (m + 2) ((n lsr 16) land 0xffff);
  Bytes.blit_string payload 0 b (m + 4) n;
  Bytes.blit_string (Digest.string payload) 0 b (m + 4 + n) 16;
  Bytes.unsafe_to_string b

(* do the [n] bytes of [a] at [i] equal the first [n] of [b]? *)
let equal_at a i b n =
  let rec go k = k >= n || (a.[i + k] = b.[k] && go (k + 1)) in
  go 0

let unframe ~magic f buf ~pos =
  let have = String.length buf - pos in
  let mlen = String.length magic in
  let fail off reason = Error (`Fail { off; reason }) in
  if pos < 0 || have < 0 then fail pos "position out of range"
  (* a wrong magic fails as soon as the prefix diverges, so garbage is
     not mistaken for a short frame *)
  else if not (equal_at buf pos magic (min have mlen)) then fail pos "bad magic"
  else if have < mlen + 4 then Error `Incomplete
  else
    let at = pos + mlen + 4 in
    let len = u32_at buf (pos + mlen) in
    if len > max_payload then
      fail (pos + mlen) (Printf.sprintf "bad frame length %d" len)
    else if have < mlen + 4 + len + 16 then Error `Incomplete
    else if not (equal_at buf (at + len) (Digest.substring buf at len) 16) then
      fail (at + len) "checksum mismatch"
    else
      (* the payload is read where it lies, and no further *)
      match run f buf ~pos:at ~stop:(at + len) ~origin:at with
      | Ok v -> Ok (v, at + len + 16)
      | Error e -> Error (`Fail e)
