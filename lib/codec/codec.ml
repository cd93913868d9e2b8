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

type reader = { buf : string; mutable pos : int }

(* private: raised by [fail], caught only by [decode] *)
exception Fail of error

let fail r reason = raise_notrace (Fail { off = r.pos; reason })
let need r n = if n > String.length r.buf - r.pos then fail r "truncated input"

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

let decode ~magic f s =
  let r = { buf = s; pos = 0 } in
  match
    if not (String.starts_with ~prefix:magic s) then fail r "bad magic";
    r.pos <- String.length magic;
    let v = f r in
    if r.pos <> String.length s then fail r "trailing bytes";
    v
  with
  | v -> Ok v
  | exception Fail e -> Error e

(* --- checksummed frames --- *)

(* room for any update blob the corpus produces *)
let max_payload = 16 * 1024 * 1024

let frame ~magic payload =
  let b = Buffer.create (String.length magic + String.length payload + 20) in
  Buffer.add_string b magic;
  put_u32 b (String.length payload);
  Buffer.add_string b payload;
  Buffer.add_string b (Digest.string payload);
  Buffer.contents b

(* do the [n] bytes of [a] at [i] equal the first [n] of [b]? *)
let equal_at a i b n =
  let rec go k = k >= n || (a.[i + k] = b.[k] && go (k + 1)) in
  go 0

let unframe ~magic buf ~pos =
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
    else
      let payload = String.sub buf at len in
      if not (equal_at buf (at + len) (Digest.string payload) 16) then
        fail (at + len) "checksum mismatch"
      else Ok (payload, at + len + 16)
