let version = 1
let magic = "KFR1"

(* big enough for any update blob the corpus produces, small enough that
   a bit-flipped length field cannot make a receiver buffer gigabytes *)
let max_payload = 16 * 1024 * 1024

type manifest_item = {
  mi_base : string;
  mi_next : string;
  mi_blob : string;
  mi_size : int;
  mi_objects : (string * int) list;
}

type frame =
  | Hello of { version : int; peer : string }
  | Hello_ack of { version : int; peer : string }
  | Head of { digest : string }
  | Manifest of manifest_item list
  | Want of string list
  | Blob of { digest : string; bytes : string }
  | Done of { head : string }
  | Err of { code : string; msg : string }

type decode_error =
  | Bad_magic
  | Bad_length of int
  | Checksum_mismatch
  | Bad_tag of int
  | Malformed of string

let pp_decode_error ppf = function
  | Bad_magic -> Format.fprintf ppf "bad frame magic"
  | Bad_length n -> Format.fprintf ppf "bad frame length %d" n
  | Checksum_mismatch -> Format.fprintf ppf "frame checksum mismatch"
  | Bad_tag n -> Format.fprintf ppf "unknown frame tag %d" n
  | Malformed m -> Format.fprintf ppf "malformed frame payload: %s" m

let pp_frame ppf = function
  | Hello { version; peer } -> Format.fprintf ppf "hello v%d from %s" version peer
  | Hello_ack { version; peer } ->
    Format.fprintf ppf "hello-ack v%d from %s" version peer
  | Head { digest } -> Format.fprintf ppf "head %s" digest
  | Manifest items -> Format.fprintf ppf "manifest (%d entries)" (List.length items)
  | Want ds -> Format.fprintf ppf "want (%d digests)" (List.length ds)
  | Blob { digest; bytes } ->
    Format.fprintf ppf "blob %s (%d bytes)" digest (String.length bytes)
  | Done { head } -> Format.fprintf ppf "done, head %s" head
  | Err { code; msg } -> Format.fprintf ppf "error [%s] %s" code msg

(* --- payload encoding: tag byte, then u32le ints and length-prefixed
   strings --- *)

let tag_of = function
  | Hello _ -> 1
  | Hello_ack _ -> 2
  | Head _ -> 3
  | Manifest _ -> 4
  | Want _ -> 5
  | Blob _ -> 6
  | Done _ -> 7
  | Err _ -> 8

let put_u32 b n = Buffer.add_int32_le b (Int32.of_int n)

let put_str b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let encode_payload f =
  let b = Buffer.create 256 in
  Buffer.add_char b (Char.chr (tag_of f));
  (match f with
  | Hello { version; peer } | Hello_ack { version; peer } ->
    put_u32 b version;
    put_str b peer
  | Head { digest } -> put_str b digest
  | Manifest items ->
    put_u32 b (List.length items);
    List.iter
      (fun i ->
        put_str b i.mi_base;
        put_str b i.mi_next;
        put_str b i.mi_blob;
        put_u32 b i.mi_size;
        put_u32 b (List.length i.mi_objects);
        List.iter
          (fun (d, sz) ->
            put_str b d;
            put_u32 b sz)
          i.mi_objects)
      items
  | Want ds ->
    put_u32 b (List.length ds);
    List.iter (put_str b) ds
  | Blob { digest; bytes } ->
    put_str b digest;
    put_str b bytes
  | Done { head } -> put_str b head
  | Err { code; msg } ->
    put_str b code;
    put_str b msg);
  Buffer.contents b

let encode f =
  let payload = encode_payload f in
  let b = Buffer.create (String.length payload + 24) in
  Buffer.add_string b magic;
  put_u32 b (String.length payload);
  Buffer.add_string b payload;
  Buffer.add_string b (Digest.string payload);
  Buffer.contents b

(* --- total decoding --- *)

exception Fail of decode_error

let decode_payload payload =
  let pos = ref 1 in
  let len = String.length payload in
  let u32 () =
    if !pos + 4 > len then raise (Fail (Malformed "truncated integer"));
    let n = Int32.to_int (String.get_int32_le payload !pos) in
    pos := !pos + 4;
    if n < 0 || n > max_payload then
      raise (Fail (Malformed (Printf.sprintf "field length %d out of range" n)));
    n
  in
  let str () =
    let n = u32 () in
    if !pos + n > len then raise (Fail (Malformed "truncated string"));
    let s = String.sub payload !pos n in
    pos := !pos + n;
    s
  in
  let list f =
    let n = u32 () in
    List.init n (fun _ -> f ())
  in
  if len = 0 then raise (Fail (Malformed "empty payload"));
  let f =
    match Char.code payload.[0] with
    | 1 ->
      let version = u32 () in
      let peer = str () in
      Hello { version; peer }
    | 2 ->
      let version = u32 () in
      let peer = str () in
      Hello_ack { version; peer }
    | 3 -> Head { digest = str () }
    | 4 ->
      Manifest
        (list (fun () ->
             let mi_base = str () in
             let mi_next = str () in
             let mi_blob = str () in
             let mi_size = u32 () in
             let mi_objects =
               list (fun () ->
                   let d = str () in
                   let sz = u32 () in
                   (d, sz))
             in
             { mi_base; mi_next; mi_blob; mi_size; mi_objects }))
    | 5 -> Want (list str)
    | 6 ->
      let digest = str () in
      let bytes = str () in
      Blob { digest; bytes }
    | 7 -> Done { head = str () }
    | 8 ->
      let code = str () in
      let msg = str () in
      Err { code; msg }
    | t -> raise (Fail (Bad_tag t))
  in
  if !pos <> len then raise (Fail (Malformed "trailing bytes in payload"));
  f

let decode buf ~pos =
  let have = String.length buf - pos in
  if pos < 0 || have < 0 then Error (`Fail (Malformed "position out of range"))
  else begin
    (* reject a wrong magic as soon as the prefix diverges, so garbage
       is not mistaken for a short frame *)
    let mcheck = min have 4 in
    if String.sub buf pos mcheck <> String.sub magic 0 mcheck then
      Error (`Fail Bad_magic)
    else if have < 8 then Error `Incomplete
    else
      let plen = Int32.to_int (String.get_int32_le buf (pos + 4)) in
      if plen < 0 || plen > max_payload then Error (`Fail (Bad_length plen))
      else if have < 8 + plen + 16 then Error `Incomplete
      else
        let payload = String.sub buf (pos + 8) plen in
        let sum = String.sub buf (pos + 8 + plen) 16 in
        if not (String.equal (Digest.string payload) sum) then
          Error (`Fail Checksum_mismatch)
        else
          match decode_payload payload with
          | f -> Ok (f, pos + 8 + plen + 16)
          | exception Fail e -> Error (`Fail e)
  end
