let version = 2
let magic = "KFR1"

module Repo = Ksplice.Repository

type frame =
  | Hello of { version : int; peer : string }
  | Hello_ack of { version : int; peer : string }
  | Head of { digest : string }
  | Manifest of Repo.manifest_entry list
  | Want of string list
  | Blob of { digest : string; bytes : string }
  | Done of { head : string }
  | Err of { code : string; msg : string }

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

(* --- payload: a tag byte, then the frame's fields on {!Codec}; a Blob's
   payload is its header, and its body follows the frame raw --- *)

let tag_of = function
  | Hello _ -> 1
  | Hello_ack _ -> 2
  | Head _ -> 3
  | Manifest _ -> 4
  | Want _ -> 5
  | Blob _ -> 6
  | Done _ -> 7
  | Err _ -> 8

let put_item b (e : Repo.manifest_entry) =
  let open Codec in
  put_str b e.me_base;
  put_str b e.me_next;
  put_str b e.me_blob;
  put_u32 b e.me_size;
  put_list
    (fun b (d, sz) ->
      put_str b d;
      put_u32 b sz)
    b e.me_objects

let encode f =
  let open Codec in
  let b = Buffer.create 256 in
  put_u8 b (tag_of f);
  (match f with
  | Hello { version; peer } | Hello_ack { version; peer } ->
    put_u32 b version;
    put_str b peer
  | Head { digest } -> put_str b digest
  | Manifest items -> put_list put_item b items
  | Want ds -> put_list put_str b ds
  | Blob { digest; bytes } ->
    put_str b digest;
    put_u32 b (String.length bytes)
  | Done { head } -> put_str b head
  | Err { code; msg } ->
    put_str b code;
    put_str b msg);
  let header = frame ~magic (Buffer.contents b) in
  match f with Blob { bytes; _ } -> header ^ bytes | _ -> header

let get_item r =
  let open Codec in
  let me_base = get_str r in
  let me_next = get_str r in
  let me_blob = get_str r in
  let me_size = get_u32 r in
  let me_objects =
    get_list
      (fun r ->
        let d = get_str r in
        let sz = get_u32 r in
        (d, sz))
      r
  in
  { Repo.me_base; me_next; me_blob; me_size; me_objects }

(* what a payload decodes to: a whole frame, or a Blob's header *)
type payload = Frame of frame | Blob_header of { digest : string; size : int }

let get_payload r =
  let open Codec in
  match get_u8 r with
  | 1 ->
    let version = get_u32 r in
    let peer = get_str r in
    Frame (Hello { version; peer })
  | 2 ->
    let version = get_u32 r in
    let peer = get_str r in
    Frame (Hello_ack { version; peer })
  | 3 -> Frame (Head { digest = get_str r })
  | 4 -> Frame (Manifest (get_list get_item r))
  | 5 -> Frame (Want (get_list get_str r))
  | 6 ->
    let digest = get_str r in
    let size = get_u32 r in
    (* a lying size must not make a receiver wait for, and buffer, more
       than one frame may hold *)
    if size > Codec.max_payload then
      fail r (Printf.sprintf "bad body length %d" size);
    Blob_header { digest; size }
  | 7 -> Frame (Done { head = get_str r })
  | 8 ->
    let code = get_str r in
    let msg = get_str r in
    Frame (Err { code; msg })
  | t -> fail r (Printf.sprintf "unknown frame tag %d" t)

(* A Blob's body is taken as it is: the receiver checks it against the
   header's digest when it files it, so hashing it here too would hash
   every fetched byte twice. *)
let decode buf ~pos =
  match Codec.unframe ~magic get_payload buf ~pos with
  | Ok (Frame f, next) -> Ok (f, next)
  | Ok (Blob_header { digest; size }, body) ->
    if String.length buf - body < size then Error `Incomplete
    else Ok (Blob { digest; bytes = String.sub buf body size }, body + size)
  | Error e -> Error e
