let version = 1
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

(* --- payload: a tag byte, then the frame's fields on {!Codec} --- *)

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
    put_str b bytes
  | Done { head } -> put_str b head
  | Err { code; msg } ->
    put_str b code;
    put_str b msg);
  frame ~magic (Buffer.contents b)

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

let get_frame r =
  let open Codec in
  match get_u8 r with
  | 1 ->
    let version = get_u32 r in
    let peer = get_str r in
    Hello { version; peer }
  | 2 ->
    let version = get_u32 r in
    let peer = get_str r in
    Hello_ack { version; peer }
  | 3 -> Head { digest = get_str r }
  | 4 -> Manifest (get_list get_item r)
  | 5 -> Want (get_list get_str r)
  | 6 ->
    let digest = get_str r in
    let bytes = get_str r in
    Blob { digest; bytes }
  | 7 -> Done { head = get_str r }
  | 8 ->
    let code = get_str r in
    let msg = get_str r in
    Err { code; msg }
  | t -> fail r (Printf.sprintf "unknown frame tag %d" t)

let decode buf ~pos = Codec.unframe ~magic get_frame buf ~pos
