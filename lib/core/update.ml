module Symbol = Objfile.Symbol

type t = {
  update_id : string;
  description : string;
  patched_units : string list;
  replaced_functions : (string * string) list;
  primary : Objfile.t;
  helpers : Objfile.t list;
  primary_sym_units : (string * string) list;
  supersedes : string list;
  shadow_ctors : string list;
  shadow_dtors : string list;
}

let is_cumulative u = u.supersedes <> []

let canonical ~binding ~unit_name name =
  match binding with
  | Symbol.Local -> name ^ "@" ^ unit_name
  | Symbol.Global -> name

let split_canonical n =
  match String.rindex_opt n '@' with
  | Some i ->
    (String.sub n 0 i, Some (String.sub n (i + 1) (String.length n - i - 1)))
  | None -> (n, None)

(* --- serialisation ---

   One layout, one magic. The header carries every field in a fixed
   order, with the primary and helper objects named by their store
   digests; the embedded object list follows. [to_bytes_store] interns
   the objects and leaves that list empty, so updates sharing a base
   kernel share one physical copy of each common helper; [to_bytes]
   embeds one blob per digest the header names (primary first). *)

let magic = "KSPL4"

let put_int b v = Buffer.add_int32_le b (Int32.of_int v)

let put_str b s =
  put_int b (String.length s);
  Buffer.add_string b s

let put_list b f l =
  put_int b (List.length l);
  List.iter (f b) l

let put_pair b (x, y) =
  put_str b x;
  put_str b y

let encode ~intern ~embed u =
  let blob o = Bytes.to_string (Objfile.to_bytes o) in
  let primary = blob u.primary and helpers = List.map blob u.helpers in
  let b = Buffer.create 1024 in
  Buffer.add_string b magic;
  put_str b u.update_id;
  put_str b u.description;
  put_list b put_str u.patched_units;
  put_list b put_pair u.replaced_functions;
  put_str b (intern primary);
  put_list b put_str (List.map intern helpers);
  put_list b put_pair u.primary_sym_units;
  put_list b put_str u.supersedes;
  put_list b put_str u.shadow_ctors;
  put_list b put_str u.shadow_dtors;
  put_list b put_str (if embed then primary :: helpers else []);
  Buffer.to_bytes b

let to_bytes u = encode ~intern:Store.digest_of_string ~embed:true u
let to_bytes_store store u = encode ~intern:(Store.put store) ~embed:false u

(* Decoding is total: a corrupt blob — out of the CAS, off the wire, or
   handed to the CLI — yields a typed [Error], never an escaped
   exception. The reader raises the private [Decode] exception
   internally; [decode_header] is the only boundary that catches it. *)
type decode_error =
  | Bad_magic of string
  | Malformed of { off : int; reason : string }
  | Store_backed
  | Object_unavailable of { digest : Store.digest; reason : string }

exception Decode of decode_error

let pp_decode_error ppf = function
  | Bad_magic m -> Format.fprintf ppf "bad magic %S (expected %S)" m magic
  | Malformed { off; reason } -> Format.fprintf ppf "%s at byte %d" reason off
  | Store_backed ->
    Format.pp_print_string ppf
      "store-backed update: its objects are not embedded (decode it \
       against the artifact store it was written through)"
  | Object_unavailable { digest; reason } ->
    Format.fprintf ppf "object %s: %s" digest reason

type reader = { buf : Bytes.t; mutable pos : int }

let bad r reason = raise (Decode (Malformed { off = r.pos; reason }))

let need r n =
  if n < 0 || r.pos + n > Bytes.length r.buf then bad r "truncated input"

let get_int r =
  need r 4;
  let v = Int32.to_int (Bytes.get_int32_le r.buf r.pos) in
  r.pos <- r.pos + 4;
  if v < 0 then bad r "negative length";
  v

let get_str r =
  let n = get_int r in
  need r n;
  let s = Bytes.sub_string r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let get_list r f = List.init (get_int r) (fun _ -> f r)

let get_pair r =
  let a = get_str r in
  let b = get_str r in
  (a, b)

(* A decoded header: the objects still named by digest. [objects] are
   the embedded blobs, already checked against [digests]; [] for a
   store-backed file. *)
type header = {
  digests : Store.digest list;  (* primary first, then helpers *)
  objects : string list;
  supersedes : string list;
  with_objects : Objfile.t list -> t;  (* the objects in [digests] order *)
}

let decode_header buf =
  let r = { buf; pos = 0 } in
  match
    let mlen = min (String.length magic) (Bytes.length buf) in
    let m = Bytes.sub_string buf 0 mlen in
    if m <> magic then raise (Decode (Bad_magic m));
    r.pos <- mlen;
    let update_id = get_str r in
    let description = get_str r in
    let patched_units = get_list r get_str in
    let replaced_functions = get_list r get_pair in
    let primary = get_str r in
    let helpers = get_list r get_str in
    let primary_sym_units = get_list r get_pair in
    let supersedes = get_list r get_str in
    let shadow_ctors = get_list r get_str in
    let shadow_dtors = get_list r get_str in
    let objects_at = r.pos in
    let objects = get_list r get_str in
    if r.pos <> Bytes.length buf then bad r "trailing bytes";
    let digests = primary :: helpers in
    if objects <> [] then begin
      let fail reason =
        raise (Decode (Malformed { off = objects_at; reason }))
      in
      if List.compare_lengths objects digests <> 0 then
        fail
          (Printf.sprintf "%d embedded objects for %d digests"
             (List.length objects) (List.length digests));
      List.iteri
        (fun i (d, blob) ->
          if not (String.equal (Store.digest_of_string blob) d) then
            fail
              (Printf.sprintf "embedded object %d does not match its digest" i))
        (List.combine digests objects)
    end;
    let with_objects = function
      | primary :: helpers ->
        { update_id; description; patched_units; replaced_functions; primary;
          helpers; primary_sym_units; supersedes; shadow_ctors; shadow_dtors }
      | [] -> invalid_arg "Update.with_objects"
    in
    { digests; objects; supersedes; with_objects }
  with
  | h -> Ok h
  | exception Decode e -> Error e

let ( let* ) = Result.bind

(* parse every object, in [digests] order, from its fetched bytes *)
let resolve h blobs =
  let rec go acc = function
    | [] -> Ok (h.with_objects (List.rev acc))
    | (digest, raw) :: rest -> (
      let* raw = raw in
      match Objfile.of_bytes (Bytes.of_string raw) with
      | Ok o -> go (o :: acc) rest
      | Error e ->
        let reason = Format.asprintf "%a" Objfile.pp_decode_error e in
        Error (Object_unavailable { digest; reason }))
  in
  go [] blobs

let embedded h = List.map2 (fun d blob -> (d, Ok blob)) h.digests h.objects

let of_bytes buf =
  let* h = decode_header buf in
  if h.objects = [] then Error Store_backed else resolve h (embedded h)

let fetch store digest =
  match Store.load store digest with
  | Ok raw -> Ok raw
  | Error `Missing ->
    Error (Object_unavailable { digest; reason = "not in the artifact store" })
  | Error (`Corrupt m) ->
    Error (Object_unavailable { digest; reason = "corrupt: " ^ m })

let of_bytes_store store buf =
  let* h = decode_header buf in
  if h.objects <> [] then resolve h (embedded h)
  else resolve h (List.map (fun d -> (d, fetch store d)) h.digests)

(* the GC's reachability edge: a self-contained file needs nothing from
   the store *)
let store_digests buf =
  let* h = decode_header buf in
  Ok (if h.objects = [] then h.digests else [])

(* how a subscriber recognises a cumulative entry in the bytes it
   received, rather than trusting the server's framing *)
let supersedes_of_bytes buf =
  match decode_header buf with Ok h -> h.supersedes | Error _ -> []
