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

let hook_fns (primary : Objfile.t) kind =
  let prefix = Minic.Ast.hook_section kind in
  List.concat_map
    (fun (s : Objfile.Section.t) ->
      if s.kind = Objfile.Section.Note && String.starts_with ~prefix s.name
      then List.map (fun (r : Objfile.Reloc.t) -> r.sym) s.relocs
      else [])
    primary.sections

(* --- serialisation ---

   One layout, one magic, on {!Codec}. The header carries every field in
   a fixed order, with the primary and helper objects named by their
   store digests; the embedded object list follows. [to_bytes_store]
   interns the objects and leaves that list empty, so updates sharing a
   base kernel share one physical copy of each common helper; [to_bytes]
   embeds one blob per digest the header names (primary first). *)

let magic = "KSPL4"

let put_pair b (x, y) =
  Codec.put_str b x;
  Codec.put_str b y

let encode ~intern ~embed u =
  let open Codec in
  let blob o = Bytes.to_string (Objfile.to_bytes o) in
  let primary = blob u.primary and helpers = List.map blob u.helpers in
  let strs = put_list put_str in
  let b = Buffer.create 1024 in
  Buffer.add_string b magic;
  put_str b u.update_id;
  put_str b u.description;
  strs b u.patched_units;
  put_list put_pair b u.replaced_functions;
  put_str b (intern primary);
  strs b (List.map intern helpers);
  put_list put_pair b u.primary_sym_units;
  strs b u.supersedes;
  strs b u.shadow_ctors;
  strs b u.shadow_dtors;
  strs b (if embed then primary :: helpers else []);
  Buffer.to_bytes b

let to_bytes u = encode ~intern:Store.digest_of_string ~embed:true u
let to_bytes_store store u = encode ~intern:(Store.put store) ~embed:false u

type decode_error =
  | Bad_magic of string
  | Malformed of Codec.error
  | Store_backed
  | Object_unavailable of { digest : Store.digest; reason : string }

let pp_decode_error ppf = function
  | Bad_magic m -> Format.fprintf ppf "bad magic %S (expected %S)" m magic
  | Malformed e -> Codec.pp_error ppf e
  | Store_backed ->
    Format.pp_print_string ppf
      "store-backed update: its objects are not embedded (decode it \
       against the artifact store it was written through)"
  | Object_unavailable { digest; reason } ->
    Format.fprintf ppf "object %s: %s" digest reason

let get_pair r =
  let a = Codec.get_str r in
  let b = Codec.get_str r in
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

let read_header r =
  let open Codec in
  let strs = get_list get_str in
  let update_id = get_str r in
  let description = get_str r in
  let patched_units = strs r in
  let replaced_functions = get_list get_pair r in
  let primary = get_str r in
  let helpers = strs r in
  let primary_sym_units = get_list get_pair r in
  let supersedes = strs r in
  let shadow_ctors = strs r in
  let shadow_dtors = strs r in
  let objects = strs r in
  let digests = primary :: helpers in
  (* embedded blobs must be the objects the header names *)
  if objects <> [] then begin
    if List.compare_lengths objects digests <> 0 then
      fail r
        (Printf.sprintf "%d embedded objects for %d digests"
           (List.length objects) (List.length digests));
    List.iteri
      (fun i (d, blob) ->
        if not (String.equal (Store.digest_of_string blob) d) then
          fail r
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

(* the decoder only reads the bytes and keeps no reference to them *)
let decode_header buf =
  let s = Bytes.unsafe_to_string buf in
  let mlen = min (String.length magic) (String.length s) in
  if not (String.starts_with ~prefix:magic s) then
    Error (Bad_magic (String.sub s 0 mlen))
  else
    Result.map_error (fun e -> Malformed e) (Codec.decode ~magic read_header s)

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
        let reason = Format.asprintf "%a" Codec.pp_error e in
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

(* one header read: the GC's reachability edge (a self-contained file
   needs nothing from the store), and how a subscriber recognises a
   cumulative entry in the bytes it received rather than trusting the
   server's framing *)
let references buf =
  let* h = decode_header buf in
  Ok ((if h.objects = [] then h.digests else []), h.supersedes)
