module Tree = Patchfmt.Source_tree
module Diff = Patchfmt.Diff

(* a repository is its store handle: open_dir roots one in a directory,
   of_store views an existing one (e.g. a fleet subscriber's mirror,
   which may be memory-only) *)
type t = Store.t

let store t = t
let of_store store = store

type entry = {
  base_digest : string;
  next_digest : string;
  patch_text : string;
  update : Update.t;
}

type error =
  | Not_a_directory of string
  | Already_published of string
  | Patch_rejected of string
  | Corrupt_entry of { digest : string; reason : string }
  | Chain_cycle of string
  | Update_apply_failed of { update_id : string; reason : string }
  | Source_patch_failed of { update_id : string; reason : string }
  | Io_failure of { path : string; reason : string }
  | Gc_unsafe of string

let pp_error ppf = function
  | Not_a_directory d -> Format.fprintf ppf "%s is not a directory" d
  | Already_published d ->
    Format.fprintf ppf
      "an update for source state %s is already published (chains are \
       linear)"
      d
  | Patch_rejected m ->
    Format.fprintf ppf "patch does not apply to the published source: %s" m
  | Corrupt_entry { digest; reason } ->
    Format.fprintf ppf "corrupt repository entry for source state %s: %s"
      digest reason
  | Chain_cycle d ->
    Format.fprintf ppf "repository chain contains a cycle at %s" d
  | Update_apply_failed { update_id; reason } ->
    Format.fprintf ppf "update %s failed: %s" update_id reason
  | Source_patch_failed { update_id; reason } ->
    Format.fprintf ppf
      "local source does not take the patch of update %s: %s" update_id
      reason
  | Io_failure { path; reason } ->
    Format.fprintf ppf "repository I/O failed on %s: %s" path reason
  | Gc_unsafe m ->
    Format.fprintf ppf "garbage collection refused: %s" m

let open_dir ?(vfs = Vfs.real) ?(recover = true) dir =
  if vfs.Vfs.exists dir && not (vfs.Vfs.is_directory dir) then
    Error (Not_a_directory dir)
  else
    match Store.create ~name:"repo" ~dir ~vfs ~recover () with
    | s -> Ok s
    | exception Vfs.Io_error { op; path; reason } ->
      Error (Io_failure { path; reason = op ^ ": " ^ reason })

let recovery = Store.recovery

(* Entries live in the content-addressed store: the blob below is keyed
   by its own digest and the mutable ref ["entry:<base_digest>"] points
   at it — reading re-digests the blob, so truncation or bit-flips
   surface as [Corrupt_entry], never as a parse crash. The update inside
   is serialised store-backed, so every entry of a chain shares one
   physical copy of each common helper object. *)

let entry_magic = "KSPLREPO2"
let entry_ref digest = "entry:" ^ digest

(* a cumulative entry lives beside the per-update chain under its own
   ref: subscribers that prefer it take one hop to the chain head, while
   the per-update refs stay intact for mid-chain machines *)
let cumulative_ref digest = "cumulative:" ^ digest

let encode_entry store (e : entry) =
  let b = Buffer.create 4096 in
  Buffer.add_string b entry_magic;
  Codec.put_str b e.base_digest;
  Codec.put_str b e.next_digest;
  Codec.put_str b e.patch_text;
  Codec.put_str b (Bytes.to_string (Update.to_bytes_store store e.update));
  Buffer.contents b

let ( let* ) = Result.bind

let corrupt ~digest pp e =
  Error (Corrupt_entry { digest; reason = Format.asprintf "%a" pp e })

(* an entry blob's fields, its update still serialised; [digest] labels
   the error with the source state the entry was read for *)
let read_fields ~digest raw =
  let field r =
    let base = Codec.get_str r in
    let next = Codec.get_str r in
    let patch = Codec.get_str r in
    (* a fresh copy, owned here *)
    (base, next, patch, Bytes.unsafe_of_string (Codec.get_str r))
  in
  match Codec.decode ~magic:entry_magic field raw with
  | Ok f -> Ok f
  | Error e -> corrupt ~digest Codec.pp_error e

let decode_entry store ~digest raw =
  let* base_digest, next_digest, patch_text, update =
    read_fields ~digest raw
  in
  match Update.of_bytes_store store update with
  | Error e -> corrupt ~digest Update.pp_decode_error e
  | Ok update -> Ok { base_digest; next_digest; patch_text; update }

type links = {
  l_base : string;
  l_next : string;
  l_ref : string;
  l_objects : Store.digest list;
}

(* one read of the entry's fields and its update's header: the ref the
   entry belongs under comes from the bytes themselves (never from
   server metadata) — an entry whose update supersedes something is
   cumulative *)
let links ~digest raw =
  let* l_base, l_next, _patch, update = read_fields ~digest raw in
  match Update.references update with
  | Error e -> corrupt ~digest Update.pp_decode_error e
  | Ok (l_objects, supersedes) ->
    let l_ref =
      if supersedes <> [] then cumulative_ref l_base else entry_ref l_base
    in
    Ok { l_base; l_next; l_ref; l_objects }

let read_ref_entry t ~ref_name ~digest =
  match Store.find_ref t ref_name with
  | None -> Ok None
  | Some blob_digest -> (
    match Store.load t blob_digest with
    | Error `Missing ->
      Error
        (Corrupt_entry
           { digest; reason = "entry blob " ^ blob_digest ^ " is missing" })
    | Error (`Corrupt reason) -> Error (Corrupt_entry { digest; reason })
    | Ok raw ->
      decode_entry t ~digest raw |> Result.map Option.some)

let read_entry t digest = read_ref_entry t ~ref_name:(entry_ref digest) ~digest

let read_cumulative t digest =
  read_ref_entry t ~ref_name:(cumulative_ref digest) ~digest

(* all blob puts (entry + interned objects) happen inside the
   transaction, pinning them against a racing GC; the ref flip is one
   atomic replace of the ref table, so a crash anywhere leaves the
   publish atomically present or atomically absent *)
let commit_entry t ~ref_name e =
  match
    Store.with_txn t (fun () ->
        let d = Store.put t (encode_entry t e) in
        Store.commit_refs t [ (ref_name, d) ])
  with
  | () -> Ok e
  | exception Vfs.Io_error { op; path; reason } ->
    Error (Io_failure { path; reason = op ^ ": " ^ reason })

let publish t ~source ~patch ~update =
  let base_digest = Tree.digest source in
  if Store.find_ref t (entry_ref base_digest) <> None then
    Error (Already_published base_digest)
  else
    match Diff.apply patch source with
    | Error m -> Error (Patch_rejected m)
    | Ok next_tree ->
      let e =
        { base_digest; next_digest = Tree.digest next_tree;
          patch_text = Diff.to_string patch; update }
      in
      commit_entry t ~ref_name:(entry_ref base_digest) e

let pending t ~digest =
  let rec walk digest acc seen =
    if List.mem digest seen then Error (Chain_cycle digest)
    else
      match read_entry t digest with
      | Error err -> Error err
      | Ok None -> Ok (List.rev acc)
      | Ok (Some e) -> walk e.next_digest (e :: acc) (digest :: seen)
  in
  walk digest [] []

(* replay a chain's patches over [source], yielding the head tree *)
let advance_source source chain =
  let rec go source = function
    | [] -> Ok source
    | e :: rest -> (
      match Diff.parse e.patch_text with
      | Error m ->
        Error
          (Corrupt_entry
             { digest = e.base_digest;
               reason = "corrupt patch in repository: " ^ m })
      | Ok patch -> (
        match Diff.apply patch source with
        | Error m ->
          Error
            (Source_patch_failed
               { update_id = e.update.Update.update_id; reason = m })
        | Ok source' -> go source' rest))
  in
  go source chain

let publish_cumulative t ~source ~update_id ~description =
  let base_digest = Tree.digest source in
  if Store.find_ref t (cumulative_ref base_digest) <> None then
    Error (Already_published base_digest)
  else
    match pending t ~digest:base_digest with
    | Error err -> Error err
    | Ok [] ->
      Error (Patch_rejected "no pending chain to collapse at this source")
    | Ok chain -> (
      match advance_source source chain with
      | Error err -> Error err
      | Ok head_tree -> (
        (* one composed patch spanning the whole chain, and a flattened
           supersedes list: a chain entry that is itself cumulative
           contributes the ids it replaced before its own, so the
           atomic-replace unwind loop can follow revived stacks *)
        let patch = Diff.diff_trees source head_tree in
        let supersedes =
          List.concat_map
            (fun e ->
              e.update.Update.supersedes @ [ e.update.Update.update_id ])
            chain
        in
        match
          Create.create ~supersedes
            { Create.source; patch; update_id; description }
        with
        | Error ce ->
          Error
            (Patch_rejected
               (Format.asprintf "cumulative build failed: %a" Create.pp_error
                  ce))
        | Ok c ->
          let e =
            { base_digest; next_digest = Tree.digest head_tree;
              patch_text = Diff.to_string patch; update = c.Create.update }
          in
          commit_entry t ~ref_name:(cumulative_ref base_digest) e))

type sync_report = {
  applied : string list;
  new_source : Tree.t;
}

(* the hop sequence from [digest], preferring a published cumulative
   entry (one hop spanning the chain) over the per-update walk *)
let route t ~digest =
  let rec walk digest acc seen =
    if List.mem digest seen then Error (Chain_cycle digest)
    else
      match read_cumulative t digest with
      | Error err -> Error err
      | Ok (Some e) ->
        walk e.next_digest ((`Cumulative, e) :: acc) (digest :: seen)
      | Ok None -> (
        match read_entry t digest with
        | Error err -> Error err
        | Ok None -> Ok (List.rev acc)
        | Ok (Some e) ->
          walk e.next_digest ((`Entry, e) :: acc) (digest :: seen))
  in
  walk digest [] []

let sync t mgr ~source =
  (* the whole route is fetched and digest-verified before any update is
     applied: a corrupt entry anywhere leaves the machine untouched. A
     cumulative hop atomically replaces whatever stacked segment it
     supersedes (nothing, on a freshly synced machine). *)
  match route t ~digest:(Tree.digest source) with
  | Error err -> Error err
  | Ok hops ->
    let rec go source applied = function
      | [] -> Ok { applied = List.rev applied; new_source = source }
      | (kind, e) :: rest -> (
        let update_id = e.update.Update.update_id in
        let applied_res =
          match kind with
          | `Cumulative -> Apply.apply_cumulative mgr e.update
          | `Entry -> Apply.apply mgr e.update
        in
        match applied_res with
        | Error ae ->
          Error
            (Update_apply_failed
               { update_id; reason = Format.asprintf "%a" Apply.pp_error ae })
        | Ok _ -> (
          match advance_source source [ e ] with
          | Error err -> Error err
          | Ok source' -> go source' (update_id :: applied) rest))
    in
    go source [] hops

(* --- integrity: fsck and garbage collection --- *)

type fsck_report = {
  store_report : Store.fsck_report;
  entries_checked : int;
  corrupt_entries : (string * string) list;
}

let fsck t =
  let store_res = Store.fsck t in
  let store_report = match store_res with Ok r | Error r -> r in
  let entries = ref 0 in
  let corrupt = ref [] in
  let check prefix read rname =
    let plen = String.length prefix in
    if
      String.length rname > plen
      && String.equal (String.sub rname 0 plen) prefix
    then begin
      incr entries;
      let digest = String.sub rname plen (String.length rname - plen) in
      match read t digest with
      | Ok (Some _) -> ()
      | Ok None -> corrupt := (digest, "ref resolves to no entry") :: !corrupt
      | Error e ->
        corrupt := (digest, Format.asprintf "%a" pp_error e) :: !corrupt
    end
  in
  List.iter
    (fun (rname, _) ->
      check "entry:" read_entry rname;
      check "cumulative:" read_cumulative rname)
    (Store.refs t);
  let report =
    {
      store_report;
      entries_checked = !entries;
      corrupt_entries = List.rev !corrupt;
    }
  in
  if Result.is_ok store_res && report.corrupt_entries = [] then Ok report
  else Error report

(* reachability out of a blob, told apart by magic: a repository entry
   and a bare update reach the objects the update interns; anything else
   (objects, head digests, cached diffs) is a leaf. An entry or update
   that does not decode is damage, never a leaf. *)
let expand_blob digest raw =
  if String.starts_with ~prefix:entry_magic raw then
    match links ~digest raw with
    | Ok l -> Ok l.l_objects
    | Error (Corrupt_entry { reason; _ }) -> Error reason
    | Error e -> Error (Format.asprintf "%a" pp_error e)
  else if String.starts_with ~prefix:Update.magic raw then
    match Update.references (Bytes.of_string raw) with
    | Ok (ds, _) -> Ok ds
    | Error e -> Error (Format.asprintf "%a" Update.pp_decode_error e)
  else Ok []

let gc t =
  match Store.gc ~expand:expand_blob t with
  | Ok r -> Ok r
  | Error m -> Error (Gc_unsafe m)

(* --- distribution support: digest-level chain manifests --- *)

type manifest_entry = {
  me_base : string;
  me_next : string;
  me_blob : Store.digest;
  me_size : int;
  me_objects : (Store.digest * int) list;
}

let manifest t ~digest =
  let load ~owner d =
    match Store.load t d with
    | Ok raw -> Ok raw
    | Error `Missing ->
      Error
        (Corrupt_entry
           { digest = owner; reason = "blob " ^ d ^ " is missing" })
    | Error (`Corrupt reason) ->
      Error (Corrupt_entry { digest = owner; reason })
  in
  let rec sized ~owner acc = function
    | [] -> Ok (List.rev acc)
    | d :: rest ->
      let* o = load ~owner d in
      sized ~owner ((d, String.length o) :: acc) rest
  in
  let rec walk digest acc seen =
    if List.mem digest seen then Error (Chain_cycle digest)
    else
      (* a published cumulative entry takes precedence: the manifest
         then advertises one hop (one entry blob + its objects) instead
         of the whole per-update chain — the fleet's delta sync *)
      let hop_blob =
        match Store.find_ref t (cumulative_ref digest) with
        | Some d -> Some d
        | None -> Store.find_ref t (entry_ref digest)
      in
      match hop_blob with
      | None -> Ok (List.rev acc)
      | Some blob_digest ->
        let* raw = load ~owner:digest blob_digest in
        let* l = links ~digest raw in
        let* me_objects = sized ~owner:digest [] l.l_objects in
        let e =
          { me_base = l.l_base; me_next = l.l_next; me_blob = blob_digest;
            me_size = String.length raw; me_objects }
        in
        walk l.l_next (e :: acc) (digest :: seen)
  in
  walk digest [] []

let head t ~digest =
  match manifest t ~digest with
  | Error e -> Error e
  | Ok [] -> Ok digest
  | Ok entries -> Ok (List.nth entries (List.length entries - 1)).me_next
