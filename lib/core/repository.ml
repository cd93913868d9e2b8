module Tree = Patchfmt.Source_tree
module Diff = Patchfmt.Diff

type t = {
  dir : string;
  store : Store.t;
}

let store t = t.store

(* a repository view over an existing store handle (e.g. a fleet
   subscriber's mirror, which may be memory-only): the dir is only used
   to label errors *)
let of_store store = { dir = "<store:" ^ Store.name store ^ ">"; store }

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

let open_dir ?vfs ?(recover = true) ?share dir =
  if Sys.file_exists dir && not (Sys.is_directory dir) then
    Error (Not_a_directory dir)
  else
    match
      Store.create ~name:"repo" ~capacity:256 ~dir ?vfs ~recover ?share ()
    with
    | s -> Ok { dir; store = s }
    | exception Invalid_argument _ -> Error (Not_a_directory dir)
    | exception Vfs.Io_error { op; path; reason } ->
      Error (Io_failure { path; reason = op ^ ": " ^ reason })

let recovery t = Store.recovery t.store

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
  let put_str s =
    Buffer.add_int32_le b (Int32.of_int (String.length s));
    Buffer.add_string b s
  in
  Buffer.add_string b entry_magic;
  put_str e.base_digest;
  put_str e.next_digest;
  put_str e.patch_text;
  put_str (Bytes.to_string (Update.to_bytes_store store e.update));
  Buffer.contents b

(* (base_digest, next_digest, patch_text, update_bytes), without
   decoding the update — shared by entry reads and the GC's
   reachability expansion *)
let parse_entry_fields raw =
  let mlen = String.length entry_magic in
  if String.length raw < mlen || String.sub raw 0 mlen <> entry_magic then
    Error "bad entry magic"
  else begin
    let pos = ref mlen in
    let get_str () =
      if !pos + 4 > String.length raw then failwith "truncated entry";
      let n = Int32.to_int (String.get_int32_le raw !pos) in
      pos := !pos + 4;
      if n < 0 || !pos + n > String.length raw then failwith "truncated entry";
      let s = String.sub raw !pos n in
      pos := !pos + n;
      s
    in
    match
      let base_digest = get_str () in
      let next_digest = get_str () in
      let patch_text = get_str () in
      let update_bytes = get_str () in
      (base_digest, next_digest, patch_text, update_bytes)
    with
    | exception Failure m -> Error m
    | fields -> Ok fields
  end

let decode_entry store ~digest raw =
  let fail reason = Error (Corrupt_entry { digest; reason }) in
  match parse_entry_fields raw with
  | Error reason -> fail reason
  | Ok (base_digest, next_digest, patch_text, update_bytes) -> (
    match Update.of_bytes_store store (Bytes.of_string update_bytes) with
    | Error e -> fail (Format.asprintf "%a" Update.pp_decode_error e)
    | Ok update -> Ok { base_digest; next_digest; patch_text; update })

let read_ref_entry t ~ref_name ~digest =
  match Store.find_ref t.store ref_name with
  | None -> Ok None
  | Some blob_digest -> (
    match Store.load t.store blob_digest with
    | Error `Missing ->
      Error
        (Corrupt_entry
           { digest; reason = "entry blob " ^ blob_digest ^ " is missing" })
    | Error (`Corrupt reason) -> Error (Corrupt_entry { digest; reason })
    | Ok raw ->
      decode_entry t.store ~digest raw |> Result.map Option.some)

let read_entry t digest = read_ref_entry t ~ref_name:(entry_ref digest) ~digest

let read_cumulative t digest =
  read_ref_entry t ~ref_name:(cumulative_ref digest) ~digest

(* all blob puts (entry + interned objects) happen inside the
   transaction, pinning them against a racing GC; the ref flip goes
   through the write-ahead journal, so a crash anywhere leaves the
   publish atomically present or atomically absent *)
let commit_entry t ~ref_name e =
  match
    Store.with_txn t.store (fun () ->
        let d = Store.put t.store (encode_entry t.store e) in
        Store.commit_refs t.store [ (ref_name, d) ])
  with
  | () -> Ok e
  | exception Vfs.Io_error { op; path; reason } ->
    Error (Io_failure { path; reason = op ^ ": " ^ reason })

let publish t ~source ~patch ~update =
  let base_digest = Tree.digest source in
  if Store.find_ref t.store (entry_ref base_digest) <> None then
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
  if Store.find_ref t.store (cumulative_ref base_digest) <> None then
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
          Create.create ~store:t.store ~supersedes
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
  let store_res = Store.fsck t.store in
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
    (Store.refs t.store);
  let report =
    {
      store_report;
      entries_checked = !entries;
      corrupt_entries = List.rev !corrupt;
    }
  in
  if Result.is_ok store_res && report.corrupt_entries = [] then Ok report
  else Error report

(* reachability out of a blob: a repository entry reaches its serialised
   update's interned objects; a bare store-backed update blob reaches the
   same; anything else (helper objects themselves) is a leaf *)
let expand_blob _digest raw =
  let mlen = String.length entry_magic in
  let update_bytes =
    if String.length raw >= mlen && String.sub raw 0 mlen = entry_magic then
      match parse_entry_fields raw with
      | Ok (_, _, _, ub) -> Some ub
      | Error _ -> None
    else Some raw
  in
  match update_bytes with
  | None -> []
  | Some ub -> (
    match Update.store_digests (Bytes.of_string ub) with
    | Ok ds -> ds
    | Error _ -> [])

let gc t =
  match Store.gc ~expand:expand_blob t.store with
  | Ok r -> Ok r
  | Error m -> Error (Gc_unsafe m)

(* --- distribution support: digest-level chain manifests --- *)

let closure raw = expand_blob "" raw

(* the ref a received entry blob belongs under, derived from the bytes
   themselves (never from server metadata): an entry whose serialised
   update supersedes something is cumulative *)
let blob_ref raw =
  match parse_entry_fields raw with
  | Error _ -> None
  | Ok (base, _next, _patch, update_bytes) ->
    if Update.supersedes_of_bytes (Bytes.of_string update_bytes) <> [] then
      Some (cumulative_ref base)
    else Some (entry_ref base)

type manifest_entry = {
  me_base : string;
  me_next : string;
  me_blob : Store.digest;
  me_size : int;
  me_objects : (Store.digest * int) list;
}

let manifest t ~digest =
  let load_sized ~owner d =
    match Store.load t.store d with
    | Ok raw -> Ok raw
    | Error `Missing ->
      Error
        (Corrupt_entry
           { digest = owner; reason = "blob " ^ d ^ " is missing" })
    | Error (`Corrupt reason) ->
      Error (Corrupt_entry { digest = owner; reason })
  in
  let rec walk digest acc seen =
    if List.mem digest seen then Error (Chain_cycle digest)
    else
      (* a published cumulative entry takes precedence: the manifest
         then advertises one hop (one entry blob + its objects) instead
         of the whole per-update chain — the fleet's delta sync *)
      let hop_blob =
        match Store.find_ref t.store (cumulative_ref digest) with
        | Some d -> Some d
        | None -> Store.find_ref t.store (entry_ref digest)
      in
      match hop_blob with
      | None -> Ok (List.rev acc)
      | Some blob_digest -> (
        match load_sized ~owner:digest blob_digest with
        | Error e -> Error e
        | Ok raw -> (
          match parse_entry_fields raw with
          | Error reason -> Error (Corrupt_entry { digest; reason })
          | Ok (me_base, me_next, _patch, _ub) ->
            let rec sized acc = function
              | [] -> Ok (List.rev acc)
              | d :: rest -> (
                match load_sized ~owner:digest d with
                | Error e -> Error e
                | Ok o -> sized ((d, String.length o) :: acc) rest)
            in
            (match sized [] (expand_blob blob_digest raw) with
            | Error e -> Error e
            | Ok me_objects ->
              let e =
                { me_base; me_next; me_blob = blob_digest;
                  me_size = String.length raw; me_objects }
              in
              walk me_next (e :: acc) (digest :: seen))))
  in
  walk digest [] []

let head t ~digest =
  match manifest t ~digest with
  | Error e -> Error e
  | Ok [] -> Ok digest
  | Ok entries -> Ok (List.nth entries (List.length entries - 1)).me_next
