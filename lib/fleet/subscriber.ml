module Repo = Ksplice.Repository

type error =
  | Transport of Transport.recv_error
  | Protocol of string
  | Server of { code : string; msg : string }
  | Digest_mismatch of { digest : string }
  | Bad_entry of Repo.error

let pp_error ppf = function
  | Transport e -> Transport.pp_recv_error ppf e
  | Protocol m -> Format.fprintf ppf "protocol violation: %s" m
  | Server { code; msg } -> Format.fprintf ppf "server error [%s] %s" code msg
  | Digest_mismatch { digest } ->
    Format.fprintf ppf "received bytes do not digest to %s" digest
  | Bad_entry e -> Format.fprintf ppf "entry refused: %a" Repo.pp_error e

let head_ref = "fleet:head"

let head store ~base =
  match Store.find_ref store head_ref with
  | None -> base
  | Some d -> ( match Store.get store d with Some h -> h | None -> base)

(* running totals across the attempts of one [sync] *)
type totals = {
  mutable committed : int;
  mutable blobs_fetched : int;
  mutable bytes_fetched : int;
  mutable bytes_saved : int;
  mutable redundant : int;
  mutable dups : int;
}

let check_linkage head0 (items : Repo.manifest_entry list) =
  let rec go expect = function
    | [] -> Ok ()
    | (i : Repo.manifest_entry) :: rest ->
      if not (String.equal i.me_base expect) then
        Error
          (Protocol
             (Printf.sprintf "manifest chain broken: expected base %s, got %s"
                expect i.me_base))
      else if String.equal i.me_next i.me_base then
        Error (Protocol "manifest entry maps a source state to itself")
      else go i.me_next rest
  in
  go head0 items

(* an attempt's place in the manifest: the index of the leading
   uncommitted entry, and that entry's links, decoded once when its
   blob is present and dropped when it commits *)
type progress = {
  items : Repo.manifest_entry array;
  mutable next : int;
  mutable lead : Repo.links option;
}

(* the leading entry's links, decoding its blob the first time it is
   present; [None] while the blob is absent *)
let lead_links store p =
  match p.lead with
  | Some _ as l -> Ok l
  | None -> (
    let i = p.items.(p.next) in
    match Store.get store i.me_blob with
    | None -> Ok None
    | Some raw -> (
      match Repo.links ~digest:i.me_base raw with
      | Error e -> Error (Bad_entry e)
      | Ok l ->
        p.lead <- Some l;
        Ok p.lead))

(* commit every leading manifest entry whose blob and re-derived object
   closure are all locally present: the ref flip (entry + head) is one
   ref table write, so a kill between blobs leaves the chain at the last
   whole entry. An entry blob that does not decode is refused and
   nothing past it is committed. *)
let rec commit_ready store p totals =
  if p.next >= Array.length p.items then Ok ()
  else
    match lead_links store p with
    | Error e -> Error e
    | Ok None -> Ok ()
    | Ok (Some l) ->
      if not (List.for_all (Store.mem store) l.l_objects) then Ok ()
      else begin
        let i = p.items.(p.next) in
        (* the ref name comes from the verified bytes, not the
           manifest: a cumulative entry lands under its cumulative ref
           so a later local sync takes the one-hop route *)
        Store.with_txn store (fun () ->
            let hd = Store.put store i.me_next in
            Store.commit_refs store [ (l.l_ref, i.me_blob); (head_ref, hd) ]);
        p.next <- p.next + 1;
        p.lead <- None;
        totals.committed <- totals.committed + 1;
        commit_ready store p totals
      end

let sync_once ~id ~store ~base totals (tr : Transport.t) =
  let r = Transport.reader tr in
  let send f = Result.map_error (fun e -> Transport e) (Transport.send_frame tr f) in
  let recv () = Result.map_error (fun e -> Transport e) (Transport.recv_frame r) in
  let ( let* ) = Result.bind in
  let* () = send (Wire.Hello { version = Wire.version; peer = id }) in
  let* ack = recv () in
  let* () =
    match ack with
    | Wire.Hello_ack { version; _ } when version = Wire.version -> Ok ()
    | Wire.Hello_ack { version; _ } ->
      Error (Protocol (Printf.sprintf "server speaks v%d" version))
    | Wire.Err { code; msg } -> Error (Server { code; msg })
    | f -> Error (Protocol (Format.asprintf "expected hello-ack, got %a" Wire.pp_frame f))
  in
  let head0 = head store ~base in
  let* () = send (Wire.Head { digest = head0 }) in
  let* m = recv () in
  let* items =
    match m with
    | Wire.Manifest items -> Ok items
    | Wire.Err { code; msg } -> Error (Server { code; msg })
    | f -> Error (Protocol (Format.asprintf "expected manifest, got %a" Wire.pp_frame f))
  in
  let* () = check_linkage head0 items in
  let server_head =
    match List.rev items with [] -> head0 | last :: _ -> last.Repo.me_next
  in
  (* delta sync: want only what the store lacks, oldest entry first;
     account the bytes the CAS already holds as saved *)
  let present = Hashtbl.create 64 in
  let wanted = Hashtbl.create 64 in
  let wants = ref [] in
  let consider d size =
    if not (Hashtbl.mem present d || Hashtbl.mem wanted d) then
      if Store.mem store d then begin
        Hashtbl.replace present d ();
        totals.bytes_saved <- totals.bytes_saved + size
      end
      else begin
        Hashtbl.replace wanted d ();
        wants := d :: !wants
      end
  in
  List.iter
    (fun (i : Repo.manifest_entry) ->
      consider i.me_blob i.me_size;
      List.iter (fun (d, sz) -> consider d sz) i.me_objects)
    items;
  let wants = List.rev !wants in
  let p = { items = Array.of_list items; next = 0; lead = None } in
  let* () = commit_ready store p totals in
  let* () = send (Wire.Want wants) in
  let outstanding = Hashtbl.copy wanted in
  let rec stream () =
    let* f = recv () in
    match f with
    | Wire.Blob { digest; bytes } ->
      if not (Hashtbl.mem outstanding digest) then begin
        (* duplicate delivery or an unsolicited blob: tolerated, never
           verified or stored — it cannot displace verified bytes *)
        totals.dups <- totals.dups + 1;
        stream ()
      end
      else if not (Store.put_as store digest bytes) then
        Error (Digest_mismatch { digest })
      else begin
        if Hashtbl.mem present digest then
          totals.redundant <- totals.redundant + 1;
        Hashtbl.remove outstanding digest;
        totals.blobs_fetched <- totals.blobs_fetched + 1;
        totals.bytes_fetched <- totals.bytes_fetched + String.length bytes;
        let* () = commit_ready store p totals in
        stream ()
      end
    | Wire.Done { head = h } ->
      if not (String.equal h server_head) then
        Error
          (Protocol
             (Printf.sprintf "done head %s contradicts manifest head %s" h
                server_head))
      else if Hashtbl.length outstanding > 0 then
        Error
          (Protocol
             (Printf.sprintf "done with %d blobs still outstanding"
                (Hashtbl.length outstanding)))
      else if p.next < Array.length p.items then
        Error
          (Protocol
             (Printf.sprintf
                "done with entry %d uncommitted: manifest object set was \
                 incomplete"
                p.next))
      else Ok server_head
    | Wire.Err { code; msg } -> Error (Server { code; msg })
    | f ->
      Error (Protocol (Format.asprintf "expected blob or done, got %a" Wire.pp_frame f))
  in
  stream ()

type report = {
  r_head : string;
  r_synced : bool;
  r_attempts : int;
  r_delays : int list;
  r_committed : int;
  r_blobs_fetched : int;
  r_bytes_fetched : int;
  r_bytes_saved : int;
  r_redundant : int;
  r_dups : int;
  r_log : string list;
}

let sync ?(retries = 5) ?(sleep = fun _ -> ()) ?(id = "subscriber") ~store
    ~base ~connect () =
  let totals =
    { committed = 0; blobs_fetched = 0; bytes_fetched = 0; bytes_saved = 0;
      redundant = 0; dups = 0 }
  in
  let finish ~head:r_head ~synced ~attempts ~delays ~log =
    {
      r_head;
      r_synced = synced;
      r_attempts = attempts;
      r_delays = List.rev delays;
      r_committed = totals.committed;
      r_blobs_fetched = totals.blobs_fetched;
      r_bytes_fetched = totals.bytes_fetched;
      r_bytes_saved = totals.bytes_saved;
      r_redundant = totals.redundant;
      r_dups = totals.dups;
      r_log = List.rev log;
    }
  in
  let rec attempt n delays log =
    if n > retries then
      (* graceful degradation: every attempt failed — keep serving the
         old chain head; everything durably committed so far stays *)
      finish ~head:(head store ~base) ~synced:false ~attempts:(n - 1) ~delays
        ~log
    else
      let outcome =
        match connect n with
        | None -> Error "connect refused"
        | Some tr ->
          let res = sync_once ~id ~store ~base totals tr in
          tr.Transport.close ();
          Result.map_error (Format.asprintf "%a" pp_error) res
      in
      match outcome with
      | Ok h -> finish ~head:h ~synced:true ~attempts:n ~delays ~log
      | Error e ->
        let log = Printf.sprintf "attempt %d: %s" n e :: log in
        if n >= retries then
          finish ~head:(head store ~base) ~synced:false ~attempts:n ~delays
            ~log
        else begin
          (* the Manager's schedule with the subscriber's constants, so
             fleet retries replay bit-identically for a given (id,
             attempt) just like manager retries do *)
          let d =
            Ksplice.Backoff.retry_delay ~base:100 ~cap:1600 ~bound:64 ~seed:0
              ~id ~attempt:n
          in
          sleep d;
          attempt (n + 1) (d :: delays) log
        end
  in
  attempt 1 [] []
