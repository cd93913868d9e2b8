(* Fleet distribution tests: frame codec totality (qcheck), the
   simulated transport's fault plans, subscriber resume/delta-sync
   invariants, graceful degradation, the backoff schedule, and one real
   socketpair round trip. *)

module Tree = Patchfmt.Source_tree
module Diff = Patchfmt.Diff
module Repo = Ksplice.Repository
module Create = Ksplice.Create
module Wire = Fleet.Wire
module Transport = Fleet.Transport
module Server = Fleet.Server
module Subscriber = Fleet.Subscriber

let t name f = Alcotest.test_case name `Quick f
let qt p = QCheck_alcotest.to_alcotest p

(* --- a tiny two-hop chain, same recipe as the repository tests --- *)

let base_tree =
  Tree.of_list
    [ ( "kernel/k.c",
        "int level = 1;\n\
         int probe(int x) {\n\
        \  int acc = 0;\n\
        \  int i;\n\
        \  for (i = 0; i < x; i = i + 1)\n\
        \    acc = acc + level;\n\
        \  return acc;\n\
         }\n" ) ]

let edit tree f =
  Tree.add tree "kernel/k.c" (f (Option.get (Tree.find tree "kernel/k.c")))

let mk_update ~id ~from ~to_ =
  match
    Create.create
      { source = from; patch = Diff.diff_trees from to_; update_id = id;
        description = id }
  with
  | Ok c -> c.Create.update
  | Error e -> Alcotest.failf "create %s: %a" id Create.pp_error e

let tree1 =
  edit base_tree
    (Fixture.replace "acc = acc + level;" "acc = acc + level + 1;")

let tree2 =
  edit tree1 (Fixture.replace "int level = 1;" "int level = 1;\nint spare;")

let server_repo () =
  let repo = Repo.of_store (Store.create ~name:"fleet-server" ()) in
  let publish ~from ~to_ ~id =
    match
      Repo.publish repo ~source:from ~patch:(Diff.diff_trees from to_)
        ~update:(mk_update ~id ~from ~to_)
    with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "publish %s: %a" id Repo.pp_error e
  in
  publish ~from:base_tree ~to_:tree1 ~id:"hop-1";
  publish ~from:tree1 ~to_:tree2 ~id:"hop-2";
  repo

let base_digest = Tree.digest base_tree
let head_digest = Tree.digest tree2

let connect_sim ?plan repo attempt =
  let p = if attempt = 1 then plan else None in
  let tr, _ = Transport.sim ?plan:p ~serve:(Server.handle (Server.session repo)) () in
  Some tr

let sub_store () = Store.create ~name:"fleet-sub" ()

(* every digest a manifest advertises: each entry blob and its objects *)
let wanted entries =
  List.concat_map
    (fun (e : Repo.manifest_entry) -> e.me_blob :: List.map fst e.me_objects)
    entries

let check_mirror repo sub =
  (* byte-identical chain: every entry ref resolves to the same blob
     digest on both sides, and the mirror decodes end to end *)
  let server = Repo.store repo in
  List.iter
    (fun (rname, d) ->
      if String.length rname >= 6 && String.sub rname 0 6 = "entry:" then
        Alcotest.(check (option string))
          ("mirrored ref " ^ rname) (Some d) (Store.find_ref sub rname))
    (Store.refs server);
  let mirror = Repo.of_store sub in
  (match Repo.fsck mirror with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "mirror fsck reports damage");
  match Repo.pending mirror ~digest:base_digest with
  | Ok entries ->
    Alcotest.(check (list string))
      "mirror chain ids" [ "hop-1"; "hop-2" ]
      (List.map (fun (e : Repo.entry) -> e.update.Ksplice.Update.update_id) entries)
  | Error e -> Alcotest.failf "mirror pending: %a" Repo.pp_error e

(* --- frame codec: qcheck totality --- *)

let digest_gen = QCheck.Gen.map Digest.to_hex (QCheck.Gen.map Digest.string QCheck.Gen.small_string)

(* Lists hold at most three elements: the bit-flip property decodes once
   per bit, so its cost grows with the square of the frame size, and
   every constructor and every list length up to three is still drawn. *)
let frame_gen =
  let open QCheck.Gen in
  let str = small_string ?gen:None in
  let few g = list_size (int_bound 3) g in
  let item =
    digest_gen >>= fun me_base ->
    digest_gen >>= fun me_next ->
    digest_gen >>= fun me_blob ->
    small_nat >>= fun me_size ->
    few (pair digest_gen small_nat) >>= fun me_objects ->
    return { Repo.me_base; me_next; me_blob; me_size; me_objects }
  in
  oneof
    [
      (pair small_nat str >|= fun (version, peer) -> Wire.Hello { version; peer });
      (pair small_nat str >|= fun (version, peer) -> Wire.Hello_ack { version; peer });
      (digest_gen >|= fun digest -> Wire.Head { digest });
      (few item >|= fun items -> Wire.Manifest items);
      (few digest_gen >|= fun ds -> Wire.Want ds);
      (pair digest_gen str >|= fun (digest, bytes) -> Wire.Blob { digest; bytes });
      (digest_gen >|= fun head -> Wire.Done { head });
      (pair str str >|= fun (code, msg) -> Wire.Err { code; msg });
    ]

let arb_frame = QCheck.make ~print:(Format.asprintf "%a" Wire.pp_frame) frame_gen

let prop_roundtrip =
  QCheck.Test.make ~name:"wire: decode o encode roundtrips" ~count:300
    arb_frame (fun f ->
      match Wire.decode (Wire.encode f) ~pos:0 with
      | Ok (f', p) -> f' = f && p = String.length (Wire.encode f)
      | Error _ -> false)

let prop_truncation_total =
  QCheck.Test.make
    ~name:"wire: every truncated prefix is Incomplete or a typed error"
    ~count:200 arb_frame (fun f ->
      let full = Wire.encode f in
      List.for_all
        (fun d ->
          match Wire.decode (Fixture.damage full d) ~pos:0 with
          | Ok _ -> false (* a strict prefix can never be a whole frame *)
          | Error (`Incomplete | `Fail _) -> true
          | exception _ -> false)
        (Fixture.damages full))

(* A Blob frame is its checksummed header frame, then its body raw: a
   flip in the body decodes to the same digest over the flipped bytes,
   which only the receiver's digest check refuses (test "a bit flip in
   a blob body is refused by its digest"). Every other flip is an
   error. *)
let prop_bitflip_total =
  QCheck.Test.make
    ~name:"wire: every bit-flipped frame is a typed error, except in a blob \
           body"
    ~count:60 arb_frame (fun f ->
      let full = Wire.encode f in
      (* where a Blob's body starts; the other frames have none *)
      let body =
        match f with
        | Wire.Blob { bytes; _ } -> String.length full - String.length bytes
        | _ -> String.length full
      in
      List.for_all
        (fun d ->
          let damaged = Fixture.damage full d in
          match (Wire.decode damaged ~pos:0, d, f) with
          | exception _ -> false
          | Ok (g, p), Fixture.Flip { pos; _ }, Wire.Blob { digest; _ }
            when pos >= body ->
            p = String.length full
            && g
               = Wire.Blob
                   { digest; bytes = String.sub damaged body (p - body) }
          | Ok _, _, _ -> false
          | Error (`Incomplete | `Fail _), Fixture.Flip { pos; _ }, _ ->
            pos < body
          | Error _, Fixture.Prefix _, _ -> false)
        (Fixture.damages ~prefixes:false ~masks:Fixture.every_bit full))

(* frames decode where they lie in a larger buffer, and never past
   their own end *)
let prop_frame_in_a_stream =
  QCheck.Test.make
    ~name:"wire: a frame amid other bytes decodes to itself and ends where \
           its encoding ends"
    ~count:200
    (QCheck.triple QCheck.string arb_frame QCheck.string)
    (fun (before, f, after) ->
      let enc = Wire.encode f in
      let pos = String.length before in
      match Wire.decode (before ^ enc ^ after) ~pos with
      | Ok (f', next) -> f' = f && next = pos + String.length enc
      | Error _ -> false)

(* a payload cut short but framed with a good checksum must fail as the
   truncated payload it is: the reader stops at the payload's end and
   never reads the checksum or the frame after it *)
let prop_short_payload_stays_in_frame =
  QCheck.Test.make
    ~name:"wire: a re-framed strict payload prefix fails inside its frame"
    ~count:200
    (QCheck.triple arb_frame arb_frame QCheck.small_nat)
    (fun (f, g, k) ->
      let enc = Wire.encode f in
      (* the payload its length field covers, after magic and length: a
         Blob's is its header's, and its body follows the checksum *)
      let len = Int32.to_int (String.get_int32_le enc 4) in
      let payload = String.sub enc 8 len in
      let k = k mod String.length payload in
      let short = Codec.frame ~magic:"KFR1" (String.sub payload 0 k) in
      match Wire.decode (short ^ Wire.encode g) ~pos:0 with
      | Error (`Fail e) ->
        e.Codec.off <= k && Wire.decode short ~pos:0 = Error (`Fail e)
      | Ok _ | Error `Incomplete -> false)

(* --- end-to-end sync over the simulated transport --- *)

let test_sync_clean () =
  let repo = server_repo () in
  let sub = sub_store () in
  let r =
    Subscriber.sync ~store:sub ~base:base_digest ~connect:(connect_sim repo) ()
  in
  Alcotest.(check bool) "synced" true r.Subscriber.r_synced;
  Alcotest.(check int) "one attempt" 1 r.r_attempts;
  Alcotest.(check string) "head" head_digest r.r_head;
  Alcotest.(check int) "entries committed" 2 r.r_committed;
  Alcotest.(check int) "no redundant transfers" 0 r.r_redundant;
  check_mirror repo sub;
  Alcotest.(check string)
    "durable head" head_digest
    (Subscriber.head sub ~base:base_digest)

let test_sync_every_fault_kind () =
  let repo = server_repo () in
  (* probe the fault-free frame count, then hit a frame in the middle of
     the blob stream with each fault kind *)
  let probe = sub_store () in
  let tr, stats =
    Transport.sim ~serve:(Server.handle (Server.session repo)) ()
  in
  let pr =
    Subscriber.sync ~store:probe ~base:base_digest
      ~connect:(fun _ -> Some tr)
      ()
  in
  Alcotest.(check bool) "probe synced" true pr.Subscriber.r_synced;
  let frames = stats.Transport.frames in
  Alcotest.(check bool) "probe counted frames" true (frames > 6);
  List.iter
    (fun kind ->
      let sub = sub_store () in
      let plan = { Transport.at = frames - 2; kind; seed = 7 } in
      let r =
        Subscriber.sync ~store:sub ~base:base_digest
          ~connect:(connect_sim ~plan repo) ()
      in
      let name = Transport.fault_kind_to_string kind in
      Alcotest.(check bool) (name ^ ": synced") true r.Subscriber.r_synced;
      Alcotest.(check int) (name ^ ": redundant") 0 r.r_redundant;
      check_mirror repo sub)
    Transport.all_fault_kinds

let test_resume_never_redownloads () =
  let repo = server_repo () in
  let sub = sub_store () in
  (* first attempt dies right after the first blob frame lands; the
     retry must want strictly fewer blobs and re-fetch none of them *)
  let plan = { Transport.at = 7; kind = Transport.Disconnect; seed = 1 } in
  let all_digests =
    match Repo.manifest repo ~digest:base_digest with
    | Ok entries -> wanted entries
    | Error e -> Alcotest.failf "manifest: %a" Repo.pp_error e
  in
  (* wants as the server sees them, and what the mirror already held
     when each attempt started *)
  let wants = Hashtbl.create 4 in
  let verified_at_start = Hashtbl.create 4 in
  let connect attempt =
    let p = if attempt = 1 then Some plan else None in
    Hashtbl.replace verified_at_start attempt
      (List.filter (Store.mem sub) all_digests);
    let session = Server.session repo in
    let serve bytes =
      (match Wire.decode bytes ~pos:0 with
      | Ok (Wire.Want ds, _) -> Hashtbl.replace wants attempt ds
      | _ -> ());
      Server.handle session bytes
    in
    let tr, _ = Transport.sim ?plan:p ~serve () in
    Some tr
  in
  let r = Subscriber.sync ~store:sub ~base:base_digest ~connect () in
  Alcotest.(check bool) "synced after retry" true r.Subscriber.r_synced;
  Alcotest.(check bool) "took more than one attempt" true (r.r_attempts > 1);
  Alcotest.(check int) "no redundant verified receives" 0 r.r_redundant;
  (* the retry must never re-request a blob verified by an earlier
     attempt, and must request strictly less than the first attempt *)
  let want1 = Hashtbl.find wants 1 and want2 = Hashtbl.find wants 2 in
  let survived = Hashtbl.find verified_at_start 2 in
  Alcotest.(check bool) "attempt 1 verified some blobs" true (survived <> []);
  List.iter
    (fun d ->
      if List.mem d want2 then
        Alcotest.failf "retry re-requested verified blob %s" d)
    survived;
  Alcotest.(check bool)
    "retry wants strictly less" true
    (List.length want2 < List.length want1);
  Alcotest.(check bool) "retry saved bytes" true (r.r_bytes_saved > 0);
  check_mirror repo sub

let test_degraded_serves_old_head () =
  let sub = sub_store () in
  let r =
    Subscriber.sync ~retries:3 ~store:sub ~base:base_digest
      ~connect:(fun _ -> None)
      ()
  in
  Alcotest.(check bool) "not synced" false r.Subscriber.r_synced;
  Alcotest.(check int) "all attempts used" 3 r.r_attempts;
  Alcotest.(check string) "old head served" base_digest r.r_head;
  Alcotest.(check int) "two backoff delays" 2 (List.length r.r_delays);
  match Store.fsck sub with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "degraded store not fsck-clean"

let test_backoff_shape () =
  (* the delays an unreachable server draws: one after each of the first
     six of seven attempts *)
  let delays id =
    (Subscriber.sync ~retries:7 ~id ~store:(sub_store ()) ~base:base_digest
       ~connect:(fun _ -> None) ())
      .r_delays
  in
  let d n = List.nth (delays "sub-1") (n - 1) in
  List.iter
    (fun n ->
      let expo = min 1600 (100 * (1 lsl (n - 1))) in
      let v = d n in
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d in [%d, %d)" n expo (expo + 64))
        true
        (v >= expo && v < expo + 64))
    [ 1; 2; 3; 4; 5; 6 ];
  Alcotest.(check int) "deterministic" (d 4) (d 4);
  (* the jitter hashes the subscriber id, so two subscribers retrying
     the same server draw different delays at every attempt *)
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d: sub-1 and sub-2 differ" (i + 1))
        true (a <> b))
    (List.combine (delays "sub-1") (delays "sub-2"))

let test_disk_resume_across_handles () =
  let dir = Filename.temp_file "ksplfleet" "" in
  Sys.remove dir;
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () ->
      let repo = server_repo () in
      (* process 1: sync dies mid-stream (disconnect, no retries) *)
      let s1 = Store.create ~name:"sub1" ~dir () in
      let plan = { Transport.at = 8; kind = Transport.Disconnect; seed = 2 } in
      let r1 =
        Subscriber.sync ~retries:1 ~store:s1 ~base:base_digest
          ~connect:(connect_sim ~plan repo) ()
      in
      Alcotest.(check bool) "first process failed" false r1.Subscriber.r_synced;
      (* process 2: cold reopen resumes from the durable state *)
      let s2 = Store.create ~name:"sub2" ~dir () in
      (match Store.fsck s2 with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "interrupted mirror not fsck-clean");
      let r2 =
        Subscriber.sync ~store:s2 ~base:base_digest ~connect:(connect_sim repo)
          ()
      in
      Alcotest.(check bool) "resumed sync ok" true r2.Subscriber.r_synced;
      Alcotest.(check int) "no redundant transfers" 0 r2.r_redundant;
      Alcotest.(check bool)
        "resume skipped already-fetched bytes" true
        (r1.r_bytes_fetched = 0 || r2.r_bytes_saved > 0);
      check_mirror repo s2)

(* --- a corrupt entry never reaches a subscriber --- *)

(* a well-framed KSPLREPO2 entry for base -> tree1 whose serialised
   update is garbage: its blob digest is intact, so only decoding the
   entry tells it apart from a good one *)
let garbage_entry () =
  let b = Buffer.create 128 in
  let str s =
    Buffer.add_int32_le b (Int32.of_int (String.length s));
    Buffer.add_string b s
  in
  Buffer.add_string b "KSPLREPO2";
  List.iter str [ base_digest; Tree.digest tree1; ""; "KSPL4garb" ];
  Buffer.contents b

(* a server that advertises and serves one entry blob, decoded or not *)
let lying_server blob =
  let digest = Store.digest_of_string blob in
  let next = Tree.digest tree1 in
  fun bytes ->
    List.map Wire.encode
      (match Wire.decode bytes ~pos:0 with
      | Ok (Wire.Hello _, _) ->
        [ Wire.Hello_ack { version = Wire.version; peer = "liar" } ]
      | Ok (Wire.Head _, _) ->
        [ Wire.Manifest
            [ { me_base = base_digest; me_next = next; me_blob = digest;
                me_size = String.length blob; me_objects = [] } ] ]
      | Ok (Wire.Want _, _) ->
        [ Wire.Blob { digest; bytes = blob }; Wire.Done { head = next } ]
      | _ -> [])

let mentions needle hay =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let test_corrupt_entry_refused () =
  let repo = server_repo () in
  let server = Repo.store repo in
  let blob = garbage_entry () in
  Store.commit_refs server
    [ (Repo.entry_ref base_digest, Store.put server blob) ];
  (match Repo.pending repo ~digest:base_digest with
  | Error (Repo.Corrupt_entry _) -> ()
  | Error e -> Alcotest.failf "pending: %a" Repo.pp_error e
  | Ok _ -> Alcotest.fail "pending accepted the corrupt entry");
  (match Repo.manifest repo ~digest:base_digest with
  | Error (Repo.Corrupt_entry _) -> ()
  | Error e -> Alcotest.failf "manifest: %a" Repo.pp_error e
  | Ok l ->
    Alcotest.failf "manifest advertised %d entries its pending rejects"
      (List.length l));
  (match Repo.gc repo with
  | Error (Repo.Gc_unsafe _) -> ()
  | Error e -> Alcotest.failf "gc: %a" Repo.pp_error e
  | Ok _ -> Alcotest.fail "gc took the corrupt entry for a leaf");
  let retries = 2 in
  let refused what (r : Subscriber.report) sub cause =
    Alcotest.(check bool) (what ^ ": not synced") false r.r_synced;
    Alcotest.(check string) (what ^ ": old head kept") base_digest r.r_head;
    Alcotest.(check string) (what ^ ": durable head") base_digest
      (Subscriber.head sub ~base:base_digest);
    Alcotest.(check (option string)) (what ^ ": nothing filed") None
      (Store.find_ref sub (Repo.entry_ref base_digest));
    Alcotest.(check bool) (what ^ ": cause logged") true
      (List.exists (mentions cause) r.r_log);
    match Repo.fsck (Repo.of_store sub) with
    | Ok _ -> ()
    | Error _ -> Alcotest.failf "%s: mirror fsck reports damage" what
  in
  (* the honest server refuses to advertise it *)
  let sub = sub_store () in
  let r =
    Subscriber.sync ~retries ~store:sub ~base:base_digest
      ~connect:(connect_sim repo) ()
  in
  refused "server" r sub "corrupt repository entry";
  (* a server that serves it anyway: the subscriber decodes the entry
     before filing it, and refuses *)
  let sub = sub_store () in
  let r =
    Subscriber.sync ~retries ~store:sub ~base:base_digest
      ~connect:(fun _ ->
        Some (fst (Transport.sim ~serve:(lying_server blob) ())))
      ()
  in
  refused "lying server" r sub "entry refused"

(* --- a blob whose bytes lie about their digest --- *)

(* the honest server, except that the first blob of its Want reply
   carries other bytes under the same digest, well framed; [lies]
   collects the bytes sent *)
let mismatching_server repo lies =
  let session = Server.session repo in
  fun bytes ->
    let first = ref true in
    List.map
      (fun enc ->
        match Wire.decode enc ~pos:0 with
        | Ok (Wire.Blob { digest; bytes }, _) when !first ->
          first := false;
          let lie = bytes ^ "!" in
          lies := lie :: !lies;
          Wire.encode (Wire.Blob { digest; bytes = lie })
        | _ -> enc)
      (Server.handle session bytes)

let test_mismatched_blob_never_filed () =
  let repo = server_repo () in
  let sub = sub_store () in
  let lies = ref [] in
  let r =
    Subscriber.sync ~retries:2 ~store:sub ~base:base_digest
      ~connect:(fun _ ->
        Some (fst (Transport.sim ~serve:(mismatching_server repo lies) ())))
      ()
  in
  let wanted =
    match Repo.manifest repo ~digest:base_digest with
    | Ok (e :: _) -> e.me_blob
    | Ok [] -> Alcotest.fail "empty manifest"
    | Error e -> Alcotest.failf "manifest: %a" Repo.pp_error e
  in
  Alcotest.(check bool) "not synced" false r.Subscriber.r_synced;
  Alcotest.(check int) "every attempt lied to" 2 (List.length !lies);
  Alcotest.(check bool) "mismatch logged" true
    (List.exists (mentions ("do not digest to " ^ wanted)) r.r_log);
  Alcotest.(check bool) "nothing filed under the wanted digest" false
    (Store.mem sub wanted);
  List.iter
    (fun lie ->
      Alcotest.(check bool) "the lying bytes are not filed" false
        (Store.mem sub (Store.digest_of_string lie)))
    !lies;
  Alcotest.(check (option string)) "no entry ref filed" None
    (Store.find_ref sub (Repo.entry_ref base_digest));
  Alcotest.(check string) "old head kept" base_digest r.r_head;
  Alcotest.(check string) "durable head" base_digest
    (Subscriber.head sub ~base:base_digest);
  match Repo.fsck (Repo.of_store sub) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "mirror fsck reports damage"

(* --- a flipped blob body is refused by its digest --- *)

(* The frame checksum covers a Blob's header, not its body: the check
   that refuses a body flipped in transit is the subscriber's digest
   check when it files the body. Each bit of the smallest body the chain
   serves is flipped in turn, in the first attempt of a real session;
   the retry is honest. *)
let test_body_flip_refused_by_digest () =
  let repo = server_repo () in
  let d, size =
    match
      List.concat_map
        (fun (e : Repo.manifest_entry) ->
          (e.me_blob, e.me_size) :: e.me_objects)
        (Fixture.ok "manifest" Repo.pp_error
           (Repo.manifest repo ~digest:base_digest))
    with
    | [] -> Alcotest.fail "empty manifest"
    | first :: rest ->
      List.fold_left (fun a b -> if snd b < snd a then b else a) first rest
  in
  let body = Option.get (Store.get (Repo.store repo) d) in
  (* [s], which ends in [d]'s body, with bit [bit] of the body flipped *)
  let flip s bit =
    Fixture.damage s
      (Fixture.Flip
         { pos = String.length s - size + (bit / 8); mask = 1 lsl (bit mod 8) })
  in
  (* the honest server, with bit [bit] of [d]'s body flipped *)
  let flipping bit =
    let session = Server.session repo in
    fun input ->
      List.map
        (fun enc ->
          match Wire.decode enc ~pos:0 with
          | Ok (Wire.Blob { digest; _ }, _) when digest = d -> flip enc bit
          | _ -> enc)
        (Server.handle session input)
  in
  let mismatch =
    Format.asprintf "attempt 1: %a" Subscriber.pp_error
      (Subscriber.Digest_mismatch { digest = d })
  in
  for bit = 0 to (8 * size) - 1 do
    let what = Printf.sprintf "bit %d of %s" bit d in
    let flipped = Store.digest_of_string (flip body bit) in
    let sub = sub_store () in
    (* the mirror as the refused attempt left it *)
    let after = ref None in
    let connect attempt =
      if attempt = 1 then Some (fst (Transport.sim ~serve:(flipping bit) ()))
      else begin
        if attempt = 2 then
          after :=
            Some
              ( Store.mem sub d,
                Store.mem sub flipped,
                Result.is_ok (Repo.fsck (Repo.of_store sub)) );
        connect_sim repo attempt
      end
    in
    let r = Subscriber.sync ~store:sub ~base:base_digest ~connect () in
    Alcotest.(check (list string)) (what ^ ": refused by its digest")
      [ mismatch ] r.Subscriber.r_log;
    Alcotest.(check (option (triple bool bool bool)))
      (what ^ ": nothing filed under it, the flipped bytes not filed, \
               mirror fsck clean")
      (Some (false, false, true)) !after;
    Alcotest.(check bool) (what ^ ": the retry converges") true r.r_synced;
    Alcotest.(check string) (what ^ ": head") head_digest r.r_head;
    Alcotest.(check int) (what ^ ": redundant") 0 r.r_redundant
  done

(* --- blobs in any order --- *)

(* the honest server, with the Blob frames of its Want reply reversed:
   every entry's objects arrive before its blob, and the first entry's
   blob arrives last *)
let reversing_server repo =
  let session = Server.session repo in
  fun bytes ->
    let blobs, rest =
      List.partition
        (fun enc ->
          match Wire.decode enc ~pos:0 with
          | Ok (Wire.Blob _, _) -> true
          | _ -> false)
        (Server.handle session bytes)
    in
    List.rev blobs @ rest

let test_blobs_in_any_order () =
  let repo = Repo.of_store (Store.create ~name:"fleet-reversed-server" ()) in
  let kernel = Corpus.Base_kernel.tree () in
  let depth =
    List.length
      (Fixture.ok "publish chain" Format.pp_print_string
         (Corpus.Sweep.publish_chain repo kernel ~depth:4))
  in
  Alcotest.(check bool) "at least three entries" true (depth >= 3);
  let base = Tree.digest kernel in
  let manifest =
    Fixture.ok "manifest" Repo.pp_error (Repo.manifest repo ~digest:base)
  in
  Alcotest.(check bool) "entries carry objects" true
    (List.for_all
       (fun (e : Repo.manifest_entry) -> e.me_objects <> [])
       manifest);
  let sub = sub_store () in
  let r =
    Subscriber.sync ~store:sub ~base
      ~connect:(fun _ ->
        Some (fst (Transport.sim ~serve:(reversing_server repo) ())))
      ()
  in
  Alcotest.(check bool) "synced" true r.Subscriber.r_synced;
  Alcotest.(check int) "one attempt" 1 r.r_attempts;
  Alcotest.(check int) "every entry committed" depth r.r_committed;
  let entry_refs store =
    List.filter
      (fun (name, _) -> String.starts_with ~prefix:"entry:" name)
      (Store.refs store)
  in
  Alcotest.(check (list (pair string string)))
    "mirrored entry refs" (entry_refs (Repo.store repo)) (entry_refs sub);
  let ids repo =
    List.map
      (fun (e : Repo.entry) -> e.update.Ksplice.Update.update_id)
      (Fixture.ok "pending" Repo.pp_error (Repo.pending repo ~digest:base))
  in
  Alcotest.(check int) "mirror walks the whole chain" depth
    (List.length (ids (Repo.of_store sub)));
  Alcotest.(check (list string)) "mirror chain ids" (ids repo)
    (ids (Repo.of_store sub))

(* --- what a session may serve --- *)

(* the frames of a server reply, each decoding whole *)
let decoded encs =
  List.map
    (fun enc ->
      match Wire.decode enc ~pos:0 with
      | Ok (f, p) when p = String.length enc -> f
      | Ok _ -> Alcotest.fail "a reply frame has trailing bytes"
      | Error _ -> Alcotest.fail "a reply frame does not decode")
    encs

let send s f = Server.handle s (Wire.encode f)
let hello s = send s (Wire.Hello { version = Wire.version; peer = "probe" })

(* Hello and Head from [pos]: the advertised entries *)
let advertised s pos =
  ignore (hello s : string list);
  match decoded (send s (Wire.Head { digest = pos })) with
  | [ Wire.Manifest entries ] -> entries
  | fs ->
    Alcotest.failf "head: %s"
      (String.concat "; " (List.map (Format.asprintf "%a" Wire.pp_frame) fs))

(* a reply that is one Err naming [cause], and no Blob *)
let refused what ~cause replies =
  match decoded replies with
  | [ Wire.Err { msg; _ } ] ->
    Alcotest.(check bool) (what ^ ": " ^ msg) true (mentions cause msg)
  | fs ->
    Alcotest.failf "%s: expected one Err, got %s" what
      (String.concat "; " (List.map (Format.asprintf "%a" Wire.pp_frame) fs))

let test_want_only_advertised_and_held () =
  let repo = server_repo () in
  let server = Repo.store repo in
  (* a first session from the base puts every blob's frame in the table *)
  let first = Server.session repo in
  let all = advertised first base_digest in
  let hop1 = (List.hd all).me_blob in
  Alcotest.(check int) "the first session is served every blob"
    (List.length (wanted all))
    (List.length
       (List.filter
          (function Wire.Blob _ -> true | _ -> false)
          (decoded (send first (Wire.Want (wanted all))))));
  (* before Head nothing is advertised *)
  let s = Server.session repo in
  ignore (hello s : string list);
  refused "want before head" ~cause:"unexpected frame"
    (send s (Wire.Want [ hop1 ]));
  Alcotest.(check (list string)) "a dead session says nothing more" []
    (send s (Wire.Want [ hop1 ]));
  (* from tree1 only hop-2 is pending: hop-1's entry is held and framed,
     but this session did not advertise it *)
  let s = Server.session repo in
  let from1 = advertised s (Tree.digest tree1) in
  Alcotest.(check bool) "hop-1 is not advertised from tree1" false
    (List.mem hop1 (wanted from1));
  refused "want outside the manifest" ~cause:"not in the advertised manifest"
    (send s (Wire.Want (wanted from1 @ [ hop1 ])));
  (* advertised, then collected: the frame is in the table, the blob is
     not in the store *)
  let s = Server.session repo in
  let from0 = advertised s base_digest in
  Alcotest.(check bool) "hop-1 is advertised from the base" true
    (List.mem hop1 (wanted from0));
  let hop2 = (List.nth all 1).me_blob in
  Store.commit_refs server [ (Repo.entry_ref base_digest, hop2) ];
  ignore (Fixture.ok "gc" Repo.pp_error (Repo.gc repo) : Store.gc_report);
  Alcotest.(check bool) "gc swept hop-1's entry" false (Store.mem server hop1);
  refused "want for a swept blob"
    ~cause:(Printf.sprintf "cannot serve %s: missing" hop1)
    (send s (Wire.Want [ hop1 ]))

(* --- the version gate --- *)

(* a v1 peer would misread a v2 Blob, so neither side talks past the
   Hello exchange with one *)
let test_v1_subscriber_refused () =
  let s = Server.session (Repo.of_store (sub_store ())) in
  (match decoded (send s (Wire.Hello { version = 1; peer = "old" })) with
  | [ Wire.Err { code; msg } ] ->
    Alcotest.(check string) "error code" "version" code;
    Alcotest.(check bool) ("names both versions: " ^ msg) true
      (mentions (Printf.sprintf "server speaks v%d" Wire.version) msg
      && mentions "subscriber sent v1" msg)
  | fs ->
    Alcotest.failf "hello v1: expected one Err, got %s"
      (String.concat "; " (List.map (Format.asprintf "%a" Wire.pp_frame) fs)));
  Alcotest.(check (list string)) "the session is dead" []
    (send s (Wire.Head { digest = base_digest }))

let test_v1_server_refused () =
  let repo = server_repo () in
  (* the honest server, except that its Hello_ack says v1; [heard] is
     every frame it is sent *)
  let heard = ref [] in
  let v1_server () =
    let session = Server.session repo in
    fun input ->
      (match Wire.decode input ~pos:0 with
      | Ok (f, _) -> heard := f :: !heard
      | Error _ -> Alcotest.fail "the subscriber sent a bad frame");
      List.map
        (fun enc ->
          match Wire.decode enc ~pos:0 with
          | Ok (Wire.Hello_ack { peer; _ }, _) ->
            Wire.encode (Wire.Hello_ack { version = 1; peer })
          | _ -> enc)
        (Server.handle session input)
  in
  let sub = sub_store () in
  let r =
    Subscriber.sync ~retries:2 ~store:sub ~base:base_digest
      ~connect:(fun _ -> Some (fst (Transport.sim ~serve:(v1_server ()) ())))
      ()
  in
  Alcotest.(check (list string)) "each attempt fails at the hello"
    [ "attempt 1: protocol violation: server speaks v1";
      "attempt 2: protocol violation: server speaks v1" ]
    r.Subscriber.r_log;
  Alcotest.(check (list string)) "the server heard only hellos"
    [ "hello"; "hello" ]
    (List.map
       (function
         | Wire.Hello _ -> "hello"
         | f -> Format.asprintf "%a" Wire.pp_frame f)
       !heard);
  Alcotest.(check string) "old head kept" base_digest r.r_head;
  Alcotest.(check (list (pair string string))) "nothing committed" []
    (Store.refs sub)

(* --- a Blob header's body bound --- *)

(* the header frame of a Blob whose body is [size] bytes *)
let blob_header size =
  let b = Buffer.create 64 in
  Codec.put_u8 b 6;
  Codec.put_str b head_digest;
  Codec.put_u32 b size;
  Codec.frame ~magic:"KFR1" (Buffer.contents b)

(* a lying header cannot make a receiver wait for, and buffer, more than
   one frame may hold *)
let test_body_bound () =
  (match Wire.decode (blob_header (Codec.max_payload + 1)) ~pos:0 with
  | Error (`Fail e) ->
    Alcotest.(check string) "typed at once, without the body"
      (Printf.sprintf "bad body length %d" (Codec.max_payload + 1))
      e.Codec.reason
  | Error `Incomplete -> Alcotest.fail "an oversized body is awaited"
  | Ok _ -> Alcotest.fail "an oversized body decodes");
  Alcotest.(check bool) "a body at the bound is awaited" true
    (Wire.decode (blob_header Codec.max_payload) ~pos:0 = Error `Incomplete);
  Alcotest.(check bool) "a header and its body are a Blob" true
    (Wire.decode (blob_header 3 ^ "abc") ~pos:0
    = Ok (Wire.Blob { digest = head_digest; bytes = "abc" },
          String.length (blob_header 3) + 3))

(* --- the sessions of one repository share its Blob frames --- *)

(* one whole session from [pos] that wants everything it is advertised:
   every frame the server sends *)
let full_session repo pos =
  let s = Server.session repo in
  let greeting = hello s in
  let head = send s (Wire.Head { digest = pos }) in
  let entries =
    match decoded head with
    | [ Wire.Manifest entries ] -> entries
    | _ -> Alcotest.fail "no manifest"
  in
  let blobs = send s (Wire.Want (wanted entries)) in
  Alcotest.(check bool) "the session finished" true (Server.finished s);
  greeting @ head @ blobs

let blob_frames replies =
  List.filter
    (fun enc ->
      match Wire.decode enc ~pos:0 with
      | Ok (Wire.Blob _, _) -> true
      | _ -> false)
    replies

let test_shared_frames_are_the_sent_frames () =
  let kernel = Corpus.Base_kernel.tree () in
  let chain name =
    let repo = Repo.of_store (Store.create ~name ()) in
    let depth =
      List.length
        (Fixture.ok "publish chain" Format.pp_print_string
           (Corpus.Sweep.publish_chain repo kernel ~depth:4))
    in
    Alcotest.(check int) (name ^ ": chain depth") 4 depth;
    repo
  in
  let repo = chain "fleet-frames-a" and twin = chain "fleet-frames-b" in
  Alcotest.(check (list (pair string string)))
    "both repositories hold the same chain"
    (Store.refs (Repo.store repo)) (Store.refs (Repo.store twin));
  let base = Tree.digest kernel in
  let manifest =
    Fixture.ok "manifest" Repo.pp_error (Repo.manifest repo ~digest:base)
  in
  let positions =
    base :: List.map (fun (e : Repo.manifest_entry) -> e.me_next) manifest
  in
  let first = List.map (full_session repo) positions in
  let again = List.map (full_session repo) positions in
  let other = List.map (full_session twin) positions in
  List.iteri
    (fun k ((r1, r2), r3) ->
      let what = Printf.sprintf "position %d: " k in
      Alcotest.(check (list string)) (what ^ "second session") r1 r2;
      Alcotest.(check (list string)) (what ^ "second repository") r1 r3;
      (* the table hands out the first session's frames themselves; the
         second repository's session built its own *)
      Alcotest.(check bool) (what ^ "frames shared") true
        (List.for_all2 ( == ) (blob_frames r1) (blob_frames r2));
      Alcotest.(check bool) (what ^ "frames not shared across repositories")
        true
        (List.for_all2 ( != ) (blob_frames r1) (blob_frames r3));
      List.iter
        (fun (repo, replies) ->
          List.iter
            (fun enc ->
              match Wire.decode enc ~pos:0 with
              | Ok (Wire.Blob { digest; _ }, _) ->
                let bytes = Option.get (Store.get (Repo.store repo) digest) in
                Alcotest.(check string)
                  (what ^ "the frame of " ^ digest)
                  (Wire.encode (Wire.Blob { digest; bytes })) enc
              | _ -> ())
            replies)
        [ (repo, r2); (twin, r3) ])
    (List.combine (List.combine first again) other);
  Alcotest.(check int) "the base session is sent every blob"
    (List.length (wanted manifest))
    (List.length (blob_frames (List.hd first)))

(* --- the listener's stale-socket liveness probe --- *)

let tmp_socket_path () =
  let f = Filename.temp_file "ksplice-fleet" ".sock" in
  Sys.remove f;
  f

let test_listen_replaces_dead_socket () =
  (* a crashed server leaves its socket file behind; nobody accepts on
     it, so the liveness probe must let a new server take the path *)
  let path = tmp_socket_path () in
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.bind fd (ADDR_UNIX path);
  Unix.listen fd 1;
  Unix.close fd;
  Alcotest.(check bool) "stale socket file left behind" true
    (Sys.file_exists path);
  let repo = server_repo () in
  (match Server.listen ~socket_path:path ~max_sessions:0 repo with
  | Ok n -> Alcotest.(check int) "bound without serving" 0 n
  | Error e -> Alcotest.failf "listen refused a dead socket: %s" e);
  Alcotest.(check bool) "socket file cleaned up" false (Sys.file_exists path)

let test_listen_refuses_live_socket () =
  (* a second listener on a live path must fail without disturbing the
     first server — its probe connection shows up as one empty session *)
  let path = tmp_socket_path () in
  let repo = server_repo () in
  let server =
    Domain.spawn (fun () ->
        Server.listen ~socket_path:path ~max_sessions:2 ~recv_timeout:10. repo)
  in
  let deadline = Unix.gettimeofday () +. 10. in
  while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  (match Server.listen ~socket_path:path ~max_sessions:1 repo with
  | Ok _ -> Alcotest.fail "second listener stole a live socket"
  | Error e ->
    Alcotest.(check bool) "error names the conflict" true
      (String.length e > 0));
  (* the first server survived the probe: a real subscriber still syncs *)
  let sub = sub_store () in
  let r =
    Subscriber.sync ~store:sub ~base:base_digest
      ~connect:(fun _ ->
        match Transport.connect_unix ~recv_timeout:10. path with
        | tr -> Some tr
        | exception Unix.Unix_error _ -> None)
      ()
  in
  Alcotest.(check bool) "synced past the refused listener" true
    r.Subscriber.r_synced;
  (match Domain.join server with
  | Ok n -> Alcotest.(check int) "probe + sync sessions" 2 n
  | Error e -> Alcotest.failf "first server died: %s" e);
  check_mirror repo sub

let test_socketpair_roundtrip () =
  let repo = server_repo () in
  let client_end, server_end = Transport.pair ~recv_timeout:10. () in
  let server =
    Domain.spawn (fun () -> Server.serve_connection repo server_end)
  in
  let sub = sub_store () in
  let r =
    Subscriber.sync ~store:sub ~base:base_digest
      ~connect:(fun _ -> Some client_end)
      ()
  in
  let st = Domain.join server in
  Alcotest.(check bool) "synced over a real socketpair" true
    r.Subscriber.r_synced;
  Alcotest.(check bool) "server sent blobs" true (st.Server.blobs_sent > 0);
  check_mirror repo sub

(* a frame larger than one receive (the socket reader takes at most
   64 KiB) arrives in pieces and is reassembled whole, and the frame
   behind it still decodes *)
let test_large_frame_over_a_socket () =
  let a, b = Transport.pair ~recv_timeout:10. () in
  let big = String.init (1 lsl 20) (fun i -> Char.chr (i * 131 mod 251)) in
  let frames =
    [ Wire.Blob { digest = Store.digest_of_string big; bytes = big };
      Wire.Done { head = head_digest } ]
  in
  let sender =
    Domain.spawn (fun () -> List.map (Transport.send_frame a) frames)
  in
  let r = Transport.reader b in
  let received = List.map (fun _ -> Transport.recv_frame r) frames in
  List.iter
    (function
      | Ok () -> ()
      | Error e -> Alcotest.failf "send: %a" Transport.pp_recv_error e)
    (Domain.join sender);
  a.close ();
  b.close ();
  List.iter2
    (fun sent got ->
      match got with
      | Ok f ->
        Alcotest.(check bool)
          (Format.asprintf "%a arrives whole" Wire.pp_frame sent)
          true (f = sent)
      | Error e -> Alcotest.failf "recv: %a" Transport.pp_recv_error e)
    frames received

(* a subscriber that asks for everything and hangs up before reading a
   byte: the server's replies meet a closed socket, which must end the
   session with its stats, not kill the process with SIGPIPE *)
let test_hangup_ends_the_session () =
  let repo = server_repo () in
  let client_end, server_end = Transport.pair ~recv_timeout:10. () in
  let wants =
    wanted
      (Fixture.ok "manifest" Repo.pp_error
         (Repo.manifest repo ~digest:base_digest))
  in
  List.iter
    (fun f ->
      match Transport.send_frame client_end f with
      | Ok () -> ()
      | Error e -> Alcotest.failf "client send: %a" Transport.pp_recv_error e)
    [ Wire.Hello { version = Wire.version; peer = "hang-up" };
      Wire.Head { digest = base_digest };
      Wire.Want wants ];
  client_end.close ();
  let st =
    Domain.join
      (Domain.spawn (fun () -> Server.serve_connection repo server_end))
  in
  Alcotest.(check bool) "the server read the client's frames" true
    (st.Server.frames_in > 0);
  Alcotest.(check int) "and refused none" 0 st.errors

(* --- concurrent subscribers on one server --- *)

(* subscribers on pool domains share one server repository's store: each
   pre-seeded at its own chain position, each must end exactly where it
   ends when synced alone *)
let test_concurrent_subscribers () =
  let repo = Repo.of_store (Store.create ~name:"fleet-shared-server" ()) in
  let kernel = Corpus.Base_kernel.tree () in
  let depth =
    List.length
      (Fixture.ok "publish chain" Format.pp_print_string
         (Corpus.Sweep.publish_chain repo kernel ~depth:4))
  in
  Alcotest.(check int) "chain depth" 4 depth;
  let base = Tree.digest kernel in
  let manifest =
    Fixture.ok "manifest" Repo.pp_error (Repo.manifest repo ~digest:base)
  in
  let server = Repo.store repo in
  (* exactly the refs and blobs a prior sync up to entry [k] committed *)
  let preseed k =
    let sub = sub_store () in
    List.iteri
      (fun i (e : Repo.manifest_entry) ->
        if i < k then begin
          List.iter
            (fun d ->
              ignore (Store.put sub (Option.get (Store.get server d))
                : Store.digest))
            (e.me_blob :: List.map fst e.me_objects);
          Store.commit_refs sub
            [ (Repo.entry_ref e.me_base, e.me_blob);
              ("fleet:head", Store.put sub e.me_next) ]
        end)
      manifest;
    sub
  in
  let sync i =
    let sub = preseed (i mod (depth + 1)) in
    let r =
      Subscriber.sync ~id:(Printf.sprintf "sub-%d" i) ~store:sub ~base
        ~connect:(connect_sim repo) ()
    in
    let entries =
      List.filter
        (fun (name, _) -> String.starts_with ~prefix:"entry:" name)
        (Store.refs sub)
    in
    (r, entries, Subscriber.head sub ~base)
  in
  let subs = List.init 12 Fun.id in
  let serial = List.map sync subs in
  let concurrent = Parallel.map ~domains:2 sync subs in
  List.iteri
    (fun i ((rs, es, hs), (rc, ec, hc)) ->
      let what = Printf.sprintf "sub-%d: " i in
      Alcotest.(check bool) (what ^ "synced") true rc.Subscriber.r_synced;
      Alcotest.(check (list (pair string string))) (what ^ "entry refs") es ec;
      Alcotest.(check string) (what ^ "head") hs hc;
      Alcotest.(check int)
        (what ^ "bytes fetched") rs.Subscriber.r_bytes_fetched
        rc.Subscriber.r_bytes_fetched)
    (List.combine serial concurrent)

let suite =
  [
    ( "fleet",
      [
        qt prop_roundtrip;
        qt prop_truncation_total;
        qt prop_bitflip_total;
        qt prop_frame_in_a_stream;
        qt prop_short_payload_stays_in_frame;
        t "clean sync mirrors the chain" test_sync_clean;
        t "every fault kind recovers" test_sync_every_fault_kind;
        t "resume never re-downloads verified blobs"
          test_resume_never_redownloads;
        t "degraded mode serves the old head" test_degraded_serves_old_head;
        t "backoff is bounded-exponential with seeded jitter"
          test_backoff_shape;
        t "disk-backed resume across process handles"
          test_disk_resume_across_handles;
        t "listen replaces a dead socket file" test_listen_replaces_dead_socket;
        t "listen refuses a live socket" test_listen_refuses_live_socket;
        t "real socketpair round trip" test_socketpair_roundtrip;
        t "a subscriber hang-up ends the session, not the server"
          test_hangup_ends_the_session;
        t "a frame bigger than one receive crosses a socket whole"
          test_large_frame_over_a_socket;
        t "a corrupt entry never reaches a subscriber"
          test_corrupt_entry_refused;
        t "a blob that does not hash to its digest is never filed"
          test_mismatched_blob_never_filed;
        t "a bit flip in a blob body is refused by its digest"
          test_body_flip_refused_by_digest;
        t "blobs may arrive in any order" test_blobs_in_any_order;
        t "a want may name only what was advertised and is held"
          test_want_only_advertised_and_held;
        t "a v1 subscriber gets the version error"
          test_v1_subscriber_refused;
        t "a v1 server fails the subscriber before any want"
          test_v1_server_refused;
        t "a blob header naming a body above the bound fails at once"
          test_body_bound;
        t "shared frames are the frames a fresh session sends"
          test_shared_frames_are_the_sent_frames;
        t "concurrent subscribers share one server"
          test_concurrent_subscribers;
      ] );
  ]
