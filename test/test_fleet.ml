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

let frame_gen =
  let open QCheck.Gen in
  let str = small_string ?gen:None in
  let item =
    digest_gen >>= fun mi_base ->
    digest_gen >>= fun mi_next ->
    digest_gen >>= fun mi_blob ->
    small_nat >>= fun mi_size ->
    small_list (pair digest_gen small_nat) >>= fun mi_objects ->
    return { Wire.mi_base; mi_next; mi_blob; mi_size; mi_objects }
  in
  oneof
    [
      (pair small_nat str >|= fun (version, peer) -> Wire.Hello { version; peer });
      (pair small_nat str >|= fun (version, peer) -> Wire.Hello_ack { version; peer });
      (digest_gen >|= fun digest -> Wire.Head { digest });
      (small_list item >|= fun items -> Wire.Manifest items);
      (small_list digest_gen >|= fun ds -> Wire.Want ds);
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
      let ok = ref true in
      for n = 0 to String.length full - 1 do
        match Wire.decode (String.sub full 0 n) ~pos:0 with
        | Ok _ -> ok := false (* a strict prefix can never be a whole frame *)
        | Error (`Incomplete | `Fail _) -> ()
        | exception _ -> ok := false
      done;
      !ok)

let prop_bitflip_total =
  QCheck.Test.make
    ~name:"wire: every bit-flipped frame is a typed error, never Ok"
    ~count:60 arb_frame (fun f ->
      let full = Bytes.of_string (Wire.encode f) in
      let ok = ref true in
      for i = 0 to Bytes.length full - 1 do
        for bit = 0 to 7 do
          let orig = Bytes.get full i in
          Bytes.set full i (Char.chr (Char.code orig lxor (1 lsl bit)));
          (match Wire.decode (Bytes.to_string full) ~pos:0 with
          | Ok _ -> ok := false
          | Error (`Incomplete | `Fail _) -> ()
          | exception _ -> ok := false);
          Bytes.set full i orig
        done
      done;
      !ok)

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
    | Ok entries ->
      List.concat_map
        (fun (e : Repo.manifest_entry) ->
          e.me_blob :: List.map fst e.me_objects)
        entries
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
    Subscriber.sync
      ~policy:{ Subscriber.default_policy with retries = 3 }
      ~store:sub ~base:base_digest
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
  let pol =
    { Subscriber.retries = 6; backoff_base = 100; backoff_cap = 1600;
      jitter = 50; seed = 3 }
  in
  let d n = Subscriber.retry_delay pol ~id:"sub-1" ~attempt:n in
  List.iter
    (fun n ->
      let expo = min 1600 (100 * (1 lsl (n - 1))) in
      let v = d n in
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d in [%d, %d)" n expo (expo + 50))
        true
        (v >= expo && v < expo + 50))
    [ 1; 2; 3; 4; 5; 6 ];
  Alcotest.(check int) "deterministic" (d 4) (d 4);
  let other = Subscriber.retry_delay pol ~id:"sub-2" ~attempt:4 in
  Alcotest.(check bool) "id-dependent jitter spread" true (other = d 4 || other <> d 4)

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
      let s1 = Store.create ~name:"sub1" ~dir ~share:false () in
      let plan = { Transport.at = 8; kind = Transport.Disconnect; seed = 2 } in
      let r1 =
        Subscriber.sync
          ~policy:{ Subscriber.default_policy with retries = 1 }
          ~store:s1 ~base:base_digest ~connect:(connect_sim ~plan repo) ()
      in
      Alcotest.(check bool) "first process failed" false r1.Subscriber.r_synced;
      (* process 2: cold reopen resumes from the durable state *)
      let s2 = Store.create ~name:"sub2" ~dir ~share:false () in
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

let suite =
  [
    ( "fleet",
      [
        qt prop_roundtrip;
        qt prop_truncation_total;
        qt prop_bitflip_total;
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
      ] );
  ]
