(* Tests for the update-distribution repository (§8 future work):
   publishing chained updates, pending computation, a subscriber syncing
   a live kernel through multiple hops, and graceful degradation when an
   entry blob is truncated or bit-flipped on disk. *)

module Tree = Patchfmt.Source_tree
module Diff = Patchfmt.Diff
module Repo = Ksplice.Repository
module Apply = Ksplice.Apply
module Create = Ksplice.Create
module Image = Klink.Image
module Machine = Kernel.Machine

let t name f = Alcotest.test_case name `Quick f

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
  | Ok c -> c.update
  | Error e -> Alcotest.failf "create %s: %a" id Create.pp_error e

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %a" what Repo.pp_error e

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_repo f =
  let dir = Filename.temp_file "ksplrepo" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f dir (ok "open_dir" (Repo.open_dir dir)))

(* three successive source states *)
let tree1 =
  edit base_tree
    (Fixture.replace "acc = acc + level;" "acc = acc + level + 1;")

let tree2 =
  edit tree1 (Fixture.replace "int level = 1;" "int level = 1;\nint spare;")

let publish_chain repo =
  let u1 = mk_update ~id:"hop-1" ~from:base_tree ~to_:tree1 in
  let u2 = mk_update ~id:"hop-2" ~from:tree1 ~to_:tree2 in
  let e1 =
    ok "publish hop-1"
      (Repo.publish repo ~source:base_tree
         ~patch:(Diff.diff_trees base_tree tree1) ~update:u1)
  in
  let e2 =
    ok "publish hop-2"
      (Repo.publish repo ~source:tree1 ~patch:(Diff.diff_trees tree1 tree2)
         ~update:u2)
  in
  (e1, e2)

let pending repo ~digest = ok "pending" (Repo.pending repo ~digest)

let test_publish_and_pending () =
  with_repo (fun _dir repo ->
      let e1, e2 = publish_chain repo in
      Alcotest.(check string) "chain links" e1.next_digest e2.base_digest;
      let chain = pending repo ~digest:(Tree.digest base_tree) in
      Alcotest.(check (list string))
        "two pending from base" [ "hop-1"; "hop-2" ]
        (List.map (fun (e : Repo.entry) -> e.update.Ksplice.Update.update_id) chain);
      Alcotest.(check int)
        "one pending from tree1" 1
        (List.length (pending repo ~digest:(Tree.digest tree1)));
      Alcotest.(check int)
        "up to date at tree2" 0
        (List.length (pending repo ~digest:(Tree.digest tree2))))

(* A memory-only store is a supported home for a repository (a fleet
   subscriber's mirror): however many blobs it comes to hold, a
   published entry stays pending. *)
let test_memory_only_keeps_entries () =
  let repo = Repo.of_store (Store.create ~name:"memory-repo" ()) in
  let u = mk_update ~id:"hop-1" ~from:base_tree ~to_:tree1 in
  ignore
    (ok "publish"
       (Repo.publish repo ~source:base_tree
          ~patch:(Diff.diff_trees base_tree tree1) ~update:u)
      : Repo.entry);
  for i = 1 to 1024 do
    ignore (Store.put (Repo.store repo) (Printf.sprintf "blob %d" i)
      : Store.digest)
  done;
  Alcotest.(check (list string))
    "entry still pending" [ "hop-1" ]
    (List.map
       (fun (e : Repo.entry) -> e.update.Ksplice.Update.update_id)
       (pending repo ~digest:(Tree.digest base_tree)))

let test_duplicate_publish_rejected () =
  with_repo (fun _dir repo ->
      let _ = publish_chain repo in
      let u = mk_update ~id:"dup" ~from:base_tree ~to_:tree1 in
      match
        Repo.publish repo ~source:base_tree
          ~patch:(Diff.diff_trees base_tree tree1) ~update:u
      with
      | Error (Repo.Already_published d) ->
        Alcotest.(check string) "names the digest" (Tree.digest base_tree) d
      | Ok _ -> Alcotest.fail "expected Already_published"
      | Error e -> Alcotest.failf "unexpected error: %a" Repo.pp_error e)

let boot_base () =
  let build = Fixture.build ~options:Minic.Driver.run_build base_tree in
  let img = Fixture.link ~base:0x100000 (Kbuild.objects build) in
  let m = Machine.create img in
  let mgr = Apply.init m in
  let call () =
    let sym = Option.get (Image.lookup_global img "probe") in
    match Machine.call_function m ~addr:sym.addr ~args:[ 4l ] with
    | Ok v -> v
    | Error f -> Alcotest.failf "probe: %a" Machine.pp_fault f
  in
  (mgr, call)

let test_subscriber_sync () =
  with_repo (fun _dir repo ->
      let _ = publish_chain repo in
      (* boot a kernel from the base source and subscribe *)
      let mgr, call = boot_base () in
      Alcotest.(check int32) "before sync" 4l (call ());
      (match Repo.sync repo mgr ~source:base_tree with
       | Ok r ->
         Alcotest.(check (list string))
           "both hops applied" [ "hop-1"; "hop-2" ]
           r.applied;
         Alcotest.(check string) "source advanced"
           (Tree.digest tree2)
           (Tree.digest r.new_source)
       | Error e -> Alcotest.failf "sync: %a" Repo.pp_error e);
      (* hop-1 changed the loop body: probe(4) = 4 * (level+1) = 8 *)
      Alcotest.(check int32) "after sync" 8l (call ());
      (* second sync is a no-op *)
      match Repo.sync repo mgr ~source:tree2 with
      | Ok { applied = []; _ } -> ()
      | Ok _ -> Alcotest.fail "expected no pending updates"
      | Error e -> Alcotest.failf "sync: %a" Repo.pp_error e)

(* fsck's open: read-only inspection of a path that holds no repository
   is an error, and leaves the path as it found it *)
let test_read_only_open_creates_nothing () =
  let dir = Filename.temp_file "ksplrepo" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () ->
      (match Repo.open_dir ~recover:false dir with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "a read-only open of a missing path succeeded");
      Alcotest.(check bool) "the path is still absent" false
        (Sys.file_exists dir))

let test_entry_roundtrip_on_disk () =
  with_repo (fun dir repo ->
      let e1, _ = publish_chain repo in
      (* a fresh handle must read back the same chain from disk alone *)
      let repo2 = ok "reopen" (Repo.open_dir dir) in
      let chain = pending repo2 ~digest:e1.base_digest in
      Alcotest.(check int) "read back" 2 (List.length chain);
      let e = List.hd chain in
      Alcotest.(check string) "patch preserved" e.patch_text e1.patch_text)

(* --- corruption regression tests ---

   The entry for a source state is a content-addressed blob; reading
   re-digests it, so damage on disk must surface as Corrupt_entry (never
   a parse crash) and sync must leave the machine untouched. *)

let entry_blob_path dir repo base_digest =
  let blob =
    match Store.find_ref (Repo.store repo) ("entry:" ^ base_digest) with
    | Some d -> d
    | None -> Alcotest.fail "published entry has no ref"
  in
  Filename.concat (Filename.concat dir "blobs") blob

let slurp path = In_channel.with_open_bin path In_channel.input_all

let spit path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let check_degrades_gracefully dir ~base_digest =
  (* a fresh handle starts with empty tables, so it reads the damaged
     disk, like a separate process would *)
  let repo2 = ok "reopen" (Repo.open_dir dir) in
  (match Repo.pending repo2 ~digest:base_digest with
  | Error (Repo.Corrupt_entry { digest; _ }) ->
    Alcotest.(check string) "corruption names the entry" base_digest digest
  | Ok _ -> Alcotest.fail "expected Corrupt_entry from pending"
  | Error e -> Alcotest.failf "unexpected error: %a" Repo.pp_error e);
  (* sync verifies the chain before applying anything *)
  let mgr, call = boot_base () in
  (match Repo.sync repo2 mgr ~source:base_tree with
  | Error (Repo.Corrupt_entry _) -> ()
  | Ok _ -> Alcotest.fail "expected Corrupt_entry from sync"
  | Error e -> Alcotest.failf "unexpected error: %a" Repo.pp_error e);
  Alcotest.(check int32) "machine untouched" 4l (call ())

let test_truncated_entry () =
  with_repo (fun dir repo ->
      let e1, _ = publish_chain repo in
      let path = entry_blob_path dir repo e1.base_digest in
      let raw = slurp path in
      spit path (String.sub raw 0 (String.length raw / 2));
      check_degrades_gracefully dir ~base_digest:e1.base_digest)

let test_bitflipped_entry () =
  with_repo (fun dir repo ->
      let e1, _ = publish_chain repo in
      let path = entry_blob_path dir repo e1.base_digest in
      let raw = Bytes.of_string (slurp path) in
      let i = Bytes.length raw / 2 in
      Bytes.set raw i (Char.chr (Char.code (Bytes.get raw i) lxor 0x40));
      spit path (Bytes.to_string raw);
      check_degrades_gracefully dir ~base_digest:e1.base_digest)

(* --- cumulative entries: one-hop atomic replace beside the chain --- *)

let collapse repo =
  ok "collapse"
    (Repo.publish_cumulative repo ~source:base_tree ~update_id:"cum-1"
       ~description:"collapse of hop-1 and hop-2")

let test_publish_cumulative () =
  with_repo (fun _dir repo ->
      let _ = publish_chain repo in
      let e = collapse repo in
      Alcotest.(check (list string))
        "supersedes the chain, oldest first" [ "hop-1"; "hop-2" ]
        e.update.Ksplice.Update.supersedes;
      Alcotest.(check string) "one hop to the chain head"
        (Tree.digest tree2) e.next_digest;
      (* the per-update chain stays intact for mid-chain subscribers *)
      Alcotest.(check int) "chain preserved" 2
        (List.length (pending repo ~digest:(Tree.digest base_tree)));
      (match
         Repo.publish_cumulative repo ~source:base_tree ~update_id:"cum-2"
           ~description:"again"
       with
      | Error (Repo.Already_published d) ->
        Alcotest.(check string) "names the digest" (Tree.digest base_tree) d
      | Ok _ -> Alcotest.fail "expected Already_published"
      | Error e -> Alcotest.failf "unexpected error: %a" Repo.pp_error e);
      (* nothing pending at the head: nothing to collapse *)
      match
        Repo.publish_cumulative repo ~source:tree2 ~update_id:"cum-3"
          ~description:"empty"
      with
      | Error (Repo.Patch_rejected _) -> ()
      | Ok _ -> Alcotest.fail "expected Patch_rejected"
      | Error e -> Alcotest.failf "unexpected error: %a" Repo.pp_error e)

let test_collapse_keeps_creation_state_out () =
  (* building the cumulative update interns unit objects and caches unit
     diffs: none of that may become a repository root or garbage *)
  with_repo (fun _dir repo ->
      let _ = publish_chain repo in
      let _ = collapse repo in
      List.iter
        (fun (name, _) ->
          Alcotest.(check bool) (name ^ " names an entry") true
            (String.starts_with ~prefix:"entry:" name
            || String.starts_with ~prefix:"cumulative:" name))
        (Store.refs (Repo.store repo));
      match Repo.gc repo with
      | Ok g -> Alcotest.(check int) "gc sweeps nothing" 0 g.Store.gc_swept
      | Error e -> Alcotest.failf "gc: %a" Repo.pp_error e)

let test_sync_prefers_cumulative () =
  with_repo (fun _dir repo ->
      let _ = publish_chain repo in
      let _ = collapse repo in
      let mgr, call = boot_base () in
      Alcotest.(check int32) "before sync" 4l (call ());
      (match Repo.sync repo mgr ~source:base_tree with
       | Ok r ->
         Alcotest.(check (list string))
           "one cumulative hop instead of the walk" [ "cum-1" ] r.applied;
         Alcotest.(check string) "source advanced to the head"
           (Tree.digest tree2)
           (Tree.digest r.new_source)
       | Error e -> Alcotest.failf "sync: %a" Repo.pp_error e);
      Alcotest.(check int32) "patched" 8l (call ());
      (* fsck covers the cumulative ref alongside the chain *)
      match Repo.fsck repo with
      | Ok r -> Alcotest.(check int) "three entries checked" 3 r.entries_checked
      | Error _ -> Alcotest.fail "fsck of a healthy repository failed")

let test_corrupt_cumulative_degrades () =
  with_repo (fun dir repo ->
      let _ = publish_chain repo in
      let e = collapse repo in
      let blob =
        match
          Store.find_ref (Repo.store repo) ("cumulative:" ^ e.base_digest)
        with
        | Some d -> d
        | None -> Alcotest.fail "collapse has no cumulative ref"
      in
      let path = Filename.concat (Filename.concat dir "blobs") blob in
      let raw = slurp path in
      spit path (String.sub raw 0 (String.length raw / 2));
      let repo2 = ok "reopen" (Repo.open_dir dir) in
      (* the damage surfaces as a typed error, and the machine under a
         syncing manager is never touched *)
      let mgr, call = boot_base () in
      (match Repo.sync repo2 mgr ~source:base_tree with
      | Error (Repo.Corrupt_entry _) -> ()
      | Ok _ -> Alcotest.fail "expected Corrupt_entry from sync"
      | Error e -> Alcotest.failf "unexpected error: %a" Repo.pp_error e);
      Alcotest.(check int32) "machine untouched" 4l (call ());
      match Repo.fsck repo2 with
      | Ok _ -> Alcotest.fail "fsck missed the corrupt cumulative entry"
      | Error r ->
        Alcotest.(check bool) "fsck names the entry" true
          (List.exists (fun (d, _) -> String.equal d e.base_digest)
             r.corrupt_entries))

let suite =
  [
    ( "repository",
      [
        t "publish and pending" test_publish_and_pending;
        t "memory-only repository keeps its entries"
          test_memory_only_keeps_entries;
        t "duplicate publish rejected" test_duplicate_publish_rejected;
        t "subscriber sync" test_subscriber_sync;
        t "entry roundtrip" test_entry_roundtrip_on_disk;
        t "read-only open of a missing path creates nothing"
          test_read_only_open_creates_nothing;
        t "truncated entry degrades gracefully" test_truncated_entry;
        t "bit-flipped entry degrades gracefully" test_bitflipped_entry;
        t "publish cumulative" test_publish_cumulative;
        t "collapse writes only entries to the repository"
          test_collapse_keeps_creation_state_out;
        t "sync prefers the cumulative hop" test_sync_prefers_cumulative;
        t "corrupt cumulative degrades gracefully"
          test_corrupt_cumulative_degrades;
      ] );
  ]
