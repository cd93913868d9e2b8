(* Crash-safety tests: the injectable VFS fault driver, the one-file ref
   table and the open that sweeps temp debris, fsck, and mark-and-sweep
   GC. The sweeping tests enumerate every mutating I/O op of a scenario
   with a fault-free counting probe, then kill or fail the run at each
   one and assert the reopened store is fsck-clean and all-or-nothing. *)

module Tree = Patchfmt.Source_tree
module Diff = Patchfmt.Diff
module Repo = Ksplice.Repository
module Create = Ksplice.Create

let t name f = Alcotest.test_case name `Quick f

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* a fresh path that does not exist yet; cleaned up afterwards *)
let with_dir f =
  let dir = Filename.temp_file "ksplcrash" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f dir)

let is_prefix_of whole part =
  String.length part <= String.length whole
  && String.equal part (String.sub whole 0 (String.length part))

(* every *.tmp file in the store's root (where refs.tmp lands) and
   under blobs/ *)
let tmp_files dir =
  List.concat_map
    (fun sub ->
      let d = Filename.concat dir sub in
      if Sys.file_exists d && Sys.is_directory d then
        Array.to_list (Sys.readdir d)
        |> List.filter (fun e -> Filename.check_suffix e ".tmp")
        |> List.map (Filename.concat sub)
      else [])
    [ Filename.current_dir_name; "blobs" ]

(* --- the fault driver itself --- *)

let test_crash_poisons_all_io () =
  with_dir (fun dir ->
      Sys.mkdir dir 0o755;
      let vfs, inj =
        Vfs.inject { Vfs.at = 2; kind = Vfs.Crash; seed = 7 } Vfs.real
      in
      let f1 = Filename.concat dir "a" and f2 = Filename.concat dir "b" in
      vfs.Vfs.write_file f1 "hello";
      (match vfs.Vfs.write_file f2 "world" with
       | () -> Alcotest.fail "expected Crashed"
       | exception Vfs.Crashed -> ());
      Alcotest.(check bool) "fault fired" true (Vfs.fired inj);
      Alcotest.(check int) "two ops attempted" 2 (Vfs.ops inj);
      (* the process is gone: even reads refuse on this handle *)
      (match vfs.Vfs.read_file f1 with
       | _ -> Alcotest.fail "read after crash must refuse"
       | exception Vfs.Crashed -> ());
      (match vfs.Vfs.fsync f1 with
       | () -> Alcotest.fail "fsync after crash must refuse"
       | exception Vfs.Crashed -> ());
      (* the torn prefix landed on disk (a fresh handle sees it) *)
      Alcotest.(check bool) "torn file exists" true (Sys.file_exists f2);
      let torn = Vfs.real.Vfs.read_file f2 in
      Alcotest.(check bool) "a prefix landed" true (is_prefix_of "world" torn))

let test_enospc_is_one_shot () =
  with_dir (fun dir ->
      Sys.mkdir dir 0o755;
      let vfs, inj =
        Vfs.inject { Vfs.at = 1; kind = Vfs.Enospc; seed = 5 } Vfs.real
      in
      let f = Filename.concat dir "a" in
      (match vfs.Vfs.write_file f "contents" with
       | () -> Alcotest.fail "expected Io_error"
       | exception Vfs.Io_error { op = "write"; _ } -> ());
      Alcotest.(check bool) "fault fired" true (Vfs.fired inj);
      (* the run survives: the retry goes through in full *)
      vfs.Vfs.write_file f "contents";
      Alcotest.(check string) "retry lands whole" "contents"
        (vfs.Vfs.read_file f))

let test_torn_write_lies () =
  with_dir (fun dir ->
      Sys.mkdir dir 0o755;
      let vfs, inj =
        Vfs.inject { Vfs.at = 1; kind = Vfs.Torn; seed = 42 } Vfs.real
      in
      let f = Filename.concat dir "a" in
      (* reports success; only a prefix may have landed *)
      vfs.Vfs.write_file f "abcdefghij";
      Alcotest.(check bool) "fault fired" true (Vfs.fired inj);
      let got = Vfs.real.Vfs.read_file f in
      Alcotest.(check bool) "a prefix landed" true
        (is_prefix_of "abcdefghij" got))

(* --- atomic file landing: a failed put leaves no temp debris --- *)

let test_failed_put_leaves_no_tmp () =
  let scenario vfs dir =
    let s = Store.create ~name:"nospc" ~dir ~vfs () in
    ignore (Store.put s "payload bytes" : Store.digest)
  in
  let count =
    with_dir (fun dir ->
        let vfs, ops = Vfs.counting Vfs.real in
        scenario vfs dir;
        ops ())
  in
  Alcotest.(check bool) "probe saw ops" true (count > 0);
  for i = 1 to count do
    with_dir (fun dir ->
        let vfs, _ =
          Vfs.inject { Vfs.at = i; kind = Vfs.Enospc; seed = i } Vfs.real
        in
        (try scenario vfs dir with Vfs.Io_error _ -> ());
        if Sys.file_exists dir then begin
          (* the rename-or-unlink contract: never a stranded temp file *)
          Alcotest.(check (list string))
            (Printf.sprintf "no tmp debris after ENOSPC at op %d" i)
            [] (tmp_files dir);
          let s = Store.create ~name:"reopen" ~dir () in
          match Store.fsck s with
          | Ok _ -> ()
          | Error r ->
            Alcotest.failf "fsck dirty after ENOSPC at op %d: %a" i
              Store.pp_fsck_issue (List.hd r.Store.f_issues)
        end)
  done

let test_stray_tmp_swept_on_open () =
  with_dir (fun dir ->
      (let s = Store.create ~name:"w" ~dir () in
       ignore (Store.put s "a real blob" : Store.digest));
      (* a writer that died before its rename *)
      let stray = Filename.concat (Filename.concat dir "blobs") "dead.tmp" in
      Out_channel.with_open_bin stray (fun oc -> output_string oc "half");
      let s = Store.create ~name:"reboot" ~dir () in
      (match Store.recovery s with
       | Some r -> Alcotest.(check int) "one tmp swept" 1 r.Store.tmp_removed
       | None -> Alcotest.fail "expected a recovery report");
      Alcotest.(check bool) "stray gone" false (Sys.file_exists stray);
      match Store.fsck s with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "fsck dirty after tmp sweep")

let test_mkdir_failure_is_typed () =
  with_dir (fun dir ->
      Sys.mkdir dir 0o755;
      let file = Filename.concat dir "plain" in
      Out_channel.with_open_bin file (fun oc -> output_string oc "x");
      (* the store root would have to live under a regular file *)
      let sub = Filename.concat file "store" in
      (match Store.create ~name:"bad" ~dir:sub () with
       | exception Vfs.Io_error _ -> ()
       | _ -> Alcotest.fail "expected a typed Io_error from create");
      match Repo.open_dir sub with
      | Error (Repo.Io_failure _) -> ()
      | Error e -> Alcotest.failf "unexpected error: %a" Repo.pp_error e
      | Ok _ -> Alcotest.fail "expected Io_failure from open_dir")

(* --- the ref table --- *)

let refs_of s = (Store.find_ref s "r1", Store.find_ref s "r2")

(* A store holding r1 -> "blob zero" takes a commit that moves r1 and
   adds r2. Killed at any op of it, a reopen finds the old refs or the
   new ones; failed by ENOSPC at any op, the handle keeps the old refs
   and a reopen reads them too. A lying disk (a torn write reported as
   done) may cost the commit or damage the table, but the handle and a
   reopen agree on the old refs or the new ones, or a reopen refuses the
   table and fsck names it: never a half-moved table, never an empty
   one. *)
let test_commit_refs_all_or_nothing () =
  let old = (Some (Store.digest_of_string "blob zero"), None)
  and moved =
    ( Some (Store.digest_of_string "blob one"),
      Some (Store.digest_of_string "blob two") )
  in
  let setup dir =
    let s = Store.create ~name:"w" ~dir () in
    Store.commit_refs s [ ("r1", Store.put s "blob zero") ]
  in
  let step s =
    let d1 = Store.put s "blob one" in
    let d2 = Store.put s "blob two" in
    Store.commit_refs s [ ("r1", d1); ("r2", d2) ]
  in
  let reopen dir ~what =
    let s = Store.create ~name:"reboot" ~dir () in
    (match Store.fsck s with
     | Ok _ -> ()
     | Error r ->
       Alcotest.failf "fsck dirty after %s: %a" what Store.pp_fsck_issue
         (List.hd r.Store.f_issues));
    refs_of s
  in
  let count =
    with_dir (fun dir ->
        setup dir;
        let vfs, ops = Vfs.counting Vfs.real in
        step (Store.create ~name:"txn" ~dir ~vfs ());
        ops ())
  in
  Alcotest.(check int) "two blob puts and one table write" 12 count;
  (* the step with [kind] at op [i], then [check dir handle outcome] *)
  let faulted kind i check =
    with_dir (fun dir ->
        setup dir;
        let vfs, inj =
          Vfs.inject { Vfs.at = i; kind; seed = 17 * i } Vfs.real
        in
        let s = Store.create ~name:"txn" ~dir ~vfs () in
        let outcome = match step s with () -> None | exception e -> Some e in
        Alcotest.(check bool) "fault fired" true (Vfs.fired inj);
        check dir s outcome)
  in
  for i = 1 to count do
    let what = Printf.sprintf "a crash at op %d" i in
    faulted Vfs.Crash i (fun dir _ outcome ->
        if outcome <> Some Vfs.Crashed then
          Alcotest.failf "%s did not kill the run" what;
        let r = reopen dir ~what in
        if r <> old && r <> moved then
          Alcotest.failf "torn ref flip survived %s" what);
    let what = Printf.sprintf "ENOSPC at op %d" i in
    faulted Vfs.Enospc i (fun dir s outcome ->
        (match outcome with
         | Some (Vfs.Io_error _) -> ()
         | _ -> Alcotest.failf "%s was not reported as Io_error" what);
        Alcotest.(check (list string))
          (what ^ ": no tmp debris") [] (tmp_files dir);
        if refs_of s <> old then
          Alcotest.failf "the handle moved a ref after %s" what;
        if reopen dir ~what <> old then
          Alcotest.failf "a reopen read moved refs after %s" what);
    let what = Printf.sprintf "a torn op %d" i in
    faulted Vfs.Torn i (fun dir s outcome ->
        if outcome <> None then Alcotest.failf "%s was reported" what;
        match Store.create ~name:"reboot" ~dir () with
        | exception Vfs.Io_error { path; _ } -> (
          Alcotest.(check string) (what ^ ": names the table")
            (Filename.concat dir "refs") path;
          let check = Store.create ~name:"check" ~dir ~recover:false () in
          match Store.fsck check with
          | Error r
            when List.exists
                   (function Store.Damaged_refs _ -> true | _ -> false)
                   r.Store.f_issues -> ()
          | _ -> Alcotest.failf "fsck missed the table damaged by %s" what)
        | r ->
          let r = refs_of r in
          if r <> old && r <> moved then
            Alcotest.failf "torn ref flip survived %s" what;
          if refs_of s <> r then
            Alcotest.failf "the handle and a reopen disagree after %s" what)
  done

(* a ref table one byte short: a recovering open refuses it; a
   read-only open reports it, and neither writes over it nor collects
   without its roots *)
let test_damaged_table_refused () =
  with_dir (fun dir ->
      let d =
        let s = Store.create ~name:"w" ~dir () in
        let d = Store.put s "a blob" in
        Store.commit_refs s [ ("head", d) ];
        d
      in
      let path = Filename.concat dir "refs" in
      let read () = In_channel.with_open_bin path In_channel.input_all in
      let good = read () in
      let damaged = String.sub good 0 (String.length good - 1) in
      Out_channel.with_open_bin path (fun oc -> output_string oc damaged);
      (match Store.create ~name:"reboot" ~dir () with
       | exception Vfs.Io_error { path = p; _ } ->
         Alcotest.(check string) "names the table" path p
       | _ -> Alcotest.fail "a recovering open accepted a damaged table");
      (match Repo.open_dir dir with
       | Error (Repo.Io_failure _) -> ()
       | Error e -> Alcotest.failf "unexpected error: %a" Repo.pp_error e
       | Ok _ -> Alcotest.fail "open_dir accepted a damaged table");
      let s = Store.create ~name:"check" ~dir ~recover:false () in
      (match Store.fsck s with
       | Error { Store.f_issues = [ Store.Damaged_refs _ ]; _ } -> ()
       | Error r ->
         Alcotest.failf "fsck reported %a" Store.pp_fsck_issue
           (List.hd r.Store.f_issues)
       | Ok _ -> Alcotest.fail "fsck passed a damaged table");
      (match Store.commit_refs s [ ("head", d) ] with
       | exception Vfs.Io_error _ -> ()
       | () -> Alcotest.fail "a commit replaced a damaged table");
      (match Store.gc s with
       | Error _ -> ()
       | Ok _ -> Alcotest.fail "gc collected without its ref roots");
      Alcotest.(check string) "the damaged bytes are untouched" damaged
        (read ()))

(* --- repository-level scenarios --- *)

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

let tree1 =
  Tree.add base_tree "kernel/k.c"
    "int level = 1;\n\
     int probe(int x) {\n\
    \  int acc = 0;\n\
    \  int i;\n\
    \  for (i = 0; i < x; i = i + 1)\n\
    \    acc = acc + level + 1;\n\
    \  return acc;\n\
     }\n"

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

let publish_hop ?vfs dir =
  let repo =
    match Repo.open_dir ?vfs dir with
    | Ok r -> r
    | Error e -> Alcotest.failf "open_dir: %a" Repo.pp_error e
  in
  let u = mk_update ~id:"hop-1" ~from:base_tree ~to_:tree1 in
  Repo.publish repo ~source:base_tree
    ~patch:(Diff.diff_trees base_tree tree1)
    ~update:u

let chain_ids repo =
  ok "pending" (Repo.pending repo ~digest:(Tree.digest base_tree))
  |> List.map (fun (e : Repo.entry) -> e.update.Ksplice.Update.update_id)

let test_enospc_mid_publish () =
  with_dir (fun dir ->
      (* op 8 lands inside the entry's blob puts: after the two mkdirs
         and the first four-op atomic write, before the ref table write *)
      let vfs, inj =
        Vfs.inject { Vfs.at = 8; kind = Vfs.Enospc; seed = 3 } Vfs.real
      in
      (match publish_hop ~vfs dir with
       | Error (Repo.Io_failure _) -> ()
       | Ok _ -> Alcotest.fail "expected Io_failure"
       | Error e -> Alcotest.failf "unexpected error: %a" Repo.pp_error e);
      Alcotest.(check bool) "fault fired" true (Vfs.fired inj);
      let repo = ok "reopen" (Repo.open_dir dir) in
      (match Repo.fsck repo with
       | Ok _ -> ()
       | Error _ -> Alcotest.fail "fsck dirty after failed publish");
      Alcotest.(check (list string)) "nothing published" [] (chain_ids repo))

let test_gc_reclaims_only_unreachable () =
  with_dir (fun dir ->
      ignore (ok "publish" (publish_hop dir) : Repo.entry);
      let repo = ok "open" (Repo.open_dir dir) in
      let store = Repo.store repo in
      let orphans =
        List.map (Store.put store)
          [ "garbage one"; "garbage two"; "garbage three" ]
      in
      let g =
        match Repo.gc repo with
        | Ok g -> g
        | Error e -> Alcotest.failf "gc: %a" Repo.pp_error e
      in
      Alcotest.(check int) "three orphans swept" 3 g.Store.gc_swept;
      Alcotest.(check bool) "bytes reclaimed" true (g.Store.gc_bytes > 0);
      List.iter
        (fun d ->
          Alcotest.(check bool) "orphan gone" false (Store.mem store d))
        orphans;
      (* the chain still decodes end-to-end from what GC kept *)
      Alcotest.(check (list string)) "chain intact" [ "hop-1" ]
        (chain_ids repo);
      match Repo.fsck repo with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "fsck dirty after gc")

let test_txn_pins_survive_gc () =
  with_dir (fun dir ->
      let s = Store.create ~name:"pin" ~dir () in
      let d = ref "" in
      Store.with_txn s (fun () ->
          (* an in-flight publish: interned but not yet referenced *)
          d := Store.put s "in-flight publish blob";
          match Store.gc s with
          | Ok g ->
            Alcotest.(check int) "pinned as a root" 1 g.Store.gc_pinned;
            Alcotest.(check int) "nothing swept" 0 g.Store.gc_swept
          | Error m -> Alcotest.failf "gc inside txn: %s" m);
      Alcotest.(check bool) "survived the racing gc" true (Store.mem s !d);
      (* transaction over, still unreferenced: now it is garbage *)
      match Store.gc s with
      | Ok g -> Alcotest.(check int) "collected after txn" 1 g.Store.gc_swept
      | Error m -> Alcotest.failf "gc after txn: %s" m)

let test_fsck_detects_corrupt_blob () =
  with_dir (fun dir ->
      let d =
        let s = Store.create ~name:"w" ~dir () in
        let d = Store.put s "precious bytes" in
        Store.commit_refs s [ ("head", d) ];
        d
      in
      let path = Filename.concat (Filename.concat dir "blobs") d in
      let raw = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc ("X" ^ String.sub raw 1 (String.length raw - 1)));
      let s = Store.create ~name:"check" ~dir () in
      match Store.fsck s with
      | Ok _ -> Alcotest.fail "fsck missed a corrupt blob"
      | Error r ->
        Alcotest.(check bool) "reports the corruption" true
          (List.exists
             (function Store.Corrupt_blob _ -> true | _ -> false)
             r.Store.f_issues))

(* --- the property: a publish crashed at ANY I/O op recovers clean --- *)

let publish_op_count =
  lazy
    (with_dir (fun dir ->
         let vfs, ops = Vfs.counting Vfs.real in
         (match publish_hop ~vfs dir with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "probe publish: %a" Repo.pp_error e);
         ops ()))

let prop_crash_recovers_all_or_nothing =
  QCheck2.Test.make
    ~name:"publish crashed at any I/O op recovers fsck-clean, all-or-nothing"
    ~count:30
    QCheck2.Gen.(pair (int_range 1 10_000) (int_range 0 10_000))
    (fun (at0, seed) ->
      let n = Lazy.force publish_op_count in
      let at = 1 + (at0 mod n) in
      with_dir (fun dir ->
          let vfs, _ =
            Vfs.inject { Vfs.at = at; kind = Vfs.Crash; seed } Vfs.real
          in
          (match publish_hop ~vfs dir with
           | exception Vfs.Crashed -> ()
           | Ok _ | Error _ -> ());
          (* crash before the first mkdir leaves nothing to check *)
          (not (Sys.file_exists dir))
          ||
          let repo =
            match Repo.open_dir dir with
            | Ok r -> r
            | Error e ->
              Alcotest.failf "reopen after crash at op %d: %a" at
                Repo.pp_error e
          in
          let clean =
            match Repo.fsck repo with Ok _ -> true | Error _ -> false
          in
          let chain = chain_ids repo in
          clean && (chain = [] || chain = [ "hop-1" ])))

let suite =
  [
    ( "crash",
      [
        t "crash poisons all I/O" test_crash_poisons_all_io;
        t "ENOSPC is one-shot" test_enospc_is_one_shot;
        t "torn write lies" test_torn_write_lies;
        t "failed put leaves no tmp" test_failed_put_leaves_no_tmp;
        t "stray tmp swept on open" test_stray_tmp_swept_on_open;
        t "mkdir failure is typed" test_mkdir_failure_is_typed;
        t "commit_refs is all-or-nothing" test_commit_refs_all_or_nothing;
        t "damaged ref table refused" test_damaged_table_refused;
        t "ENOSPC mid-publish" test_enospc_mid_publish;
        t "gc reclaims only unreachable" test_gc_reclaims_only_unreachable;
        t "txn pins survive gc" test_txn_pins_survive_gc;
        t "fsck detects a corrupt blob" test_fsck_detects_corrupt_blob;
        QCheck_alcotest.to_alcotest prop_crash_recovers_all_or_nothing;
      ] );
  ]
