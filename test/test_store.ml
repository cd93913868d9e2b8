(* Tests for the content-addressed artifact store (lib/store): blob
   round-trips in memory and through a directory reopened cold, the
   on-disk copy's re-digest corruption check, private handles, dedup
   accounting, and fingerprint determinism, down to the contents a
   repository publish leaves. *)

module Create = Ksplice.Create
module Repo = Ksplice.Repository

let t name f = Alcotest.test_case name `Quick f

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let dir = Filename.temp_file "ksplstore" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f dir)

let gen_blobs =
  QCheck2.Gen.(list_size (int_range 1 30) (string_size (int_range 0 200)))

(* get (put b) = b over arbitrary bytes, in memory and through a
   directory: a handle reopened on it finds every blob on disk alone *)
let prop_put_get =
  QCheck2.Test.make ~name:"get (put b) = b" ~count:100 gen_blobs (fun blobs ->
      let put_all s = List.map (fun b -> (Store.put s b, b)) blobs in
      let all_get s = List.for_all (fun (d, b) -> Store.get s d = Some b) in
      let mem = Store.create ~name:"prop" () in
      all_get mem (put_all mem)
      && with_dir (fun dir ->
             let digests = put_all (Store.create ~name:"prop" ~dir ()) in
             all_get (Store.create ~name:"prop-cold" ~dir ()) digests))

(* the on-disk tier round-trips across handles and rejects tampering *)
let prop_disk_roundtrip_and_tamper =
  QCheck2.Test.make ~name:"on-disk tier round-trips and rejects tampering"
    ~count:30
    QCheck2.Gen.(string_size (int_range 1 200))
    (fun blob ->
      with_dir (fun dir ->
          let d =
            let s = Store.create ~name:"w" ~dir () in
            Store.put s blob
          in
          (* fresh handle: the blob must come back from disk verbatim *)
          let s2 = Store.create ~name:"r" ~dir () in
          let roundtrips = Store.get s2 d = Some blob in
          (* flip one byte on disk; a third handle must refuse the blob *)
          let path = Filename.concat (Filename.concat dir "blobs") d in
          let raw = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
          let i = Bytes.length raw / 2 in
          Bytes.set raw i (Char.chr (Char.code (Bytes.get raw i) lxor 1));
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_bytes oc raw);
          let s3 = Store.create ~name:"r2" ~dir () in
          let rejected =
            match Store.load s3 d with
            | Error (`Corrupt _) -> true
            | Ok _ | Error `Missing -> false
          in
          let counted = (Store.stats s3).Store.corrupt = 1 in
          roundtrips && rejected && counted))

let test_dedup_accounting () =
  let s = Store.create ~name:"dedup" () in
  let blob = String.make 1000 'x' in
  let d1 = Store.put s blob in
  let d2 = Store.put s blob in
  Alcotest.(check string) "same digest" d1 d2;
  let st = Store.stats s in
  Alcotest.(check int) "puts" 2 st.Store.puts;
  Alcotest.(check int) "dedup hits" 1 st.Store.dedup_hits;
  Alcotest.(check int) "bytes put once" 1000 st.Store.bytes_put;
  Alcotest.(check int) "bytes saved" 1000 st.Store.bytes_deduped;
  (* the checked put counts like put, and a mismatch files and counts
     nothing *)
  let lie = blob ^ "y" in
  Alcotest.(check bool) "checked put of the bytes" true
    (Store.put_as s d1 blob);
  Alcotest.(check bool) "checked put of other bytes" false
    (Store.put_as s d1 lie);
  Alcotest.(check bool) "other bytes not filed" false
    (Store.mem s (Store.digest_of_string lie));
  Alcotest.(check (option string)) "digest keeps its bytes" (Some blob)
    (Store.get s d1);
  let st = Store.stats s in
  Alcotest.(check int) "puts" 3 st.Store.puts;
  Alcotest.(check int) "dedup hits" 2 st.Store.dedup_hits;
  Alcotest.(check int) "bytes still put once" 1000 st.Store.bytes_put

let test_lookup_counts () =
  let s = Store.create ~name:"counts" () in
  let d = Store.digest_of_string "v" in
  Alcotest.(check bool) "miss" true (Store.load s d = Error `Missing);
  ignore (Store.put s "v" : Store.digest);
  Alcotest.(check bool) "hit" true (Store.load s d = Ok "v");
  let st = Store.stats s in
  Alcotest.(check int) "one hit" 1 st.Store.hits;
  Alcotest.(check int) "one miss" 1 st.Store.misses

let test_fingerprint_order_independent () =
  let blobs = List.init 10 (fun i -> String.make (i + 1) (Char.chr (65 + i))) in
  let s1 = Store.create ~name:"f1" () in
  List.iter (fun b -> ignore (Store.put s1 b)) blobs;
  Store.commit_refs s1 [ ("head", Store.digest_of_string (List.hd blobs)) ];
  let s2 = Store.create ~name:"f2" () in
  List.iter (fun b -> ignore (Store.put s2 b)) (List.rev blobs);
  Store.commit_refs s2 [ ("head", Store.digest_of_string (List.hd blobs)) ];
  Alcotest.(check string)
    "same contents, any order -> same fingerprint" (Store.fingerprint s1)
    (Store.fingerprint s2);
  ignore (Store.put s2 "one more");
  Alcotest.(check bool)
    "different contents -> different fingerprint" false
    (String.equal (Store.fingerprint s1) (Store.fingerprint s2))

(* the first corpus CVE's update against the base kernel *)
let first_update =
  lazy
    (let base = Corpus.Base_kernel.tree () in
     let cve = List.hd Corpus.Cve.all in
     let patch = Corpus.Cve.hot_patch cve base in
     match
       Create.create
         { Create.source = base; patch; update_id = cve.id;
           description = cve.desc }
     with
     | Ok c -> (base, patch, c.Create.update)
     | Error e -> Alcotest.failf "create: %a" Create.pp_error e)

let publish_first repo =
  let source, patch, update = Lazy.force first_update in
  match Repo.publish repo ~source ~patch ~update with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "publish: %a" Repo.pp_error e

(* the same update published into two fresh memory repositories leaves
   byte-identical store contents *)
let test_store_contents_deterministic () =
  let run () =
    let s = Store.create ~name:"det" () in
    publish_first (Repo.of_store s);
    Store.fingerprint s
  in
  Alcotest.(check string) "identical runs, identical contents" (run ()) (run ())

(* a reopen reads the disk: with the first handle still live, a second
   one on the same directory sees damage done to a blob's file, rather
   than the good bytes the first handle holds in its table *)
let test_reopen_reads_disk () =
  with_dir (fun dir ->
      let a = Store.create ~name:"a" ~dir () in
      let d = Store.put a "good bytes" in
      Store.commit_refs a [ ("head", d) ];
      let path = Filename.concat (Filename.concat dir "blobs") d in
      Out_channel.with_open_bin path (fun oc -> output_string oc "bad bytes");
      let b = Store.create ~name:"b" ~dir () in
      Alcotest.(check (option string)) "the ref is on disk" (Some d)
        (Store.find_ref b "head");
      (match Store.load b d with
      | Error (`Corrupt _) -> ()
      | Ok _ -> Alcotest.fail "the reopen served bytes the disk does not hold"
      | Error `Missing -> Alcotest.fail "the reopen lost the blob");
      Alcotest.(check (option string))
        "the first handle still holds its own table" (Some "good bytes")
        (Store.get a d))

(* the ref table on disk is the one source of truth: handles opened on
   one directory, before or after each other's commits, see every
   commit, keep each other's refs when they commit, and a gc through
   any of them marks from all of them *)
let test_handles_share_refs () =
  with_dir (fun dir ->
      let refs = Alcotest.(list (pair string string)) in
      let g = Store.create ~name:"g" ~dir () in
      let a = Store.create ~name:"a" ~dir () in
      let b = Store.create ~name:"b" ~dir () in
      let x = Store.put b "x" in
      Store.commit_refs b [ ("x", x) ];
      Alcotest.(check (option string)) "a sees b's commit" (Some x)
        (Store.find_ref a "x");
      let y = Store.put a "y" in
      Store.commit_refs a [ ("y", y) ];
      Alcotest.check refs "a's commit keeps b's ref" [ ("x", x); ("y", y) ]
        (Store.refs b);
      let x' = Store.put b "x moved" in
      Store.commit_refs b [ ("x", x') ];
      Alcotest.(check (option string)) "a sees b move a ref it had read"
        (Some x') (Store.find_ref a "x");
      (match Store.gc g with
       | Ok r ->
         Alcotest.(check int) "only the old x is swept" 1 r.Store.gc_swept
       | Error m -> Alcotest.failf "gc: %s" m);
      let c = Store.create ~name:"c" ~dir () in
      Alcotest.check refs "a reopen reads every commit" [ ("x", x'); ("y", y) ]
        (Store.refs c);
      match Store.fsck c with
      | Ok _ -> ()
      | Error r ->
        Alcotest.failf "fsck dirty: %a" Store.pp_fsck_issue
          (List.hd r.Store.f_issues))

(* what a running server relies on: a repository handle opened before
   another handle publishes advertises the new entry in its next
   manifest *)
let test_publish_reaches_open_handle () =
  with_dir (fun dir ->
      let open_repo () =
        match Repo.open_dir dir with
        | Ok r -> r
        | Error e -> Alcotest.failf "open_dir: %a" Repo.pp_error e
      in
      let server = open_repo () in
      let base, _, _ = Lazy.force first_update in
      let digest = Patchfmt.Source_tree.digest base in
      let entries () =
        match Repo.manifest server ~digest with
        | Ok m -> List.length m
        | Error e -> Alcotest.failf "manifest: %a" Repo.pp_error e
      in
      Alcotest.(check int) "nothing published yet" 0 (entries ());
      publish_first (open_repo ());
      Alcotest.(check int) "the other handle's entry is advertised" 1
        (entries ()))

let suite =
  [
    ( "store",
      [
        QCheck_alcotest.to_alcotest prop_put_get;
        t "a reopen reads the disk" test_reopen_reads_disk;
        t "handles on one directory share its refs" test_handles_share_refs;
        t "a publish reaches a handle opened before it"
          test_publish_reaches_open_handle;
        QCheck_alcotest.to_alcotest prop_disk_roundtrip_and_tamper;
        t "dedup accounting" test_dedup_accounting;
        t "lookup counts hits and misses" test_lookup_counts;
        t "fingerprint is order-independent" test_fingerprint_order_independent;
        t "store contents deterministic" test_store_contents_deterministic;
      ] );
  ]
