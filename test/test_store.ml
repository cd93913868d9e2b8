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
  Alcotest.(check int) "bytes saved" 1000 st.Store.bytes_deduped

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
  Store.set_ref s1 "head" (Store.digest_of_string (List.hd blobs));
  let s2 = Store.create ~name:"f2" () in
  List.iter (fun b -> ignore (Store.put s2 b)) (List.rev blobs);
  Store.set_ref s2 "head" (Store.digest_of_string (List.hd blobs));
  Alcotest.(check string)
    "same contents, any order -> same fingerprint" (Store.fingerprint s1)
    (Store.fingerprint s2);
  ignore (Store.put s2 "one more");
  Alcotest.(check bool)
    "different contents -> different fingerprint" false
    (String.equal (Store.fingerprint s1) (Store.fingerprint s2))

(* the same update published into two fresh memory repositories leaves
   byte-identical store contents *)
let test_store_contents_deterministic () =
  let base = Corpus.Base_kernel.tree () in
  let cve = List.hd Corpus.Cve.all in
  let patch = Corpus.Cve.hot_patch cve base in
  let update =
    match
      Create.create
        { Create.source = base; patch; update_id = cve.id;
          description = cve.desc }
    with
    | Ok c -> c.Create.update
    | Error e -> Alcotest.failf "create: %a" Create.pp_error e
  in
  let run () =
    let s = Store.create ~name:"det" () in
    (match Repo.publish (Repo.of_store s) ~source:base ~patch ~update with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "publish: %a" Repo.pp_error e);
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
      Store.set_ref a "head" d;
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

let suite =
  [
    ( "store",
      [
        QCheck_alcotest.to_alcotest prop_put_get;
        t "a reopen reads the disk" test_reopen_reads_disk;
        QCheck_alcotest.to_alcotest prop_disk_roundtrip_and_tamper;
        t "dedup accounting" test_dedup_accounting;
        t "lookup counts hits and misses" test_lookup_counts;
        t "fingerprint is order-independent" test_fingerprint_order_independent;
        t "store contents deterministic" test_store_contents_deterministic;
      ] );
  ]
