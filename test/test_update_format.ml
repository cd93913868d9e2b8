(* Update-file format robustness: round-trips over every corpus update,
   graceful rejection of corrupted inputs, and apply-equivalence of a
   deserialised update. *)

module Update = Ksplice.Update
module Create = Ksplice.Create
module Apply = Ksplice.Apply

let t name f = Alcotest.test_case name `Quick f

let corpus_updates =
  lazy
    (let base = Corpus.Base_kernel.tree () in
     List.filter_map
       (fun (cve : Corpus.Cve.t) ->
         match
           Create.create
             { source = base; patch = Corpus.Cve.hot_patch cve base;
               update_id = cve.id; description = cve.desc }
         with
         | Ok c -> Some c.update
         | Error _ -> None)
       Corpus.Cve.all)

let decode what b =
  Fixture.ok (what ^ ": decode") Update.pp_decode_error (Update.of_bytes b)

let same_objects what (u : Update.t) (u' : Update.t) =
  let bytes o = Bytes.to_string (Objfile.to_bytes o) in
  Alcotest.(check string) (what ^ " primary bytes") (bytes u.primary)
    (bytes u'.primary);
  Alcotest.(check (list string)) (what ^ " helper bytes")
    (List.map bytes u.helpers) (List.map bytes u'.helpers)

let test_roundtrip_all () =
  List.iter
    (fun (u : Update.t) ->
      let u' = decode u.update_id (Update.to_bytes u) in
      Alcotest.(check string) (u.update_id ^ " id") u.update_id u'.update_id;
      Alcotest.(check bool)
        (u.update_id ^ " replaced functions")
        true
        (u.replaced_functions = u'.replaced_functions);
      same_objects u.update_id u u')
    (Lazy.force corpus_updates)

let test_corruption_rejected () =
  let u = List.hd (Lazy.force corpus_updates) in
  let good = Update.to_bytes u in
  let cases =
    [ Bytes.sub good 0 4 (* truncated magic *);
      Bytes.sub good 0 (Bytes.length good / 2) (* truncated body *);
      Bytes.of_string "KSPL4garbage";
      (let b = Bytes.copy good in
       (* corrupt a length field just past the magic *)
       Bytes.set_int32_le b 5 0x7fffffffl;
       b) ]
  in
  List.iteri
    (fun i b ->
      Alcotest.(check bool)
        (Printf.sprintf "corruption %d rejected" i)
        true
        (Result.is_error (Update.of_bytes b)))
    cases

let test_deserialised_update_applies () =
  let u =
    List.find
      (fun (u : Update.t) -> u.update_id = "CVE-2006-2451")
      (Lazy.force corpus_updates)
  in
  let u' = decode u.update_id (Update.to_bytes u) in
  let b = Corpus.Boot.boot () in
  let mgr = Apply.init b.machine in
  (match Apply.apply mgr u' with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "deserialised apply: %a" Apply.pp_error e);
  let e = Option.get (Corpus.Exploits.find "CVE-2006-2451") in
  Alcotest.(check bool) "exploit blocked by deserialised update" false
    (e.run b).succeeded

(* --- store-backed serialisation --- *)

let test_store_roundtrip_all () =
  let store = Store.create ~name:"upd-test" () in
  List.iter
    (fun (u : Update.t) ->
      let b = Update.to_bytes_store store u in
      match Update.of_bytes_store store b with
      | Error e ->
        Alcotest.failf "%s: %a" u.update_id Update.pp_decode_error e
      | Ok u' ->
        Alcotest.(check string) (u.update_id ^ " id") u.update_id u'.update_id;
        same_objects u.update_id u u')
    (Lazy.force corpus_updates)

let test_store_dedups_helpers () =
  (* corpus updates share the base kernel: serialising them all through
     one store must intern each common helper object exactly once *)
  let store = Store.create ~name:"upd-dedup" () in
  let updates = Lazy.force corpus_updates in
  List.iter (fun u -> ignore (Update.to_bytes_store store u)) updates;
  let st = Store.stats store in
  Alcotest.(check bool) "helpers dedup across updates" true
    (st.Store.dedup_hits > 0 && st.Store.bytes_deduped > 0)

let test_store_reader_reads_embedded () =
  (* a self-contained file needs nothing from the store *)
  let empty = Store.create ~name:"upd-embedded" () in
  let u = List.hd (Lazy.force corpus_updates) in
  let b = Update.to_bytes u in
  (match Update.of_bytes_store empty b with
   | Ok u' -> same_objects "embedded" u u'
   | Error e -> Alcotest.failf "embedded: %a" Update.pp_decode_error e);
  Alcotest.(check (list string)) "no store digests" []
    (Fixture.ok "store_digests" Update.pp_decode_error (Update.store_digests b))

let test_plain_reader_refuses_store_backed () =
  let store = Store.create ~name:"upd-refuse" () in
  let u = List.hd (Lazy.force corpus_updates) in
  let b = Update.to_bytes_store store u in
  (match Update.of_bytes b with
   | Error Update.Store_backed -> ()
   | Ok _ -> Alcotest.fail "of_bytes must refuse a store-backed file"
   | Error e ->
     Alcotest.failf "expected Store_backed: %a" Update.pp_decode_error e);
  Alcotest.(check int) "primary and helpers referenced"
    (1 + List.length u.helpers)
    (List.length
       (Fixture.ok "store_digests" Update.pp_decode_error
          (Update.store_digests b)));
  (* a store-backed file against a store missing its blobs fails cleanly *)
  let empty = Store.create ~name:"upd-empty" () in
  match Update.of_bytes_store empty b with
  | Error (Update.Object_unavailable _) -> ()
  | Error e ->
    Alcotest.failf "expected a missing object: %a" Update.pp_decode_error e
  | Ok _ -> Alcotest.fail "expected a missing-blob error"

(* --- cumulative records --- *)

let cumulative_of (u : Update.t) =
  { u with
    Update.supersedes = [ "CVE-a"; "CVE-b" ];
    shadow_ctors = [ "ctor@kernel/x.c" ];
    shadow_dtors = [ "dtor@kernel/x.c" ] }

let check_cumulative_roundtrip what store (u : Update.t) b =
  Alcotest.(check (list string)) (what ^ ": supersedes from bytes alone")
    u.supersedes (Update.supersedes_of_bytes b);
  match Update.of_bytes_store store b with
  | Error e -> Alcotest.failf "%s: %a" what Update.pp_decode_error e
  | Ok u' ->
    Alcotest.(check bool) (what ^ ": cumulative") true
      (Update.is_cumulative u');
    Alcotest.(check (list string)) (what ^ ": supersedes") u.supersedes
      u'.supersedes;
    Alcotest.(check (list string)) (what ^ ": ctors") u.shadow_ctors
      u'.shadow_ctors;
    Alcotest.(check (list string)) (what ^ ": dtors") u.shadow_dtors
      u'.shadow_dtors;
    same_objects what u u'

(* The two cumulative tests keep the names they had when the
   self-contained and the cumulative store-backed files each had a
   magic of their own (KSPL1, KSPL3); both are now one-layout files. *)

let test_self_contained_cumulative () =
  let store = Store.create ~name:"upd-cumulative-self" () in
  let u = cumulative_of (List.hd (Lazy.force corpus_updates)) in
  check_cumulative_roundtrip "self-contained" store u (Update.to_bytes u)

let test_store_backed_cumulative () =
  let store = Store.create ~name:"upd-cumulative-store" () in
  let u = cumulative_of (List.hd (Lazy.force corpus_updates)) in
  check_cumulative_roundtrip "store-backed" store u
    (Update.to_bytes_store store u)

(* --- strictness: one magic, no trailing bytes, checked objects --- *)

let blobs =
  lazy
    (let store = Store.create ~name:"upd-total" () in
     let u = List.hd (Lazy.force corpus_updates) in
     let cu = cumulative_of u in
     [ ("self-contained", Update.to_bytes u, store);
       ("store-backed", Update.to_bytes_store store u, store);
       ("cumulative", Update.to_bytes_store store cu, store) ])

let test_old_formats_rejected () =
  List.iter
    (fun (what, b, store) ->
      List.iter
        (fun old ->
          let b = Bytes.copy b in
          Bytes.blit_string old 0 b 0 (String.length old);
          let bad_magic = function
            | Error (Update.Bad_magic m) -> String.equal m old
            | _ -> false
          in
          let label = Printf.sprintf "%s relabelled %s" what old in
          Alcotest.(check bool) (label ^ ": of_bytes") true
            (bad_magic (Update.of_bytes b));
          Alcotest.(check bool) (label ^ ": of_bytes_store") true
            (bad_magic (Update.of_bytes_store store b));
          Alcotest.(check bool) (label ^ ": store_digests") true
            (Result.is_error (Update.store_digests b));
          Alcotest.(check (list string)) (label ^ ": supersedes") []
            (Update.supersedes_of_bytes b))
        [ "KSPL1"; "KSPL2"; "KSPL3" ])
    (Lazy.force blobs)

let test_trailing_bytes_rejected () =
  List.iter
    (fun (what, b, store) ->
      let b = Bytes.cat b (Bytes.of_string "TRAILING-GARBAGE") in
      Alcotest.(check bool) (what ^ ": of_bytes_store") true
        (Result.is_error (Update.of_bytes_store store b));
      Alcotest.(check bool) (what ^ ": of_bytes") true
        (Result.is_error (Update.of_bytes b));
      Alcotest.(check bool) (what ^ ": store_digests") true
        (Result.is_error (Update.store_digests b)))
    (Lazy.force blobs)

let test_tampered_object_rejected () =
  (* flip one byte in the last embedded object: the file still parses,
     but the blob no longer matches the digest the header names *)
  let u = List.hd (Lazy.force corpus_updates) in
  let b = Update.to_bytes u in
  let pos = Bytes.length b - 3 in
  Bytes.set_uint8 b pos (Bytes.get_uint8 b pos lxor 0x40);
  let store = Store.create ~name:"upd-tamper" () in
  List.iter
    (fun (what, r) ->
      match r with
      | Error (Update.Malformed { reason; _ }) ->
        Alcotest.(check bool) (what ^ ": names the digest") true
          (String.ends_with ~suffix:"does not match its digest" reason)
      | Error e -> Alcotest.failf "%s: %a" what Update.pp_decode_error e
      | Ok _ -> Alcotest.failf "%s: tampered object accepted" what)
    [ ("of_bytes", Update.of_bytes b);
      ("of_bytes_store", Update.of_bytes_store store b);
      ("store_digests", Result.map (fun _ -> u) (Update.store_digests b)) ]

(* --- decoder totality: no exception reachable from arbitrary bytes ---

   Every truncated prefix and every single-byte flip of a valid blob —
   self-contained, store-backed, cumulative — must yield [Ok] or
   [Error] from every reader, never raise; a truncated prefix must be
   [Error]. *)

let readers store =
  [ ("of_bytes", fun b -> Result.map ignore (Update.of_bytes b));
    ( "of_bytes_store",
      fun b -> Result.map ignore (Update.of_bytes_store store b) );
    ("store_digests", fun b -> Result.map ignore (Update.store_digests b)) ]

let decode_total read (b : Bytes.t) =
  match read b with
  | Ok () -> `Ok
  | Error _ -> `Error
  | exception e -> `Raised e

let test_every_prefix_rejected () =
  List.iter
    (fun (fmt, b, store) ->
      List.iter
        (fun (reader, read) ->
          for n = 0 to Bytes.length b - 1 do
            match decode_total read (Bytes.sub b 0 n) with
            | `Error -> ()
            | `Ok ->
              Alcotest.failf "%s %s: prefix of %d bytes parsed" fmt reader n
            | `Raised e ->
              Alcotest.failf "%s %s: prefix of %d bytes raised %s" fmt reader
                n (Printexc.to_string e)
          done)
        (readers store);
      (* supersedes_of_bytes shares the totality guarantee *)
      for n = 0 to Bytes.length b - 1 do
        ignore (Update.supersedes_of_bytes (Bytes.sub b 0 n) : string list)
      done)
    (Lazy.force blobs)

let prop_byte_flip_total =
  let open QCheck2.Gen in
  QCheck2.Test.make ~name:"update decode is total under byte flips"
    ~count:600
    (tup3 (int_range 0 2) (int_range 0 100_000) (int_range 1 255))
    (fun (which, pos, flip) ->
      let _, b, store = List.nth (Lazy.force blobs) which in
      let b = Bytes.copy b in
      let pos = pos mod Bytes.length b in
      Bytes.set_uint8 b pos (Bytes.get_uint8 b pos lxor flip);
      List.for_all
        (fun (_, read) ->
          match decode_total read b with
          | `Raised _ -> false
          | `Ok | `Error -> true)
        (readers store)
      &&
      match Update.supersedes_of_bytes b with
      | (_ : string list) -> true
      | exception _ -> false)

let suite =
  [
    ( "update-format",
      [
        t "roundtrip all corpus updates" test_roundtrip_all;
        t "corruption rejected" test_corruption_rejected;
        t "deserialised update applies" test_deserialised_update_applies;
        t "store-backed roundtrip" test_store_roundtrip_all;
        t "store dedups shared helpers" test_store_dedups_helpers;
        t "store reader reads embedded objects"
          test_store_reader_reads_embedded;
        t "plain reader refuses store-backed"
          test_plain_reader_refuses_store_backed;
        t "cumulative roundtrip (KSPL3)" test_store_backed_cumulative;
        t "KSPL1 carries cumulative fields" test_self_contained_cumulative;
        t "old KSPL1/2/3 bytes rejected" test_old_formats_rejected;
        t "trailing bytes rejected" test_trailing_bytes_rejected;
        t "tampered embedded object rejected" test_tampered_object_rejected;
        t "every truncated prefix rejected" test_every_prefix_rejected;
        QCheck_alcotest.to_alcotest prop_byte_flip_total;
      ] );
  ]
