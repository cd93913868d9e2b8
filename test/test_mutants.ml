(* No exception escapes create's text inputs, or a subscriber's wire:
   seeded delete, substitute and duplicate mutants of the 64 corpus
   patch texts go through [Diff.parse] and [Create.create], mutants of
   the base kernel's units (its assembly unit included) through
   [Kbuild.build_tree] under both build options, and mutants of one
   server-to-subscriber byte stream through [Fleet.Subscriber.sync].
   Each call must return [Ok] or a typed [Error]. *)

module Tree = Patchfmt.Source_tree
module Diff = Patchfmt.Diff
module Create = Ksplice.Create

let t name f = Alcotest.test_case name `Quick f

type kind = Delete | Substitute | Duplicate

let kinds = [ Delete; Substitute; Duplicate ]

let kind_name = function
  | Delete -> "delete"
  | Substitute -> "substitute"
  | Duplicate -> "duplicate"

(* bytes the C lexer, the assembler and the patch parser treat specially *)
let alphabet = "(){}[];,+-*/%=<>!&|^~?:0123456789xz_ \t\n\"'\\.#@$"

(* one edit of [s] over a span of 1-12 bytes at a seeded offset *)
let mutate rng kind s =
  let n = String.length s in
  let i = Random.State.int rng (n + 1) in
  let len = min (n - i) (1 + Random.State.int rng 12) in
  let span = String.sub s i len in
  let middle =
    match kind with
    | Delete -> ""
    | Substitute ->
      String.init len (fun _ ->
          alphabet.[Random.State.int rng (String.length alphabet)])
    | Duplicate -> span ^ span
  in
  String.sub s 0 i ^ middle ^ String.sub s (i + len) (n - i - len)

(* the mutants of [text], [per_kind] of each kind, from one seed per
   text, so that a failure names a mutant that can be rebuilt alone *)
let mutants ~seed ~per_kind text =
  let rng = Random.State.make [| seed |] in
  List.concat_map
    (fun kind ->
      List.init per_kind (fun k -> (kind, k, mutate rng kind text)))
    kinds

let escaped what kind k e =
  Alcotest.failf "%s, %s mutant %d: %s escaped" what (kind_name kind) k
    (Printexc.to_string e)

let test_patch_mutants () =
  let base = Corpus.Base_kernel.tree () in
  let parsed = ref 0 and created = ref 0 and total = ref 0 in
  List.iteri
    (fun seed (cve : Corpus.Cve.t) ->
      let text = Diff.to_string (Corpus.Cve.hot_patch cve base) in
      List.iter
        (fun (kind, k, text) ->
          incr total;
          match Diff.parse text with
          | exception e -> escaped (cve.id ^ " parse") kind k e
          | Error _ -> ()
          | Ok patch -> (
            incr parsed;
            match
              Create.create
                { source = base; patch; update_id = cve.id;
                  description = cve.desc }
            with
            | exception e -> escaped (cve.id ^ " create") kind k e
            | Ok _ -> incr created
            | Error _ -> ()))
        (mutants ~seed ~per_kind:10 text))
    Corpus.Cve.all;
  Alcotest.(check int) "mutants" (64 * 3 * 10) !total;
  (* the mutants reach each stage, not only the parser's refusals *)
  Alcotest.(check bool) "some mutants parse" true (!parsed > !total / 2);
  Alcotest.(check bool) "some mutants create an update" true (!created > 0);
  Alcotest.(check bool) "some parsed mutants are refused" true
    (!created < !parsed)

let test_unit_mutants () =
  let base = Corpus.Base_kernel.tree () in
  let units = Tree.bindings base in
  Alcotest.(check int) "base units" 27 (List.length units);
  Alcotest.(check bool) "the assembly unit is among them" true
    (List.mem_assoc "kernel/entry.s" units);
  let built = ref 0 and refused = ref 0 in
  List.iteri
    (fun seed (path, src) ->
      List.iter
        (fun (kind, k, src) ->
          let tree = Tree.add base path src in
          List.iter
            (fun (oname, options) ->
              match Kbuild.build_tree ~options tree with
              | exception e ->
                escaped (Printf.sprintf "%s %s build" path oname) kind k e
              | Ok _ -> incr built
              | Error _ -> incr refused)
            [ ("pre", Minic.Driver.pre_build);
              ("run", Minic.Driver.run_build) ])
        (mutants ~seed:(1000 + seed) ~per_kind:25 src))
    units;
  Alcotest.(check int) "builds" (27 * 3 * 25 * 2) (!built + !refused);
  Alcotest.(check bool) "some mutants build" true (!built > 0);
  Alcotest.(check bool) "some mutants are refused" true (!refused > 0)

(* --- the fleet wire --- *)

module Repo = Ksplice.Repository
module Transport = Fleet.Transport
module Subscriber = Fleet.Subscriber

(* every byte the server sends a fresh subscriber of [repo] that starts
   at [base], in order *)
let recorded_stream repo ~base =
  let session = Fleet.Server.session repo in
  let out = Buffer.create 4096 in
  let serve input =
    let frames = Fleet.Server.handle session input in
    List.iter (Buffer.add_string out) frames;
    frames
  in
  let tr, _ = Transport.sim ~serve () in
  let r =
    Subscriber.sync ~store:(Store.create ()) ~base ~connect:(fun _ -> Some tr)
      ()
  in
  Alcotest.(check bool) "the recorded session synced" true r.r_synced;
  Buffer.contents out

(* a peer that ignores what it is sent and delivers [stream] in chunks
   of 512 bytes, then hangs up *)
let replay stream =
  let pos = ref 0 in
  let recv () =
    let n = min 512 (String.length stream - !pos) in
    if n = 0 then raise Transport.Closed;
    pos := !pos + n;
    String.sub stream (!pos - n) n
  in
  { Transport.send = ignore; recv; close = ignore }

let test_stream_mutants () =
  let repo = Test_fleet.server_repo () in
  let base = Test_fleet.base_digest in
  let stream = recorded_stream repo ~base in
  let manifest =
    match Repo.manifest repo ~digest:base with
    | Ok m -> m
    | Error e -> Alcotest.failf "manifest: %a" Repo.pp_error e
  in
  let served = Test_fleet.wanted manifest in
  let total = ref 0 and synced = ref 0 in
  let checksum = ref 0 and digest = ref 0 in
  List.iter
    (fun (kind, k, m) ->
      incr total;
      let what = Printf.sprintf "stream %s mutant %d" (kind_name kind) k in
      let sub = Store.create () in
      match
        Subscriber.sync ~retries:1 ~store:sub ~base
          ~connect:(fun _ -> Some (replay m))
          ()
      with
      | exception e -> escaped "stream sync" kind k e
      | r ->
        (if r.r_synced then begin
           incr synced;
           Alcotest.(check string) (what ^ ": head") Test_fleet.head_digest
             r.r_head
         end
         else
           match r.r_log with
           | [ line ] ->
             if Test_fleet.mentions "checksum mismatch" line then incr checksum;
             if Test_fleet.mentions "do not digest to" line then incr digest
           | log ->
             Alcotest.failf "%s: %d log lines for one attempt" what
               (List.length log));
        (match Repo.fsck (Repo.of_store sub) with
        | Ok _ -> ()
        | Error _ -> Alcotest.failf "%s: mirror fsck reports damage" what);
        (* a memory store's fsck does not re-digest its blobs: every
           blob the chain names is checked here *)
        List.iter
          (fun d ->
            match Store.get sub d with
            | Some b when Store.digest_of_string b <> d ->
              Alcotest.failf "%s: %s filed over bytes that do not hash to it"
                what d
            | _ -> ())
          served)
    (mutants ~seed:4242 ~per_kind:200 stream);
  Alcotest.(check int) "mutants" (3 * 200) !total;
  Alcotest.(check bool) "most mutants are refused" true (!synced < !total / 2);
  (* the mutants reach both checks *)
  Alcotest.(check bool) "some mutants fail a frame checksum" true
    (!checksum > 0);
  Alcotest.(check bool) "some mutants fail a digest" true (!digest > 0)

let suite =
  [
    ( "mutants",
      [
        t "patch mutants: parse and create never raise" test_patch_mutants;
        t "unit mutants: build_tree never raises" test_unit_mutants;
        t "stream mutants: a subscriber converges or fails typed"
          test_stream_mutants;
      ] );
  ]
