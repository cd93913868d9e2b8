type digest = string

let digest_of_string s = Digest.to_hex (Digest.string s)

type stats = {
  hits : int;
  misses : int;
  puts : int;
  dedup_hits : int;
  bytes_put : int;
  bytes_deduped : int;
  corrupt : int;
}

type recovery_report = { tmp_removed : int }

type fsck_issue =
  | Orphan_tmp of string
  | Corrupt_blob of { digest : digest; reason : string }
  | Dangling_ref of { name : string; digest : digest }
  | Damaged_refs of string

type fsck_report = {
  f_blobs : int;
  f_refs : int;
  f_issues : fsck_issue list;
}

type gc_report = {
  gc_live : int;
  gc_swept : int;
  gc_bytes : int;
  gc_pinned : int;
}

module Names = Map.Make (String)

type t = {
  sname : string;
  dir : string option;
  vfs : Vfs.t;
  m : Mutex.t;
  blobs : (digest, string) Hashtbl.t;
  (* the ref table; with a directory, the last one <dir>/refs held that
     decoded, and the bytes it came from ([None]: the file was absent) *)
  mutable refs : digest Names.t;
  mutable refs_raw : string option;
  (* digests interned by transactions still in flight: GC roots until the
     outermost with_txn exits (its refs are committed by then) *)
  pinned : (digest, unit) Hashtbl.t;
  mutable txns : int;
  mutable last_recovery : recovery_report option;
  mutable hits : int;
  mutable misses : int;
  mutable puts : int;
  mutable dedup_hits : int;
  mutable bytes_put : int;
  mutable bytes_deduped : int;
  mutable corrupt : int;
  (* precomputed trace-counter names: emitters are on hot paths *)
  tc_hits : string;
  tc_misses : string;
  tc_dedup : string;
}

(* --- on-disk layout --- *)

let mkdir_p vfs dir =
  let rec ensure d =
    if not (vfs.Vfs.exists d) then begin
      let parent = Filename.dirname d in
      if not (String.equal parent d) then ensure parent;
      (* tolerate a concurrent creator; surface every other failure *)
      try vfs.Vfs.mkdir d
      with Vfs.Io_error _ as e -> if not (vfs.Vfs.exists d) then raise e
    end
  in
  ensure dir;
  if not (vfs.Vfs.is_directory dir) then
    raise
      (Vfs.Io_error
         { op = "mkdir"; path = dir; reason = "exists but is not a directory" })

let blobs_dir dir = Filename.concat dir "blobs"
let blob_path dir d = Filename.concat (blobs_dir dir) d
let refs_path dir = Filename.concat dir "refs"

(* Durable atomic replace: write the bytes to a temporary, fsync them,
   rename into place, then fsync the directory so the rename itself is
   on stable storage. A failure anywhere unlinks the temporary — the
   caller sees the exception, never a stray [.tmp] (a simulated process
   death can still strand one; the next open sweeps those). *)
let write_atomic vfs path contents =
  let tmp = path ^ ".tmp" in
  match
    vfs.Vfs.write_file tmp contents;
    vfs.Vfs.fsync tmp;
    vfs.Vfs.rename tmp path;
    vfs.Vfs.fsync (Filename.dirname path)
  with
  | () -> ()
  | exception e ->
    (try vfs.Vfs.unlink tmp with _ -> ());
    raise e

(* --- the ref table ---

   Every ref lives in one file, <dir>/refs: a checksummed {!Codec} frame
   (magic "REFS1") holding the (name, digest) pairs sorted by name. A
   commit rewrites the whole file with [write_atomic], whose rename is
   the commit point: a crash leaves the old table or the new one, so
   there is nothing to roll forward or back. *)

let refs_magic = "REFS1"

let encode_refs refs =
  let b = Buffer.create 256 in
  Codec.put_list
    (fun b (name, d) ->
      Codec.put_str b name;
      Codec.put_str b d)
    b (Names.bindings refs);
  Codec.frame ~magic:refs_magic (Buffer.contents b)

let decode_refs raw =
  let pair r =
    let name = Codec.get_str r in
    (name, Codec.get_str r)
  in
  let codec_error e = Error (Format.asprintf "%a" Codec.pp_error e) in
  match Codec.unframe ~magic:refs_magic (Codec.get_list pair) raw ~pos:0 with
  | Error `Incomplete -> Error "truncated"
  | Error (`Fail e) -> codec_error e
  | Ok (_, next) when next <> String.length raw ->
    Error (Printf.sprintf "trailing bytes at byte %d" next)
  | Ok (pairs, _) -> Ok (Names.of_list pairs)

(* The table <dir>/refs holds now; absent means no ref yet. The file,
   not the handle, is the source of truth, so every handle on a
   directory sees the commits of every other. A read whose bytes are
   the ones last decoded skips the decode. A table that does not decode
   leaves [t.refs] as it was. Assumes the lock is held. *)
let read_table t =
  match t.dir with
  | None -> Ok t.refs
  | Some dir -> (
    let path = refs_path dir in
    match
      if t.vfs.Vfs.exists path then Some (t.vfs.Vfs.read_file path) else None
    with
    | exception Vfs.Io_error { reason; _ } -> Error ("unreadable: " ^ reason)
    | raw when Option.equal String.equal raw t.refs_raw -> Ok t.refs
    | raw ->
      Option.fold ~none:(Ok Names.empty) ~some:decode_refs raw
      |> Result.map (fun refs ->
             t.refs <- refs;
             t.refs_raw <- raw;
             refs))

(* what the ref reads serve: the table on disk, or the last one that
   decoded while it is damaged (commit, fsck and gc report the damage) *)
let current_refs t = Result.value (read_table t) ~default:t.refs

(* --- open --- *)

(* temporaries a dead writer left: blob files and the table's *)
let tmp_paths vfs dir =
  let refs_tmp = refs_path dir ^ ".tmp" in
  Array.fold_left
    (fun acc e ->
      if Filename.check_suffix e ".tmp" then
        Filename.concat (blobs_dir dir) e :: acc
      else acc)
    (if vfs.Vfs.exists refs_tmp then [ refs_tmp ] else [])
    (vfs.Vfs.readdir (blobs_dir dir))

let refuse op path reason = raise (Vfs.Io_error { op; path; reason })

let damaged_table op path reason =
  refuse op path ("damaged ref table: " ^ reason)

(* A recovering open creates the store if missing, sweeps orphan temps
   and refuses a table that does not decode, because it is about to
   write. A read-only open creates nothing and leaves the damage for
   fsck to report. Either refuses the old layout, whose refs lived in a
   refs/ directory: reading it as an empty table would lose them. *)
let open_dir t ~recover dir =
  let vfs = t.vfs in
  if vfs.Vfs.is_directory (refs_path dir) then
    refuse "open" dir "old store layout (refs/ is a directory of ref files)";
  if recover then begin
    Result.iter_error (damaged_table "open" (refs_path dir)) (read_table t);
    mkdir_p vfs (blobs_dir dir);
    let tmps = tmp_paths vfs dir in
    List.iter (fun p -> try vfs.Vfs.unlink p with Vfs.Io_error _ -> ()) tmps;
    t.last_recovery <- Some { tmp_removed = List.length tmps }
  end
  else if not (vfs.Vfs.is_directory (blobs_dir dir)) then
    refuse "open" dir "no store here (blobs/ is missing)"

let create ?(name = "store") ?dir ?(vfs = Vfs.real) ?(recover = true) () =
  let t =
    {
      sname = name;
      dir;
      vfs;
      m = Mutex.create ();
      blobs = Hashtbl.create 256;
      refs = Names.empty;
      refs_raw = None;
      pinned = Hashtbl.create 16;
      txns = 0;
      last_recovery = None;
      hits = 0;
      misses = 0;
      puts = 0;
      dedup_hits = 0;
      bytes_put = 0;
      bytes_deduped = 0;
      corrupt = 0;
      tc_hits = "store." ^ name ^ ".hits";
      tc_misses = "store." ^ name ^ ".misses";
      tc_dedup = "store." ^ name ^ ".dedup_hits";
    }
  in
  Option.iter (open_dir t ~recover) dir;
  t

let recovery t = t.last_recovery

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* the one interning path: file [blob] under [d], the digest its bytes
   were just found to have *)
let intern t d blob =
  let n = String.length blob in
  locked t (fun () ->
      t.puts <- t.puts + 1;
      if t.txns > 0 then Hashtbl.replace t.pinned d ();
      let dedup () =
        t.dedup_hits <- t.dedup_hits + 1;
        t.bytes_deduped <- t.bytes_deduped + n;
        Trace.count t.tc_dedup 1
      in
      if Hashtbl.mem t.blobs d then dedup ()
      else begin
        (match t.dir with
        | Some dir when t.vfs.Vfs.exists (blob_path dir d) ->
          (* already durable from an earlier run: a dedup against disk *)
          dedup ()
        | Some dir ->
          write_atomic t.vfs (blob_path dir d) blob;
          t.bytes_put <- t.bytes_put + n
        | None -> t.bytes_put <- t.bytes_put + n);
        Hashtbl.replace t.blobs d blob
      end)

let put t blob =
  let d = digest_of_string blob in
  intern t d blob;
  d

let put_as t d blob =
  String.equal (digest_of_string blob) d && (intern t d blob; true)

(* counts one hit or miss; a blob the table lacks is read from disk and
   re-digested before it is kept *)
let load t d =
  locked t (fun () ->
      let hit data =
        t.hits <- t.hits + 1;
        Trace.count t.tc_hits 1;
        Ok data
      in
      let miss err =
        t.misses <- t.misses + 1;
        Trace.count t.tc_misses 1;
        Error err
      in
      match Hashtbl.find_opt t.blobs d with
      | Some data -> hit data
      | None -> (
        match t.dir with
        | None -> miss `Missing
        | Some dir -> (
          let path = blob_path dir d in
          if not (t.vfs.Vfs.exists path) then miss `Missing
          else
            match t.vfs.Vfs.read_file path with
            | exception Vfs.Io_error { reason; _ } ->
              miss (`Corrupt ("unreadable blob: " ^ reason))
            | raw ->
              let actual = digest_of_string raw in
              if not (String.equal actual d) then begin
                t.corrupt <- t.corrupt + 1;
                miss
                  (`Corrupt
                    (Printf.sprintf
                       "blob %s fails the re-digest check (stored bytes hash \
                        to %s)"
                       d actual))
              end
              else begin
                Hashtbl.replace t.blobs d raw;
                hit raw
              end)))

let get t d = match load t d with Ok b -> Some b | Error _ -> None

let mem t d =
  locked t (fun () ->
      Hashtbl.mem t.blobs d
      || match t.dir with
         | None -> false
         | Some dir -> t.vfs.Vfs.exists (blob_path dir d))

(* --- refs --- *)

let find_ref t name = locked t (fun () -> Names.find_opt name (current_refs t))

let refs t = locked t (fun () -> Names.bindings (current_refs t))

(* the updates go onto the table the disk holds now, so a commit keeps
   every ref another handle committed since this one last read it *)
let commit_refs t updates =
  let apply base =
    List.fold_left (fun m (n, d) -> Names.add n d m) base updates
  in
  locked t (fun () ->
      match t.dir with
      | None -> t.refs <- apply t.refs
      | Some dir -> (
        let path = refs_path dir in
        let base =
          match read_table t with
          | Ok base -> base
          | Error reason -> damaged_table "commit" path reason
        in
        let next = apply base in
        let raw = encode_refs next in
        match write_atomic t.vfs path raw with
        | () ->
          t.refs <- next;
          t.refs_raw <- Some raw
        | exception (Vfs.Io_error _ as e) ->
          (* the failure may follow the rename (the directory fsync):
             put the old table back on disk too *)
          (try write_atomic t.vfs path (encode_refs base)
           with Vfs.Io_error _ -> ());
          raise e))

let with_txn t f =
  locked t (fun () -> t.txns <- t.txns + 1);
  Fun.protect f ~finally:(fun () ->
      locked t (fun () ->
          t.txns <- t.txns - 1;
          if t.txns = 0 then Hashtbl.reset t.pinned))

(* --- fsck --- *)

let pp_fsck_issue ppf = function
  | Orphan_tmp path -> Format.fprintf ppf "orphan temp file: %s" path
  | Corrupt_blob { digest; reason } ->
    Format.fprintf ppf "corrupt blob %s: %s" digest reason
  | Dangling_ref { name; digest } ->
    Format.fprintf ppf "ref %S points at missing blob %s" name digest
  | Damaged_refs reason -> Format.fprintf ppf "damaged ref table: %s" reason

let fsck t =
  locked t (fun () ->
      let issues = ref [] in
      let add i = issues := i :: !issues in
      let blobs = ref 0 in
      let blob_present d =
        Hashtbl.mem t.blobs d
        ||
        match t.dir with
        | None -> false
        | Some dir -> t.vfs.Vfs.exists (blob_path dir d)
      in
      let table = read_table t in
      Result.iter_error (fun r -> add (Damaged_refs r)) table;
      let refs = Result.value table ~default:t.refs in
      (match t.dir with
      | None -> blobs := Hashtbl.length t.blobs
      | Some dir ->
        List.iter (fun p -> add (Orphan_tmp p)) (tmp_paths t.vfs dir);
        Array.iter
          (fun e ->
            if not (Filename.check_suffix e ".tmp") then begin
              incr blobs;
              match t.vfs.Vfs.read_file (blob_path dir e) with
              | exception Vfs.Io_error { reason; _ } ->
                add (Corrupt_blob { digest = e; reason = "unreadable: " ^ reason })
              | raw ->
                if not (String.equal (digest_of_string raw) e) then
                  add (Corrupt_blob { digest = e; reason = "re-digest mismatch" })
            end)
          (t.vfs.Vfs.readdir (blobs_dir dir)));
      Names.iter
        (fun name d ->
          if not (blob_present d) then add (Dangling_ref { name; digest = d }))
        refs;
      let report =
        {
          f_blobs = !blobs;
          f_refs = Names.cardinal refs;
          f_issues = List.rev !issues;
        }
      in
      if report.f_issues = [] then Ok report else Error report)

(* --- mark-and-sweep GC --- *)

let gc ?(expand = fun _ _ -> Ok []) t =
  (* mark: roots are every ref the table on disk holds and every pinned
     digest of an in-flight transaction; [expand] closes over
     blob-to-blob references the store itself cannot see *)
  let table, pins =
    locked t (fun () ->
        (read_table t, Hashtbl.fold (fun d () l -> d :: l) t.pinned []))
  in
  let marked = Hashtbl.create 256 in
  let broken = ref [] in
  let rec mark d =
    if not (Hashtbl.mem marked d) then begin
      Hashtbl.replace marked d ();
      match load t d with
      | Ok raw -> (
        match expand d raw with
        | Ok ds -> List.iter mark ds
        | Error m -> broken := (d, m) :: !broken)
      | Error `Missing -> broken := (d, "missing") :: !broken
      | Error (`Corrupt m) -> broken := (d, m) :: !broken
    end
  in
  Result.iter
    (fun refs -> List.iter mark (Names.fold (fun _ d l -> d :: l) refs []))
    table;
  List.iter mark pins;
  match (table, !broken) with
  | Error reason, _ ->
    (* a damaged table names no ref roots *)
    Error (Printf.sprintf "the ref table is damaged (%s); run fsck" reason)
  | Ok _, (d, m) :: _ ->
    (* the live set cannot be trusted; collecting anything now could
       orphan data a repaired blob would resurrect *)
    Error (Printf.sprintf "live blob %s is damaged (%s); run fsck" d m)
  | Ok _, [] ->
    locked t (fun () ->
        (* re-read the refs: a commit that landed after the mark phase,
           through this handle or another, keeps the blobs it names *)
        let current = current_refs t in
        let live d =
          Hashtbl.mem marked d || Hashtbl.mem t.pinned d
          || Names.exists (fun _ rd -> String.equal rd d) current
        in
        let swept = ref 0 in
        let bytes = ref 0 in
        (match t.dir with
        | None ->
          let dead =
            Hashtbl.fold
              (fun d data acc -> if live d then acc else (d, data) :: acc)
              t.blobs []
          in
          List.iter
            (fun (d, data) ->
              bytes := !bytes + String.length data;
              Hashtbl.remove t.blobs d;
              incr swept)
            dead
        | Some dir ->
          Array.iter
            (fun e ->
              if (not (Filename.check_suffix e ".tmp")) && not (live e) then begin
                let path = Filename.concat (blobs_dir dir) e in
                (match t.vfs.Vfs.file_size path with
                | n -> bytes := !bytes + n
                | exception Vfs.Io_error _ -> ());
                t.vfs.Vfs.unlink path;
                Hashtbl.remove t.blobs e;
                incr swept
              end)
            (t.vfs.Vfs.readdir (blobs_dir dir)));
        Trace.count ("store." ^ t.sname ^ ".gc_collected") !swept;
        Trace.count ("store." ^ t.sname ^ ".gc_reclaimed_bytes") !bytes;
        Ok
          {
            gc_live = Hashtbl.length marked;
            gc_swept = !swept;
            gc_bytes = !bytes;
            gc_pinned = List.length pins;
          })

(* --- stats --- *)

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        puts = t.puts;
        dedup_hits = t.dedup_hits;
        bytes_put = t.bytes_put;
        bytes_deduped = t.bytes_deduped;
        corrupt = t.corrupt;
      })

let fingerprint t =
  let refl = refs t in
  locked t (fun () ->
      let digests = Hashtbl.create 256 in
      Hashtbl.iter (fun d _ -> Hashtbl.replace digests d ()) t.blobs;
      (match t.dir with
      | None -> ()
      | Some dir ->
        Array.iter
          (fun entry ->
            if not (Filename.check_suffix entry ".tmp") then
              Hashtbl.replace digests entry ())
          (t.vfs.Vfs.readdir (blobs_dir dir)));
      let sorted =
        Hashtbl.fold (fun d () l -> d :: l) digests []
        |> List.sort String.compare
      in
      let b = Buffer.create 4096 in
      List.iter
        (fun d ->
          Buffer.add_string b d;
          Buffer.add_char b '\n')
        sorted;
      Buffer.add_string b "--refs--\n";
      List.iter
        (fun (rname, d) ->
          Buffer.add_string b rname;
          Buffer.add_char b '=';
          Buffer.add_string b d;
          Buffer.add_char b '\n')
        refl;
      digest_of_string (Buffer.contents b))
