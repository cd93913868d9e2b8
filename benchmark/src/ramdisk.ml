(* An in-memory filesystem behind the store's [Vfs.t]. Repositories
   opened on it run the whole durable-write protocol (temp file, fsync,
   rename, journal append, recovery on open) with no device underneath:
   fsync latency of a shared virtual disk varied by a third between runs
   and would drown every other layer. How much I/O a publish issues is
   still measured, as a count ([store.io_ops_per_publish]). Paths are
   relative, rooted at ["."]. *)

let create () : Vfs.t =
  let files : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let dirs : (string, (string, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.replace dirs "." (Hashtbl.create 16);
  let fail op path reason = raise (Vfs.Io_error { op; path; reason }) in
  let missing op path = fail op path "no such file or directory" in
  let link op path =
    match Hashtbl.find_opt dirs (Filename.dirname path) with
    | Some names -> Hashtbl.replace names (Filename.basename path) ()
    | None -> missing op path
  in
  let unlink_name path =
    Option.iter
      (fun names -> Hashtbl.remove names (Filename.basename path))
      (Hashtbl.find_opt dirs (Filename.dirname path))
  in
  let read_file path =
    match Hashtbl.find_opt files path with
    | Some s -> s
    | None -> missing "read" path
  in
  let write op path contents =
    if Hashtbl.mem dirs path then fail op path "is a directory";
    link op path;
    Hashtbl.replace files path contents
  in
  {
    read_file;
    write_file = write "write";
    append_file =
      (fun path s ->
        write "append" path
          (Option.value ~default:"" (Hashtbl.find_opt files path) ^ s));
    fsync =
      (fun path ->
        if not (Hashtbl.mem files path || Hashtbl.mem dirs path) then
          missing "fsync" path);
    rename =
      (fun src dst ->
        let s =
          match Hashtbl.find_opt files src with
          | Some s -> s
          | None -> missing "rename" src
        in
        write "rename" dst s;
        Hashtbl.remove files src;
        unlink_name src);
    unlink =
      (fun path ->
        if not (Hashtbl.mem files path) then missing "unlink" path;
        Hashtbl.remove files path;
        unlink_name path);
    mkdir =
      (fun path ->
        if Hashtbl.mem dirs path || Hashtbl.mem files path then
          fail "mkdir" path "file exists";
        link "mkdir" path;
        Hashtbl.replace dirs path (Hashtbl.create 16));
    readdir =
      (fun path ->
        match Hashtbl.find_opt dirs path with
        | Some names -> Array.of_seq (Hashtbl.to_seq_keys names)
        | None -> missing "readdir" path);
    exists = (fun path -> Hashtbl.mem files path || Hashtbl.mem dirs path);
    is_directory = (fun path -> Hashtbl.mem dirs path);
    file_size = (fun path -> String.length (read_file path));
  }
