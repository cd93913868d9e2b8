module Repo = Ksplice.Repository

type stats = {
  mutable frames_in : int;
  mutable blobs_sent : int;
  mutable bytes_sent : int;
  mutable errors : int;
}

type state =
  | Expect_hello
  | Expect_head
  (* the manifest we advertised and the head we computed from it: a Want
     may only name digests listed there *)
  | Expect_want of { allowed : (string, unit) Hashtbl.t; head : string }
  | Finished
  | Dead

(* The encoded Blob frames of one repository, by digest. A frame is a
   function of its content-addressed digest, so every session of that
   repository can send the bytes the first one built. *)
type frames = { owner : Store.t; table : (string, string) Hashtbl.t }

(* [frames_m] guards [served] and every table: the sessions of one
   repository run on several domains *)
let frames_m = Mutex.create ()

(* the table of the repository served last; serving another drops it *)
let served = ref None

let frames_of repo =
  let owner = Repo.store repo in
  Mutex.protect frames_m (fun () ->
      match !served with
      | Some f when f.owner == owner -> f
      | _ ->
        let f = { owner; table = Hashtbl.create 64 } in
        served := Some f;
        f)

type session = {
  repo : Repo.t;
  frames : frames;
  st : stats;
  mutable state : state;
  mutable buf : string;
  mutable pos : int;
}

let session repo =
  {
    repo;
    frames = frames_of repo;
    st = { frames_in = 0; blobs_sent = 0; bytes_sent = 0; errors = 0 };
    state = Expect_hello;
    buf = "";
    pos = 0;
  }

let stats s = s.st
let finished s = s.state = Finished

let err s code fmt =
  Format.kasprintf
    (fun msg ->
      s.state <- Dead;
      s.st.errors <- s.st.errors + 1;
      [ Wire.encode (Wire.Err { code; msg }) ])
    fmt

(* [bytes] were loaded under [d]: their frame is the table's, or built
   here. Two sessions racing on one blob both build it; the bytes are
   equal, so the first insert stays. *)
let blob_frame s d bytes =
  let t = s.frames.table in
  match Mutex.protect frames_m (fun () -> Hashtbl.find_opt t d) with
  | Some enc -> enc
  | None ->
    let enc = Wire.encode (Wire.Blob { digest = d; bytes }) in
    Mutex.protect frames_m (fun () ->
        if not (Hashtbl.mem t d) then Hashtbl.add t d enc);
    enc

let step s frame =
  s.st.frames_in <- s.st.frames_in + 1;
  match (s.state, frame) with
  | Expect_hello, Wire.Hello { version; peer = _ } ->
    if version <> Wire.version then
      err s "version" "server speaks v%d, subscriber sent v%d" Wire.version
        version
    else begin
      s.state <- Expect_head;
      [ Wire.encode
          (Wire.Hello_ack { version = Wire.version; peer = "fleet-server" }) ]
    end
  | Expect_head, Wire.Head { digest } -> (
    match Repo.manifest s.repo ~digest with
    | Error e -> err s "manifest" "%a" Repo.pp_error e
    | Ok entries ->
      let allowed = Hashtbl.create 64 in
      List.iter
        (fun (e : Repo.manifest_entry) ->
          Hashtbl.replace allowed e.me_blob ();
          List.iter (fun (d, _) -> Hashtbl.replace allowed d ()) e.me_objects)
        entries;
      let head =
        match List.rev entries with
        | [] -> digest
        | last :: _ -> last.me_next
      in
      s.state <- Expect_want { allowed; head };
      [ Wire.encode (Wire.Manifest entries) ])
  | Expect_want { allowed; head }, Wire.Want digests -> (
    let rec serve acc = function
      | [] -> Ok (List.rev acc)
      | d :: rest -> (
        if not (Hashtbl.mem allowed d) then
          Error (d, "not in the advertised manifest")
        else
          match Store.load (Repo.store s.repo) d with
          | Ok bytes ->
            s.st.blobs_sent <- s.st.blobs_sent + 1;
            s.st.bytes_sent <- s.st.bytes_sent + String.length bytes;
            serve (blob_frame s d bytes :: acc) rest
          | Error `Missing -> Error (d, "missing")
          | Error (`Corrupt m) -> Error (d, m))
    in
    match serve [] digests with
    | Error (d, why) -> err s "blob" "cannot serve %s: %s" d why
    | Ok blobs ->
      s.state <- Finished;
      blobs @ [ Wire.encode (Wire.Done { head }) ])
  | Dead, _ -> []
  | (Expect_hello | Expect_head | Expect_want _ | Finished), f ->
    err s "protocol" "unexpected frame: %a" Wire.pp_frame f

let handle s bytes =
  if s.state = Dead then []
  else begin
    (* with no partial frame pending the input is the buffer *)
    s.buf <-
      (if s.pos = String.length s.buf then bytes
       else String.sub s.buf s.pos (String.length s.buf - s.pos) ^ bytes);
    s.pos <- 0;
    let out = ref [] in
    let rec drain () =
      match Wire.decode s.buf ~pos:s.pos with
      | Ok (f, p) ->
        s.pos <- p;
        out := !out @ step s f;
        if s.state <> Dead then drain ()
      | Error `Incomplete -> ()
      | Error (`Fail e) ->
        out := !out @ err s "frame" "%a" Codec.pp_error e
    in
    drain ();
    !out
  end

let serve_connection repo (tr : Transport.t) =
  let s = session repo in
  let rec loop () =
    match tr.recv () with
    | chunk ->
      let outs = handle s chunk in
      (match List.iter tr.send outs with
      | () -> if s.state = Dead then () else loop ()
      | exception Transport.Closed -> ())
    | exception (Transport.Closed | Transport.Stalled _) -> ()
  in
  loop ();
  tr.close ();
  s.st

(* Is some process accepting on [socket_path]? A leftover file from a
   crashed server refuses the probe connection; a live server accepts
   (the probe is closed before speaking, which the accept loop sees as
   an immediate disconnect). *)
let socket_live socket_path =
  let probe = Unix.socket PF_UNIX SOCK_STREAM 0 in
  let alive =
    match Unix.connect probe (ADDR_UNIX socket_path) with
    | () -> true
    | exception Unix.Unix_error (_, _, _) -> false
  in
  (try Unix.close probe with Unix.Unix_error _ -> ());
  alive

let listen ~socket_path ?max_sessions ?recv_timeout repo =
  (* only a dead socket file may be replaced: blindly unlinking would
     steal a live server's socket out from under its subscribers *)
  if Sys.file_exists socket_path && socket_live socket_path then
    Error
      (Printf.sprintf "cannot bind %s: a live server is already listening"
         socket_path)
  else
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  match
    if Sys.file_exists socket_path then Unix.unlink socket_path;
    Unix.bind fd (ADDR_UNIX socket_path);
    Unix.listen fd 64
  with
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error
      (Printf.sprintf "cannot bind %s: %s" socket_path (Unix.error_message e))
  | () ->
    let served = ref 0 in
    let continue () =
      match max_sessions with None -> true | Some n -> !served < n
    in
    while continue () do
      let conn, _ = Unix.accept fd in
      let (_ : stats) =
        serve_connection repo (Transport.of_fd ?recv_timeout conn)
      in
      incr served
    done;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
    Ok !served
