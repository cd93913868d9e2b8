exception Closed
exception Stalled of string

type t = {
  send : string -> unit;
  recv : unit -> string;
  close : unit -> unit;
}

type fault_kind = Disconnect | Torn | Corrupt | Stall | Duplicate

let fault_kind_to_string = function
  | Disconnect -> "disconnect"
  | Torn -> "torn"
  | Corrupt -> "corrupt"
  | Stall -> "stall"
  | Duplicate -> "duplicate"

let all_fault_kinds = [ Disconnect; Torn; Corrupt; Stall; Duplicate ]

type plan = { at : int; kind : fault_kind; seed : int }

(* --- deterministic in-process simulation --- *)

type sim_stats = {
  mutable frames : int;
  mutable wire_bytes : int;
  mutable fired : bool;
}

let sim ?plan ~serve () =
  let stats = { frames = 0; wire_bytes = 0; fired = false } in
  let inbox = Queue.create () in
  let closed = ref false in
  let stalled = ref false in
  (* every frame crossing the wire, in either direction, passes through
     here: count it, apply the plan if this is the [at]-th, deliver *)
  let transfer frame deliver =
    if not (!closed || !stalled) then begin
      stats.frames <- stats.frames + 1;
      stats.wire_bytes <- stats.wire_bytes + String.length frame;
      match plan with
      | Some p when stats.frames = p.at ->
        stats.fired <- true;
        (match p.kind with
        | Disconnect -> closed := true
        | Torn ->
          (* the retry schedule's seeded hash picks the torn length and
             the flipped bit, so a plan replays bit-identically *)
          let n = String.length frame in
          let keep =
            1 + (Ksplice.Backoff.hash ~seed:p.seed ~id:"" stats.frames
                 mod max 1 (n - 1))
          in
          deliver (String.sub frame 0 keep);
          closed := true
        | Corrupt ->
          let n = String.length frame in
          let i = Ksplice.Backoff.hash ~seed:p.seed ~id:"" stats.frames mod n in
          let bit =
            Ksplice.Backoff.hash ~seed:p.seed ~id:"" (stats.frames + 1) mod 8
          in
          let b = Bytes.of_string frame in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
          deliver (Bytes.to_string b)
        | Stall -> stalled := true
        | Duplicate ->
          deliver frame;
          deliver frame)
      | _ -> deliver frame
    end
  in
  let to_client chunk = Queue.add chunk inbox in
  let send frame =
    if !closed then raise Closed;
    transfer frame (fun bytes ->
        List.iter (fun f -> transfer f to_client) (serve bytes))
  in
  let recv () =
    if not (Queue.is_empty inbox) then Queue.pop inbox
    else if !stalled then
      raise (Stalled "simulated peer stall: receive budget exhausted")
    else raise Closed
  in
  let close () = closed := true in
  ({ send; recv; close }, stats)

(* --- real sockets --- *)

let rec write_all fd s pos len =
  if len > 0 then begin
    let n = Unix.write_substring fd s pos len in
    write_all fd s (pos + n) (len - n)
  end

let of_fd ?(recv_timeout = 30.) fd =
  (* a write to a socket whose peer hung up must fail with EPIPE, which
     [send] turns into [Closed], not kill the process with SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let closed = ref false in
  let send frame =
    if !closed then raise Closed;
    match write_all fd frame 0 (String.length frame) with
    | () -> ()
    | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
      closed := true;
      raise Closed
  in
  let buf = Bytes.create 65536 in
  let recv () =
    if !closed then raise Closed;
    match Unix.select [ fd ] [] [] recv_timeout with
    | [], _, _ ->
      raise
        (Stalled (Printf.sprintf "peer silent for %.0fs" recv_timeout))
    | _ -> (
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 ->
        closed := true;
        raise Closed
      | n -> Bytes.sub_string buf 0 n
      | exception Unix.Unix_error (ECONNRESET, _, _) ->
        closed := true;
        raise Closed)
  in
  let close () =
    if not !closed then begin
      closed := true;
      try Unix.close fd with Unix.Unix_error _ -> ()
    end
  in
  { send; recv; close }

let connect_unix ?recv_timeout path =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  (try Unix.connect fd (ADDR_UNIX path)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  of_fd ?recv_timeout fd

let pair ?recv_timeout () =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  (of_fd ?recv_timeout a, of_fd ?recv_timeout b)

(* --- frame layer --- *)

type recv_error =
  | Decode of Codec.error
  | Disconnected
  | Stalled_out of string

let pp_recv_error ppf = function
  | Decode e -> Format.fprintf ppf "bad frame: %a" Codec.pp_error e
  | Disconnected -> Format.fprintf ppf "connection closed"
  | Stalled_out m -> Format.fprintf ppf "stalled: %s" m

type reader = {
  tr : t;
  mutable buf : string;
  mutable pos : int;
}

let reader tr = { tr; buf = ""; pos = 0 }

let rec recv_frame r =
  match Wire.decode r.buf ~pos:r.pos with
  | Ok (f, p) ->
    r.pos <- p;
    if r.pos = String.length r.buf then begin
      r.buf <- "";
      r.pos <- 0
    end;
    Ok f
  | Error (`Fail e) -> Error (Decode e)
  | Error `Incomplete -> (
    match r.tr.recv () with
    | chunk ->
      (* with no partial frame pending the chunk is the buffer: frames
         decode where they arrived *)
      r.buf <-
        (if r.pos = String.length r.buf then chunk
         else String.sub r.buf r.pos (String.length r.buf - r.pos) ^ chunk);
      r.pos <- 0;
      recv_frame r
    | exception Closed -> Error Disconnected
    | exception Stalled m -> Error (Stalled_out m))

let send_frame tr f =
  match tr.send (Wire.encode f) with
  | () -> Ok ()
  | exception Closed -> Error Disconnected
  | exception Stalled m -> Error (Stalled_out m)
