(** The distribution server: one {!session} per subscriber connection,
    driven as a pure-ish state machine (bytes in, frames out) so the
    same code serves a real Unix-domain socket and the deterministic
    simulated transport the chaos sweep injects faults into.

    A session walks [hello → head → manifest → want → blob stream →
    done]. The manifest is digest-verified as it is read
    ({!Ksplice.Repository.manifest}), and a [Want] may only name digests
    that manifest advertised — a subscriber cannot use the daemon as an
    arbitrary blob oracle. Any malformed or out-of-state frame yields
    one [Err] frame and kills the session; the subscriber's retry loop
    takes it from there. *)

type stats = {
  mutable frames_in : int;
  mutable blobs_sent : int;
  mutable bytes_sent : int;  (** blob payload bytes only *)
  mutable errors : int;  (** [Err] frames emitted *)
}

type session

(** [session repo] starts a session serving [repo]'s chains; the server
    names itself ["fleet-server"] in [Hello_ack].

    The sessions of one repository (one {!Ksplice.Repository.store},
    physically) share its encoded [Blob] frames, keyed by digest: a blob
    is framed by the first session that sends it, and later sessions
    send the same bytes. Starting a session on another repository drops
    them. A served blob is therefore held twice, in the store and as a
    frame, while its repository is the one being served. The frames
    replace only the encoding: every wanted digest is still checked
    against this session's manifest and loaded from the store first.
    Sessions may run on several domains. *)
val session : Ksplice.Repository.t -> session

(** [handle s bytes] feeds received bytes (any chunking — partial frames
    are buffered) and returns the encoded response frames to send.
    After an error the session is dead: further input yields nothing. *)
val handle : session -> string -> string list

val stats : session -> stats

(** Did the session reach [Done]? *)
val finished : session -> bool

(** [serve_connection repo tr] runs one full session over a transport,
    returning its stats when the peer disconnects or the session ends. *)
val serve_connection : Ksplice.Repository.t -> Transport.t -> stats

(** [listen ~socket_path ?max_sessions repo] binds a Unix-domain socket
    and serves connections sequentially — [max_sessions] bounds the
    accept loop (default: run forever). A stale socket file (left by a
    crashed server) is probed for liveness and replaced only if nothing
    answers; if a live server already owns it, [listen] returns an error
    instead of stealing the socket. Returns the number of sessions
    served, or an error message if the socket could not be bound. *)
val listen :
  socket_path:string -> ?max_sessions:int -> ?recv_timeout:float ->
  Ksplice.Repository.t -> (int, string) result
