(** The one retry schedule: bounded exponential backoff plus a seeded,
    replayable jitter. Quiescence retries ({!Apply.stop_machine}), the
    supervised manager's retry queue, fleet subscriber retries and the
    simulated wire's fault picks all draw from here, so every schedule
    is a pure function of its seed. *)

(** [delay ~base ~cap n] is [min cap (base * 2^n)], the wait before
    retry [n + 1] (the exponent saturates, so it never overflows). *)
val delay : base:int -> cap:int -> int -> int

(** [hash ~seed ~id n] is a splitmix-style integer hash of [(seed, id,
    n)] in [\[0, 2^30)]: no [Random], so the same inputs always give the
    same value. *)
val hash : seed:int -> id:string -> int -> int

(** [retry_delay ~base ~cap ~bound ~seed ~id ~attempt] is the wait after
    failed attempt [attempt] (1-based) of the retrier named [id]:
    [delay ~base ~cap (attempt - 1)] plus a jitter [hash ~seed ~id
    attempt mod bound] (0 when [bound <= 0]). The manager's retry queue
    and the fleet subscriber both use it, each with its own constants,
    so a retry schedule replays bit-identically for a given (seed, id,
    attempt). *)
val retry_delay :
  base:int -> cap:int -> bound:int -> seed:int -> id:string -> attempt:int ->
  int
