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

(** [jitter ~seed ~id ~bound n] is [hash ~seed ~id n mod bound], or 0
    when [bound <= 0]. *)
val jitter : seed:int -> id:string -> bound:int -> int -> int
