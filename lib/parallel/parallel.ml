let available_domains () = Domain.recommended_domain_count ()

let default_domains () =
  match Sys.getenv_opt "KSPLICE_DOMAINS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | _ -> available_domains ())
  | None -> available_domains ()

(* --- the shared chunked task queue --- *)

let queue : (unit -> unit) Queue.t = Queue.create ()
let qm = Mutex.create ()
let qcv = Condition.create ()
let shutting_down = ref false
let pool : unit Domain.t list ref = ref []
let pool_started = ref false
let pool_m = Mutex.create ()

(* Tasks never raise: [map] wraps user work in a catch-all, so a worker
   (or a helping submitter) can run any queued chunk, from any batch. *)
let worker () =
  let running = ref true in
  while !running do
    Mutex.lock qm;
    while Queue.is_empty queue && not !shutting_down do
      Condition.wait qcv qm
    done;
    if Queue.is_empty queue then begin
      running := false;
      Mutex.unlock qm
    end
    else begin
      let task = Queue.pop queue in
      Mutex.unlock qm;
      task ()
    end
  done

let ensure_pool () =
  Mutex.lock pool_m;
  if not !pool_started then begin
    pool_started := true;
    (* at least one worker even on a single-core host, so an explicit
       parallelism request genuinely crosses domains *)
    let n = max 1 (available_domains () - 1) in
    pool := List.init n (fun _ -> Domain.spawn worker);
    at_exit (fun () ->
        Mutex.lock qm;
        shutting_down := true;
        Condition.broadcast qcv;
        Mutex.unlock qm;
        List.iter Domain.join !pool)
  end;
  Mutex.unlock pool_m

let try_pop () =
  Mutex.lock qm;
  let r = if Queue.is_empty queue then None else Some (Queue.pop queue) in
  Mutex.unlock qm;
  r

(* Completion latch of one batch. Chunks decrement [left] under [lm];
   the submitter helps drain the queue while waiting, and only sleeps
   when every chunk of the queue is taken by some other thread. *)
type latch = {
  lm : Mutex.t;
  lcv : Condition.t;
  mutable left : int;
}

let rec await_helping l =
  Mutex.lock l.lm;
  let finished = l.left = 0 in
  Mutex.unlock l.lm;
  if not finished then begin
    (match try_pop () with
     | Some task -> task ()
     | None ->
       Mutex.lock l.lm;
       if l.left > 0 then Condition.wait l.lcv l.lm;
       Mutex.unlock l.lm);
    await_helping l
  end

let map ?domains f xs =
  let n = List.length xs in
  let d =
    match domains with Some d -> d | None -> default_domains ()
  in
  if d <= 1 || n <= 1 then List.map f xs
  else begin
    ensure_pool ();
    let input = Array.of_list xs in
    let out = Array.make n None in
    let chunk = max 1 (n / (4 * d)) in
    let nchunks = (n + chunk - 1) / chunk in
    let l = { lm = Mutex.create (); lcv = Condition.create (); left = nchunks }
    in
    let run_chunk c () =
      let lo = c * chunk and hi = min n ((c + 1) * chunk) in
      for i = lo to hi - 1 do
        out.(i) <-
          Some
            (match f input.(i) with
             | v -> Ok v
             | exception e -> Error (e, Printexc.get_raw_backtrace ()))
      done;
      Mutex.lock l.lm;
      l.left <- l.left - 1;
      if l.left = 0 then Condition.broadcast l.lcv;
      Mutex.unlock l.lm
    in
    Mutex.lock qm;
    for c = 0 to nchunks - 1 do
      Queue.add (run_chunk c) queue
    done;
    Condition.broadcast qcv;
    Mutex.unlock qm;
    await_helping l;
    (* deterministic error reporting: first failing index wins *)
    Array.iter
      (function
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | _ -> ())
      out;
    List.init n (fun i ->
        match out.(i) with Some (Ok v) -> v | _ -> assert false)
  end
