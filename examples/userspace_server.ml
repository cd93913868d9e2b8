(* User-space hot updates: "the Ksplice techniques apply to other
   operating systems and to user space applications" (§1).

     dune exec examples/userspace_server.exe

   The "application" is a long-running request server: worker threads
   drain a request ring through a handler function. We hot-patch a bug in
   the handler while the workers keep running — no restart, and the
   accumulated state (requests already processed, the live ring) is
   preserved, which is precisely what a restart would destroy. *)

module Tree = Patchfmt.Source_tree
module Diff = Patchfmt.Diff
module Image = Klink.Image
module Machine = Kernel.Machine
module Create = Ksplice.Create
module Apply = Ksplice.Apply

let server_source =
  {|
int requests[64];
int head = 0;
int tail = 0;
int processed = 0;
int checksum = 0;

void submit(int r) {
  requests[tail & 63] = r;
  tail = tail + 1;
}

/* the bug: negative request ids corrupt the checksum instead of being
   rejected. (The handler is deliberately big enough that the compiler
   does not inline it into the non-quiescent worker loop - patching a
   function inlined into worker() would be refused, exactly as the paper
   refuses to patch schedule().) */
int handle(int r) {
  int v = r;
  int bucket = v & 7;
  checksum = checksum + v;
  requests[bucket & 63] = requests[bucket & 63];
  return v;
}

void worker() {
  while (1) {
    if (head < tail) {
      handle(requests[head & 63]);
      head = head + 1;
      processed = processed + 1;
    }
    __yield();
  }
}

int stats(int which) {
  if (which == 0)
    return processed;
  return checksum;
}
|}

let patched_source =
  {|
int requests[64];
int head = 0;
int tail = 0;
int processed = 0;
int checksum = 0;

void submit(int r) {
  requests[tail & 63] = r;
  tail = tail + 1;
}

/* the bug: negative request ids corrupt the checksum instead of being
   rejected */
int handle(int r) {
  int v = r;
  int bucket = v & 7;
  if (v < 0)
    return -1;
  checksum = checksum + v;
  requests[bucket & 63] = requests[bucket & 63];
  return v;
}

void worker() {
  while (1) {
    if (head < tail) {
      handle(requests[head & 63]);
      head = head + 1;
      processed = processed + 1;
    }
    __yield();
  }
}

int stats(int which) {
  if (which == 0)
    return processed;
  return checksum;
}
|}

let () =
  print_endline "== user-space server hot update ==";
  let tree = Tree.of_list [ ("server/main.c", server_source) ] in
  let { Corpus.Boot.image = img; machine = m; _ } = Corpus.Boot.boot ~tree () in
  let addr name = (Option.get (Image.lookup_global img name)).Image.addr in
  let call name args =
    match Machine.call_function m ~addr:(addr name) ~args with
    | Ok v -> v
    | Error f -> Format.kasprintf failwith "%s: %a" name Machine.pp_fault f
  in
  (* start the worker thread; it survives the whole session *)
  ignore
    (Machine.spawn m ~name:"worker" ~uid:1000 ~entry:(addr "worker") ~args:[]);

  (* phase 1: legitimate traffic *)
  for r = 1 to 20 do
    ignore (call "submit" [ Int32.of_int r ])
  done;
  ignore (Machine.run m ~steps:20_000 : int);
  Printf.printf "phase 1: processed=%ld checksum=%ld (expected 20, 210)\n"
    (call "stats" [ 0l ]) (call "stats" [ 1l ]);

  (* hot-patch the handler while workers run *)
  let patch =
    Diff.diff_trees tree (Tree.of_list [ ("server/main.c", patched_source) ])
  in
  let { Create.update; _ } =
    match
      Create.create
        { source = tree; patch; update_id = "reject-negative";
          description = "reject negative request ids" }
    with
    | Ok c -> c
    | Error e -> Format.kasprintf failwith "create: %a" Create.pp_error e
  in
  let mgr = Apply.init m in
  (match Apply.apply mgr update with
   | Ok a ->
     Printf.printf
       "hot update applied while the worker ran (pause %.3f ms); state \
        preserved: processed=%ld\n"
       (float_of_int a.pause_ns /. 1e6)
       (call "stats" [ 0l ])
   | Error e -> Format.kasprintf failwith "apply: %a" Apply.pp_error e);

  (* phase 2: hostile traffic bounces off the patched handler *)
  for r = 1 to 10 do
    ignore (call "submit" [ Int32.of_int (-r) ])
  done;
  ignore (Machine.run m ~steps:20_000 : int);
  Printf.printf
    "phase 2: processed=%ld checksum=%ld (checksum unchanged: negatives \
     rejected)\n"
    (call "stats" [ 0l ]) (call "stats" [ 1l ]);
  print_endline "done."
