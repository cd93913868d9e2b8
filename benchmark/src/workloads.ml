(* The four workloads. Each drives the real pipeline through its public
   functions, one closed-loop op at a time, and checks every output; a
   failed check raises [Op_failed] and counts the op as failed.

   Every call into a layer is wrapped in a ["<layer>.<function>"] span.
   With tracing disabled a span is one atomic load, so the untraced run
   and the traced run execute the same code, except that the traced run
   builds the pre and post trees at the kbuild boundary before
   [Create.create] (see [split_builds]). *)

module Tree = Patchfmt.Source_tree
module Diff = Patchfmt.Diff
module Machine = Kernel.Machine
module Boot = Corpus.Boot
module Cve = Corpus.Cve
module Create = Ksplice.Create
module Apply = Ksplice.Apply
module Update = Ksplice.Update
module Repo = Ksplice.Repository
module Transition = Manager.Transition
module Server = Fleet.Server
module Subscriber = Fleet.Subscriber
module Transport = Fleet.Transport

exception Op_failed of string

let failf fmt = Format.kasprintf (fun m -> raise (Op_failed m)) fmt
let span = Trace.with_span

let get what pp = function
  | Ok v -> v
  | Error e -> failf "%s: %a" what pp e

let get_str what = get what Format.pp_print_string

(* One workload, set up: [op ()] runs the next op and returns the
   latency of its user-facing part in ms; [finish] runs the end-of-run
   checks and returns what failed. *)
type instance = {
  op : unit -> float;
  finish : unit -> string list;
}

(* A workload: its name in BENCHMARK.json and its set-up. *)
type t = {
  name : string;
  setup : seed:int -> instance;
}

(* --- seeded inputs --- *)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* endless seeded passes over [items], each pass a fresh shuffle *)
let passes rng items =
  let queue = ref [] in
  fun () ->
    (match !queue with [] -> queue := shuffle rng items | _ -> ());
    match !queue with
    | x :: rest ->
      queue := rest;
      x
    | [] -> invalid_arg "Workloads.passes: no items"

(* --- calls into the layers, one span each --- *)

let parse text = span "patchfmt.parse" (fun () -> get_str "parse" (Diff.parse text))

let patch_tree patch tree =
  span "patchfmt.apply" (fun () -> get_str "patch" (Diff.apply patch tree))

let build tree =
  ignore
    (span "kbuild.build_tree" (fun () ->
         get "kbuild" Kbuild.pp_error
           (Kbuild.build_tree ~options:Minic.Driver.pre_build tree))
      : Kbuild.build)

(* Set for both halves of the traced run: [create] first builds the pre
   and post trees at the kbuild boundary, so compile time lands in
   [kbuild.build_tree] and create's self time is differencing plus
   carving. *)
let split_builds = ref false

(* Create through a fresh store, as a user creating a new update would. *)
let create ~source ~patch ~id =
  if !split_builds then begin
    build source;
    build (patch_tree patch source)
  end;
  let store = Store.create ~name:"bench-create" () in
  let c =
    span "create.create" (fun () ->
        get "create" Create.pp_error
          (Create.create ~store
             { source; patch; update_id = id; description = id }))
  in
  if Trace.is_enabled () then
    Trace.count "update.bytes" (Bytes.length (Update.to_bytes c.update));
  c.update

(* a fresh repository on its own ramdisk *)
let open_repo () =
  let vfs, io_ops = Vfs.counting (Ramdisk.create ()) in
  (span "repository.open_dir" (fun () ->
       get "open" Repo.pp_error (Repo.open_dir ~vfs "ramdisk/repo")),
   io_ops)

let publish (repo, io_ops) ~source ~patch ~update =
  let before = io_ops () in
  let e =
    span "repository.publish" (fun () ->
        get "publish" Repo.pp_error (Repo.publish repo ~source ~patch ~update))
  in
  Trace.count "store.io_ops" (io_ops () - before);
  e

let pending repo ~digest =
  span "repository.pending" (fun () ->
      get "pending" Repo.pp_error (Repo.pending repo ~digest))

let head repo ~digest = get "head" Repo.pp_error (Repo.head repo ~digest)

(* One subscriber session over the simulated wire; [plan] faults the
   first connection attempt only. *)
let sync ?plan ~id ~store ~base repo =
  let wires = ref [] in
  let connect attempt =
    let session = Server.session repo in
    let plan = if attempt = 1 then plan else None in
    let tr, st =
      Transport.sim ?plan
        ~serve:(fun b -> span "fleet.server" (fun () -> Server.handle session b))
        ()
    in
    wires := st :: !wires;
    Some tr
  in
  let r =
    span "fleet.sync" (fun () -> Subscriber.sync ~id ~store ~base ~connect ())
  in
  let total f = List.fold_left (fun acc st -> acc + f st) 0 !wires in
  Trace.count "fleet.frames" (total (fun st -> st.Transport.frames));
  Trace.count "fleet.wire_bytes" (total (fun st -> st.Transport.wire_bytes));
  Trace.count "fleet.attempts" r.r_attempts;
  Trace.count "fleet.redundant_blobs" r.r_redundant;
  if not r.r_synced then
    failf "sync never converged: %s" (String.concat " | " r.r_log);
  if r.r_redundant <> 0 then failf "%d redundant blob transfers" r.r_redundant;
  r

let engage () =
  Transition.engage
    ~on_stats:(fun (s : Transition.stats) ->
      Trace.count "transition.rounds" s.st_rounds;
      Trace.count "transition.sched_steps" s.st_sched_steps)
    ()

let verify ap =
  span "apply.verify" (fun () -> get "verify" Apply.pp_error (Apply.verify ap))

let apply ap update =
  let a =
    span "apply.apply" (fun () ->
        get "apply" Apply.pp_error (Apply.apply ~engage:(engage ()) ap update))
  in
  verify ap;
  a

(* undo the topmost update; its entry bytes must come back exactly *)
let undo ap (a : Apply.applied) =
  span "apply.undo" (fun () ->
      get "undo" Apply.pp_error
        (Apply.undo ~engage:(engage ()) ap a.update.update_id));
  let m = Apply.machine ap in
  List.iter
    (fun (addr, saved) ->
      if not (Bytes.equal (Machine.read_bytes m addr (Bytes.length saved)) saved)
      then failf "undo of %s left entry %#x changed" a.update.update_id addr)
    a.saved

let fsck what repo =
  match span "repository.fsck" (fun () -> Repo.fsck repo) with
  | Ok _ -> ()
  | Error (r : Repo.fsck_report) ->
    failf "%s fsck: %d store issue(s), %d corrupt entries" what
      (List.length r.store_report.f_issues)
      (List.length r.corrupt_entries)

(* --- the live kernel and its guest load --- *)

(* The stress workload's self-checking syscall loop, made endless: each
   worker owns counter slot [slot] and returns a nonzero code the moment
   an invariant breaks, so a live worker is a passing check. *)
let guest_src =
  {|
int main(int slot, int fd, int serial) {
  int i = 0;
  int v;
  int prev = 0;
  while (1) {
    if (__syscall2(9, slot, 1) < 0)
      return 100;
    v = __syscall1(10, slot);
    if (v <= prev)
      return 101;
    prev = v;
    if (__syscall0(0) != 1)
      return 102;
    if (__syscall0(37) != __getuid())
      return 103;
    if (__syscall2(12, fd, 0) != 500 + slot)
      return 104;
    if (__syscall2(26, slot, 900 + i) < 0)
      return 105;
    if (__syscall1(27, slot) != 900 + i)
      return 106;
    if (__syscall1(29, serial) != 4000 + slot)
      return 107;
    __syscall1(17, 50 + slot);
    __syscall0(18);
    __syscall1(32, 7000 + slot);
    __syscall0(46);
    i = i + 1;
  }
  return 0;
}
|}

let guest_threads = 4

type live = {
  booted : Boot.booted;
  ap : Apply.t;
  guest : Machine.thread list;
}

(* Boot a kernel and start the guest workers. The per-worker file, key
   and xattr slot are allocated sequentially first, as [Corpus.Stress]
   does: the simulated kernel has no locks. *)
let boot_live () =
  let booted = span "kernel.boot" (fun () -> Boot.boot ()) in
  let sc nr args =
    match Boot.syscall booted ~uid:1000 nr (List.map Int32.of_int args) with
    | Ok v -> Int32.to_int v
    | Error f -> failf "guest setup syscall %d: %a" nr Machine.pp_fault f
  in
  let entry =
    Corpus.Userprog.load booted.machine ~name:"bench-guest" ~src:guest_src
  in
  let slots =
    List.init guest_threads (fun slot ->
        let fd = sc 11 [ 500 + slot; 4 ] in
        let serial = sc 28 [ 4000 + slot ] in
        ignore (sc 26 [ slot; 0 ] : int);
        (slot, fd, serial))
  in
  let guest =
    List.map
      (fun (slot, fd, serial) ->
        Machine.spawn booted.machine
          ~name:(Printf.sprintf "guest/%d" slot)
          ~uid:1000 ~entry
          ~args:(List.map Int32.of_int [ slot; fd; serial ]))
      slots
  in
  { booted; ap = Apply.init booted.machine; guest }

let check_guest live =
  List.iter
    (fun (th : Machine.thread) ->
      match th.state with
      | Machine.Runnable | Machine.Sleeping _ -> ()
      | Machine.Exited v -> failf "guest %s exited with %ld" th.name v
      | Machine.Faulted f ->
        failf "guest %s faulted: %a" th.name Machine.pp_fault f)
    live.guest

let run_guest live steps =
  let n =
    span "kernel.run" (fun () -> Machine.run live.booted.machine ~steps)
  in
  Trace.count "kernel.guest_insns" n;
  check_guest live

(* warm the compile cache with the base tree's pre build *)
let warm_cache tree =
  Kbuild.reset_cache ();
  match Kbuild.build_tree ~options:Minic.Driver.pre_build tree with
  | Ok _ -> ()
  | Error e -> failf "warm build: %a" Kbuild.pp_error e

let patch_text (cve : Cve.t) tree = Diff.to_string (Cve.hot_patch cve tree)

(* --- cve-e2e --- *)

(* One long-lived subscriber under guest load. Per op: a 10 000-insn
   guest quantum, then one CVE from patch text through create, a fresh
   repository, a fresh mirror's sync, pending, per-thread apply and
   verify (the timed part), then undo. *)
let cve_e2e_setup ~seed =
  let base = Corpus.Base_kernel.tree () in
  let base_digest = Tree.digest base in
  warm_cache base;
  let cases = List.map (fun cve -> (cve, patch_text cve base)) Cve.all in
  let live = boot_live () in
  let next = passes (Random.State.make [| seed; 1 |]) cases in
  let op () =
    run_guest live 10_000;
    let (cve : Cve.t), text = next () in
    let t0 = Stats.now_ns () in
    let patch = parse text in
    let update = create ~source:base ~patch ~id:cve.id in
    let repo = open_repo () in
    ignore (publish repo ~source:base ~patch ~update : Repo.entry);
    let mirror = Store.create ~name:"bench-mirror" () in
    let r = sync ~id:cve.id ~store:mirror ~base:base_digest (fst repo) in
    let entry =
      match pending (Repo.of_store mirror) ~digest:base_digest with
      | [ e ] -> e
      | l -> failf "%s: %d pending entries on the mirror" cve.id (List.length l)
    in
    let a = apply live.ap entry.update in
    let ms = Stats.ms_since t0 in
    if not (String.equal r.r_head (head (fst repo) ~digest:base_digest)) then
      failf "%s: mirror head differs from the server's" cve.id;
    undo live.ap a;
    if Apply.applied live.ap <> [] then failf "%s: stack not empty after undo" cve.id;
    ms
  in
  (* the paper's exploit check (§6.3), on fresh kernels: each exploit
     works before its update and fails after it *)
  let finish () =
    (try check_guest live; [] with Op_failed m -> [ m ])
    @ List.filter_map
      (fun (ex : Corpus.Exploits.t) ->
        match List.find_opt (fun (c : Cve.t) -> c.id = ex.cve_id) Cve.all with
        | Some cve -> (
          let before = ex.run (Boot.boot ()) in
          let b = Boot.boot () in
          let update = create ~source:base ~patch:(Cve.hot_patch cve base) ~id:cve.id in
          match Apply.apply (Apply.init b.machine) update with
          | Error e -> Some (Format.asprintf "%s: exploit check apply: %a" cve.id Apply.pp_error e)
          | Ok _ ->
            let after = ex.run b in
            if not before.succeeded then Some (cve.id ^ ": exploit fails before its update")
            else if after.succeeded then Some (cve.id ^ ": exploit still works after its update")
            else None)
        | _ -> None)
      Corpus.Exploits.all
  in
  { op; finish }

(* --- chain-stack --- *)

type chain = {
  live : live;
  repo : Repo.t * (unit -> int);
  mirror : Store.t;
  mutable tree : Tree.t;
  mutable digest : string;
  mutable todo : Cve.t list;
}

(* The CVEs a chain may stack. The eight Table-1 CVEs are left out: their
   hook code joins the patched source, and a later update to the same
   unit then fails to link ("unresolved symbol") because the hooks live
   only in the earlier update's module. *)
let stackable = List.filter (fun (c : Cve.t) -> c.custom = None) Cve.all

(* Chains of stacked updates, each a seeded shuffle of [stackable]. Per
   hop: create against the previously patched source, publish to the
   chain's repository, delta-sync its persistent mirror, stack the
   update with a per-thread apply and verify (the timed part), then a
   100 000-insn guest quantum. A finished chain collapses into one
   cumulative update. *)
let chain_stack_setup ~seed =
  let base = Corpus.Base_kernel.tree () in
  let base_digest = Tree.digest base in
  warm_cache base;
  let rng = Random.State.make [| seed; 2 |] in
  let chains = ref 0 in
  let new_chain () =
    incr chains;
    {
      live = boot_live ();
      repo = open_repo ();
      mirror = Store.create ~name:"bench-mirror" ();
      tree = base;
      digest = base_digest;
      todo = shuffle rng stackable;
    }
  in
  let chain = ref (new_chain ()) in
  (* atomic replace of the whole stack; the repository and the mirror
     must be consistent and clean *)
  let collapse c =
    let repo = fst c.repo in
    let id = Printf.sprintf "cumulative-%d" !chains in
    ignore
      (span "repository.publish_cumulative" (fun () ->
           get "publish_cumulative" Repo.pp_error
             (Repo.publish_cumulative repo ~source:base ~update_id:id
                ~description:id))
        : Repo.entry);
    let e =
      match
        span "repository.read_cumulative" (fun () ->
            get "read_cumulative" Repo.pp_error
              (Repo.read_cumulative repo base_digest))
      with
      | Some e -> e
      | None -> failf "%s: no cumulative entry after publishing it" id
    in
    span "apply.apply_cumulative" (fun () ->
        ignore
          (get "apply_cumulative" Apply.pp_error
             (Apply.apply_cumulative ~engage:(engage ()) c.live.ap e.update)
            : Apply.applied));
    verify c.live.ap;
    let r = sync ~id ~store:c.mirror ~base:base_digest repo in
    if not (String.equal r.r_head (head repo ~digest:base_digest)) then
      failf "%s: mirror head differs from the server's" id;
    fsck "chain repository" repo;
    fsck "chain mirror" (Repo.of_store c.mirror)
  in
  let rec next_cve c =
    match c.todo with
    | [] -> None
    | cve :: rest ->
      c.todo <- rest;
      if Cve.applies_to cve c.tree then Some cve else next_cve c
  in
  let rec op () =
    let c = !chain in
    match next_cve c with
    | None ->
      collapse c;
      chain := new_chain ();
      op ()
    | Some cve ->
      let text = span "bench.prep" (fun () -> patch_text cve c.tree) in
      let t0 = Stats.now_ns () in
      let patch = parse text in
      let update = create ~source:c.tree ~patch ~id:cve.id in
      ignore (publish c.repo ~source:c.tree ~patch ~update : Repo.entry);
      let r = sync ~id:cve.id ~store:c.mirror ~base:base_digest (fst c.repo) in
      let entry =
        match pending (Repo.of_store c.mirror) ~digest:c.digest with
        | [ e ] -> e
        | l -> failf "%s: %d pending entries on the mirror" cve.id (List.length l)
      in
      ignore (apply c.live.ap entry.update : Apply.applied);
      let ms = Stats.ms_since t0 in
      if not (String.equal r.r_head entry.next_digest) then
        failf "%s: mirror head is not the new entry" cve.id;
      c.tree <- patch_tree patch c.tree;
      c.digest <- entry.next_digest;
      run_guest c.live 100_000;
      ms
  in
  (* every finished chain was checked as it collapsed; check the one in
     flight *)
  let finish () =
    try
      check_guest !chain.live;
      verify !chain.live.ap;
      fsck "chain repository" (fst !chain.repo);
      fsck "chain mirror" (Repo.of_store !chain.mirror);
      []
    with Op_failed m -> [ m ]
  in
  { op; finish }

(* --- fleet-fanout --- *)

let fleet_depth = 32

(* Subscribers syncing from one in-memory server holding a 32-deep
   chain, one after another. Each starts from a mirror pre-seeded at a
   seeded chain position, and one session in 8 is faulted on its first
   attempt at a seeded frame. *)
let fleet_fanout_setup ~seed =
  let base = Corpus.Base_kernel.tree () in
  let base_digest = Tree.digest base in
  Kbuild.reset_cache ();
  let repo = Repo.of_store (Store.create ~name:"bench-server" ()) in
  let store = Store.create ~name:"bench-create" () in
  ignore
    (List.fold_left
       (fun (tree, depth) (cve : Cve.t) ->
         if depth < fleet_depth && Cve.applies_to cve tree then begin
           let patch = Cve.hot_patch cve tree in
           let c =
             get "create" Create.pp_error
               (Create.create ~store
                  { source = tree; patch; update_id = cve.id; description = cve.id })
           in
           ignore
             (get "publish" Repo.pp_error
                (Repo.publish repo ~source:tree ~patch ~update:c.update)
               : Repo.entry);
           (get_str "patch" (Diff.apply patch tree), depth + 1)
         end
         else (tree, depth))
       (base, 0) Cve.all
      : Tree.t * int);
  let manifest =
    Array.of_list (get "manifest" Repo.pp_error (Repo.manifest repo ~digest:base_digest))
  in
  if Array.length manifest <> fleet_depth then
    failf "server chain is %d deep, not %d" (Array.length manifest) fleet_depth;
  let server_head = head repo ~digest:base_digest in
  let server_store = Repo.store repo in
  (* exactly the refs and blobs a prior sync to position [k] committed *)
  let preseed k =
    let sub = Store.create ~name:"bench-mirror" () in
    for i = 0 to k - 1 do
      let e = manifest.(i) in
      List.iter
        (fun d ->
          match Store.get server_store d with
          | Some b -> ignore (Store.put sub b : Store.digest)
          | None -> failf "server blob %s missing" d)
        (e.me_blob :: List.map fst e.me_objects);
      let hd = Store.put sub e.me_next in
      Store.commit_refs sub [ (Repo.entry_ref e.me_base, e.me_blob); ("fleet:head", hd) ]
    done;
    sub
  in
  (* frames a fault-free session from each position puts on the wire:
     where a fault plan may fire *)
  let frames =
    Array.init (fleet_depth + 1) (fun k ->
        let sub = preseed k in
        let session = Server.session repo in
        let tr, st = Transport.sim ~serve:(Server.handle session) () in
        let r = Subscriber.sync ~store:sub ~base:base_digest ~connect:(fun _ -> Some tr) () in
        if not r.r_synced then failf "probe sync from %d failed" k;
        st.Transport.frames)
  in
  let rng = Random.State.make [| seed; 3 |] in
  let last = ref None and count = ref 0 in
  let op () =
    incr count;
    let k = Random.State.int rng (fleet_depth + 1) in
    let plan =
      if Random.State.int rng 8 <> 0 then None
      else
        Some
          {
            Transport.at = 1 + Random.State.int rng frames.(k);
            kind =
              List.nth Transport.all_fault_kinds
                (Random.State.int rng (List.length Transport.all_fault_kinds));
            seed = Random.State.bits rng;
          }
    in
    let sub = span "bench.prep" (fun () -> preseed k) in
    let id = Printf.sprintf "sub-%d" !count in
    let t0 = Stats.now_ns () in
    let r = sync ?plan ~id ~store:sub ~base:base_digest repo in
    let ms = Stats.ms_since t0 in
    if not (String.equal r.r_head server_head) then
      failf "%s: mirror head differs from the server's" id;
    last := Some sub;
    ms
  in
  let finish () =
    try
      fsck "server" repo;
      Option.iter (fun sub -> fsck "last mirror" (Repo.of_store sub)) !last;
      []
    with Op_failed m -> [ m ]
  in
  { op; finish }

(* --- cold-create --- *)

(* Every (release, applicable CVE) pair, created from a cold compile
   cache and a fresh store. A pair created twice must give the same
   bytes. *)
let cold_create_setup ~seed =
  let cases =
    List.concat_map
      (fun (v : Corpus.Versions.t) ->
        List.filter_map
          (fun (cve : Cve.t) ->
            Option.map
              (fun p -> (v, cve, Diff.to_string p))
              (Corpus.Versions.hot_patch cve v))
          (Corpus.Versions.applicable v))
      (Corpus.Versions.all ())
  in
  let next = passes (Random.State.make [| seed; 4 |]) cases in
  let seen = Hashtbl.create 256 in
  let op () =
    let (v : Corpus.Versions.t), (cve : Cve.t), text = next () in
    Kbuild.reset_cache ();
    let t0 = Stats.now_ns () in
    let patch = parse text in
    let update = create ~source:v.tree ~patch ~id:cve.id in
    let ms = Stats.ms_since t0 in
    if not (List.mem cve.file update.patched_units) then
      failf "%s@%s: update does not patch %s" cve.id v.name cve.file;
    let key = v.name ^ "/" ^ cve.id in
    let bytes = Bytes.to_string (Update.to_bytes update) in
    (match Hashtbl.find_opt seen key with
     | Some b when not (String.equal b bytes) ->
       failf "%s: creation is not deterministic" key
     | Some _ -> ()
     | None -> Hashtbl.add seen key bytes);
    ms
  in
  { op; finish = (fun () -> []) }

let all =
  [
    { name = "cve-e2e"; setup = cve_e2e_setup };
    { name = "chain-stack"; setup = chain_stack_setup };
    { name = "fleet-fanout"; setup = fleet_fanout_setup };
    { name = "cold-create"; setup = cold_create_setup };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
