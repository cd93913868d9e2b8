module Isa = Vmisa.Isa

type fault =
  | Illegal_instruction of int
  | Memory_violation of int
  | Divide_by_zero of int
  | Privilege_violation of int
  | No_syscall_entry
  | Step_limit

let pp_fault ppf = function
  | Illegal_instruction pc ->
    Format.fprintf ppf "illegal instruction at %#x" pc
  | Memory_violation a -> Format.fprintf ppf "memory violation at %#x" a
  | Divide_by_zero pc -> Format.fprintf ppf "divide by zero at %#x" pc
  | Privilege_violation pc ->
    Format.fprintf ppf "privileged escape from unprivileged code at %#x" pc
  | No_syscall_entry -> Format.fprintf ppf "syscall with no entry point"
  | Step_limit -> Format.fprintf ppf "step limit exceeded"

type thread_state =
  | Runnable
  | Sleeping of int
  | Exited of int32
  | Faulted of fault

type thread = {
  tid : int;
  name : string;
  regs : int array;
  mutable pc : int;
  stack_lo : int;
  stack_hi : int;
  mutable state : thread_state;
  mutable uid : int;
  mutable flag_eq : bool;
  mutable flag_lt : bool;
  (* livepatch-style per-task consistency state: [true] once this thread
     has been migrated to the goal side of the active transition. Only
     meaningful while a transition is active; reset to [false] when it
     begins and ends. Threads spawned mid-transition start migrated (a
     fresh stack cannot hold frames of either side). *)
  mutable patch_state : bool;
}

type safe_point = Sp_syscall | Sp_quantum

(* An active per-thread transition: dispatch stubs at patched function
   entries route a thread whose [patch_state] equals [tr_route_state] to
   the replacement code; everyone else falls through to the bytes at the
   entry. An apply transition routes migrated threads to new code (the
   entry still holds old code); a reverse transition routes unmigrated
   threads to the still-live new code (the entry holds restored old
   code). *)
type transition = {
  tr_update : string;
  tr_route_state : bool;
  tr_dispatch : (int, int) Hashtbl.t;  (* function entry -> target *)
}

(* one predecoded instruction; [len = 0] marks an empty slot *)
type decoded = {
  insn : Isa.insn;
  len : int;
}

let empty_slot = { insn = Isa.Hlt; len = 0 }
let page_bits = 12
let page_size = 1 lsl page_bits

(* the longest KVX-32 encoding: a write can change the decode of any pc
   up to [max_insn_len - 1] bytes before it *)
let max_insn_len = 6

(* stands for every page the interpreter has never fetched from: all
   its slots are empty, and it is never written *)
let no_page = Array.make page_size empty_slot

(* stands for every page of guest memory that has never been written:
   all zeros, shared by every machine, and never written itself *)
let zero_page = Bytes.make page_size '\000'

type t = {
  (* guest memory, one 4 KiB page per [page_size] bytes of address
     space; a page the guest or host has never written is [zero_page]
     until its first write gives it its own copy *)
  pages : Bytes.t array;
  mem_size : int;
  (* predecoded instruction cache: per 4 KiB page, one slot per byte
     offset, allocated on the first fetch from the page. [observe]
     empties every slot a write may have changed, so a hit always equals
     decoding the current bytes *)
  icache : decoded array array;
  img : Klink.Image.t;
  mutable syms : Klink.Image.syminfo list;
  (* name -> kallsyms entries bearing it, in [syms] order; maintained
     incrementally by add/remove so per-name lookup is O(1) instead of a
     linear scan of every kernel symbol (run-pre candidate search and
     symbol resolution are the hot consumers) *)
  sym_index : (string, Klink.Image.syminfo list) Hashtbl.t;
  mutable priv : (int * int) list;
  mutable threads_rev : thread list;
  mutable next_tid : int;
  mutable tick_count : int;
  (* monotone instruction odometer: unlike [tick_count] it is never
     rewound by [restore_volatile] (transaction rollback undoes kernel
     time, but not the work the host actually performed) and is not part
     of any snapshot — the supervisor's step accounting hangs off it *)
  mutable retired : int;
  console_buf : Buffer.t;
  mutable module_cursor : int;
  mutable next_stack_top : int;
  mutable syscall_entry_addr : int option;
  (* shadow data structures: (object addr, key) -> shadow addr *)
  shadows : (int * int, int) Hashtbl.t;
  exit_gadget : int;
  sentinel : int;
  call_stack_hi : int;
  call_stack_lo : int;
  mutable in_call_function : bool;
  (* observation and fault-injection hooks (transactional apply support):
     the observer sees every memory mutation before it lands; the
     injectors perturb allocation, host-side writes, and host-initiated
     calls *)
  mutable write_observer : (int -> int -> unit) option;
  mutable inj_alloc : (size:int -> align:int -> bool) option;
  mutable inj_write : (int -> Bytes.t -> Bytes.t) option;
  mutable inj_call : (int -> fault option) option;
  (* per-thread transition machinery: at most one transition is active;
     the safepoint hook (installed by the transition manager) is invoked
     whenever a thread crosses a migration opportunity *)
  mutable transition : transition option;
  mutable safepoint_hook : (thread -> safe_point -> unit) option;
}

exception Vm_fault of fault
exception Out_of_memory of string

(* --- kallsyms name index --- *)

(* process-wide lookup counters (machines may live on several domains) *)
let idx_lookups = Atomic.make 0
let idx_hits = Atomic.make 0

type index_stats = {
  lookups : int;
  hits : int;
}

let kallsyms_index_stats () =
  { lookups = Atomic.get idx_lookups; hits = Atomic.get idx_hits }

let index_add tbl syms =
  List.iter
    (fun (s : Klink.Image.syminfo) ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (cur @ [ s ]))
    syms

let index_rebuild tbl syms =
  Hashtbl.reset tbl;
  index_add tbl syms

let quantum = 64
let stack_size = 64 * 1024
let stack_guard = 4096

(* --- guest memory pages ---

   A load or store finds its page and reads or writes inside it; only a
   half-word or word that straddles a page boundary goes byte by byte.
   The first write to a page that still shares [zero_page] gives it its
   own zeroed copy, a slow path like a cache refill. *)

let page_mask = page_size - 1
let imax (a : int) b = if a >= b then a else b
let imin (a : int) b = if a <= b then a else b

let materialise pages page =
  let p = Bytes.make page_size '\000' in
  pages.(page) <- p;
  p

(* page number [page], ready to be written *)
let writable pages page =
  let p = pages.(page) in
  if p != zero_page then p else materialise pages page

(* the little-endian value of the [n] bytes at [addr], which straddle a
   page boundary *)
let get_straddling pages addr n =
  let v = ref 0 in
  for i = n - 1 downto 0 do
    let a = addr + i in
    v := (!v lsl 8) lor Bytes.get_uint8 pages.(a lsr page_bits) (a land page_mask)
  done;
  !v

let set_straddling pages addr n v =
  for i = 0 to n - 1 do
    let a = addr + i in
    Bytes.set_uint8 (writable pages (a lsr page_bits)) (a land page_mask)
      ((v lsr (8 * i)) land 0xff)
  done

(* The accessors of single values skip the bounds tests of [Array] and
   [Bytes]: every caller has passed [check], which keeps the page number
   inside [pages], and the straddle test keeps the access inside its
   page, so those tests could never fail, yet would cost every guest
   load and store about ten instructions. *)
external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external swap16 : int -> int = "%bswap16"
external swap32 : int32 -> int32 = "%bswap_int32"

let[@inline] load_page (pages : Bytes.t array) addr =
  Array.unsafe_get pages (addr lsr page_bits)

let[@inline] store_page (pages : Bytes.t array) addr =
  let page = addr lsr page_bits in
  let p = Array.unsafe_get pages page in
  if p != zero_page then p else materialise pages page

let[@inline] get_u8 pages addr =
  Char.code (Bytes.unsafe_get (load_page pages addr) (addr land page_mask))

let[@inline] get_u16 pages addr =
  let off = addr land page_mask in
  if off <= page_size - 2 then begin
    let v = get16u (load_page pages addr) off in
    if Sys.big_endian then swap16 v else v
  end
  else get_straddling pages addr 2

(* a word, sign-extended into an [int] *)
let[@inline] get_i32 pages addr =
  let off = addr land page_mask in
  if off <= page_size - 4 then begin
    let v = get32u (load_page pages addr) off in
    Int32.to_int (if Sys.big_endian then swap32 v else v)
  end
  else (get_straddling pages addr 4 lsl 31) asr 31

let[@inline] set_u8 pages addr v =
  Bytes.unsafe_set (store_page pages addr) (addr land page_mask)
    (Char.unsafe_chr (v land 0xff))

let[@inline] set_u16 pages addr v =
  let off = addr land page_mask in
  if off <= page_size - 2 then begin
    let v = v land 0xffff in
    set16u (store_page pages addr) off (if Sys.big_endian then swap16 v else v)
  end
  else set_straddling pages addr 2 v

let[@inline] set_i32 pages addr v =
  let off = addr land page_mask in
  if off <= page_size - 4 then begin
    let v = Int32.of_int v in
    set32u (store_page pages addr) off (if Sys.big_endian then swap32 v else v)
  end
  else set_straddling pages addr 4 v

(* [f page off pos len] for each page's share of [addr, addr + n):
   [len] bytes at offset [off] of page number [page], which are bytes
   [pos] to [pos + len - 1] of the range *)
let iter_pages addr n f =
  let pos = ref 0 in
  while !pos < n do
    let a = addr + !pos in
    let off = a land page_mask in
    let len = imin (n - !pos) (page_size - off) in
    f (a lsr page_bits) off !pos len;
    pos := !pos + len
  done

(* the write path of [write_bytes] and [create] *)
let blit_in pages addr b =
  iter_pages addr (Bytes.length b) (fun page off pos len ->
      Bytes.blit b pos (writable pages page) off len)

let create ?(mem_size = 0x0200_0000) (img : Klink.Image.t) =
  if img.base + img.size > mem_size - 0x10000 then
    invalid_arg "Machine.create: image does not fit";
  let n_pages = (mem_size + page_size - 1) / page_size in
  let pages = Array.make n_pages zero_page in
  blit_in pages img.base img.data;
  let exit_gadget = mem_size - 0x10 in
  let sentinel = mem_size - 0x20 in
  (* exit gadget: mov r1, r0; int 1 — lets spawned entries simply return *)
  blit_in pages exit_gadget
    (Bytes.concat Bytes.empty
       (List.map Isa.encode_to_bytes
          [ Isa.Mov_rr (Isa.R1, Isa.R0); Isa.Int 1 ]));
  blit_in pages sentinel (Isa.encode_to_bytes Isa.Hlt);
  let t =
    {
      pages;
      mem_size;
      icache = Array.make n_pages no_page;
      img;
      syms = img.kallsyms;
      sym_index =
        (let tbl = Hashtbl.create (List.length img.kallsyms) in
         index_add tbl img.kallsyms;
         tbl);
      priv = [ img.text_range ];
      threads_rev = [];
      next_tid = 1;
      tick_count = 0;
      retired = 0;
      console_buf = Buffer.create 256;
      module_cursor = (img.base + img.size + 0x1_0000 + 0xfff) land lnot 0xfff;
      next_stack_top = mem_size - 0x4000;
      syscall_entry_addr = None;
      shadows = Hashtbl.create 16;
      exit_gadget;
      sentinel;
      call_stack_hi = mem_size - 0x100;
      call_stack_lo = mem_size - 0x3000;
      in_call_function = false;
      write_observer = None;
      inj_alloc = None;
      inj_write = None;
      inj_call = None;
      transition = None;
      safepoint_hook = None;
    }
  in
  (match Klink.Image.lookup_global img "syscall_entry" with
   | Some s -> t.syscall_entry_addr <- Some s.addr
   | None -> ());
  t

let image t = t.img
let tick t = t.tick_count
let instructions_retired t = t.retired
let console t = Buffer.contents t.console_buf
let kallsyms t = t.syms

let add_kallsyms t more =
  t.syms <- t.syms @ more;
  index_add t.sym_index more

let remove_kallsyms t pred =
  t.syms <- List.filter (fun s -> not (pred s)) t.syms;
  Hashtbl.filter_map_inplace
    (fun _name entries ->
      match List.filter (fun s -> not (pred s)) entries with
      | [] -> None
      | kept -> Some kept)
    t.sym_index

let lookup_name t name =
  Atomic.incr idx_lookups;
  Trace.count "kallsyms.lookups" 1;
  match Hashtbl.find_opt t.sym_index name with
  | Some entries ->
    Atomic.incr idx_hits;
    Trace.count "kallsyms.hits" 1;
    entries
  | None -> []
let add_privileged_range t r = t.priv <- r :: t.priv

let remove_privileged_range t r =
  let removed = ref false in
  t.priv <-
    List.filter
      (fun x ->
        if (not !removed) && x = r then begin
          removed := true;
          false
        end
        else true)
      t.priv

let set_write_observer t f = t.write_observer <- f
let set_alloc_injector t f = t.inj_alloc <- f
let set_write_injector t f = t.inj_write <- f
let set_call_injector t f = t.inj_call <- f

let clear_injectors t =
  t.inj_alloc <- None;
  t.inj_write <- None;
  t.inj_call <- None
let syscall_entry t = t.syscall_entry_addr

(* --- per-thread transitions --- *)

let threads t = List.rev t.threads_rev

let begin_transition t ~update ~route_migrated dispatch =
  (match t.transition with
   | Some tr ->
     invalid_arg
       (Printf.sprintf
          "Machine.begin_transition: transition for %s already active"
          tr.tr_update)
   | None -> ());
  let tbl = Hashtbl.create (List.length dispatch) in
  List.iter (fun (entry, target) -> Hashtbl.replace tbl entry target) dispatch;
  List.iter (fun th -> th.patch_state <- false) t.threads_rev;
  t.transition <-
    Some { tr_update = update; tr_route_state = route_migrated;
           tr_dispatch = tbl }

let end_transition t =
  if t.transition = None then
    invalid_arg "Machine.end_transition: no active transition";
  t.transition <- None;
  List.iter (fun th -> th.patch_state <- false) t.threads_rev

let transition_update t =
  Option.map (fun tr -> tr.tr_update) t.transition

let set_safepoint_hook t f = t.safepoint_hook <- f

let migrate_thread th = th.patch_state <- true
let thread_migrated (th : thread) = th.patch_state

let notify_safepoint t th sp =
  match t.safepoint_hook with
  | Some f when t.transition <> None -> f th sp
  | _ -> ()

(* the dispatch stub: consulted before decoding — the analogue of an
   ftrace-style handler at the patched entry rewriting the saved ip *)
let dispatch_redirect th tr =
  match Hashtbl.find_opt tr.tr_dispatch th.pc with
  | Some target when th.patch_state = tr.tr_route_state -> th.pc <- target
  | _ -> ()

let transition_bindings t =
  Option.map
    (fun tr ->
      ( tr.tr_update,
        tr.tr_route_state,
        List.sort compare
          (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tr.tr_dispatch []) ))
    t.transition

(* --- memory --- *)

let[@inline] check t addr size =
  if addr < 0x1000 || addr + size > t.mem_size then
    raise (Vm_fault (Memory_violation addr))

(* empty the cached decodes of every pc whose instruction may overlap
   [addr, addr + len): those starting in the range, and those starting up
   to [max_insn_len - 1] bytes before it (straddling the write or a page
   boundary). Pages never fetched from cost one load each. *)
let invalidate t addr len =
  let lo = imax 0 (addr - (max_insn_len - 1)) and hi = addr + len in
  for page = lo lsr page_bits to (hi - 1) lsr page_bits do
    let slots = t.icache.(page) in
    if slots != no_page then begin
      let base = page lsl page_bits in
      let a = imax lo base and b = imin hi (base + page_size) in
      Array.fill slots (a - base) (b - a) empty_slot
    end
  done

(* every mutation of guest memory announces (addr, len) here *before* the
   bytes change, so the instruction cache drops stale decodes and a
   transaction journal can capture the old contents *)
let[@inline] observe t addr len =
  invalidate t addr len;
  match t.write_observer with None -> () | Some f -> f addr len

let read_u8 t a =
  check t a 1;
  get_u8 t.pages a

let read_i32 t a =
  check t a 4;
  Int32.of_int (get_i32 t.pages a)

let read_bytes t a n =
  check t a (max n 1);
  let b = Bytes.create n in
  iter_pages a n (fun page off pos len ->
      Bytes.blit t.pages.(page) off b pos len);
  b

let write_u8 t a v =
  check t a 1;
  observe t a 1;
  set_u8 t.pages a v

let write_i32 t a v =
  check t a 4;
  observe t a 4;
  set_i32 t.pages a (Int32.to_int v)

let write_bytes t a b =
  check t a (max (Bytes.length b) 1);
  observe t a (Bytes.length b);
  let b = match t.inj_write with None -> b | Some f -> f a b in
  blit_in t.pages a b

let alloc_module t ~size ~align =
  (match t.inj_alloc with
   | Some f when f ~size ~align ->
     raise (Out_of_memory "injected allocation failure")
   | _ -> ());
  let align = max 1 align in
  let addr = (t.module_cursor + align - 1) / align * align in
  let next = addr + max size 1 in
  if next > t.next_stack_top - (64 * 1024) then
    raise (Out_of_memory "module area exhausted");
  t.module_cursor <- next;
  addr

let module_cursor t = t.module_cursor

let free_module_tail t ~from ~upto =
  if t.module_cursor = upto then t.module_cursor <- from

let reserve_module_upto t c =
  if t.module_cursor < c then t.module_cursor <- c

(* --- threads --- *)

(* registers hold 32-bit values sign-extended into an int; [wrap] brings
   the result of [+ - * /], negation and [lsl]/[lsr] back to that form
   ([land lor lxor lnot asr mod] already keep it) *)
let wrap x = (x lsl 31) asr 31

let[@inline] push_on th t v =
  let sp = th.regs.(8) - 4 in
  if sp < th.stack_lo then raise (Vm_fault (Memory_violation sp));
  check t sp 4;
  observe t sp 4;
  set_i32 t.pages sp v;
  th.regs.(8) <- sp

let spawn t ~name ~uid ~entry ~args =
  let stack_hi = t.next_stack_top in
  let stack_lo = stack_hi - stack_size in
  if stack_lo <= t.module_cursor then
    failwith "Machine.spawn: out of stack space";
  t.next_stack_top <- stack_lo - stack_guard;
  let th =
    {
      tid = t.next_tid;
      name;
      regs = Array.make 9 0;
      pc = entry;
      stack_lo;
      stack_hi;
      state = Runnable;
      uid;
      flag_eq = false;
      flag_lt = false;
      (* a thread born mid-transition has a clean stack: start it on the
         goal side, like livepatch does for fresh tasks *)
      patch_state = t.transition <> None;
    }
  in
  t.next_tid <- t.next_tid + 1;
  th.regs.(8) <- stack_hi;
  List.iter (fun v -> push_on th t (Int32.to_int v)) (List.rev args);
  push_on th t t.exit_gadget;
  t.threads_rev <- th :: t.threads_rev;
  th

(* --- interpreter ---

   An instruction allocates nothing and calls no C code and no other
   module, except on slow paths: a cache refill, a trap, a dispatch stub
   while a transition is active, a write observer, a fault. Dev builds
   compile with -opaque, so nothing is inlined across modules and
   little within one: the helpers [step] runs on every instruction are
   marked [@inline], and [reg_index] is a local copy of
   [Isa.reg_to_int]. *)

let in_priv t pc = List.exists (fun (lo, hi) -> pc >= lo && pc < hi) t.priv

let[@inline] cond_holds th = function
  | Isa.Eq -> th.flag_eq
  | Isa.Ne -> not th.flag_eq
  | Isa.Lt -> th.flag_lt
  | Isa.Ge -> not th.flag_lt
  | Isa.Gt -> (not th.flag_lt) && not th.flag_eq
  | Isa.Le -> th.flag_lt || th.flag_eq

let set_flags th (a : int) b =
  th.flag_eq <- a = b;
  th.flag_lt <- a < b

let[@inline] load t width addr =
  match width with
  | Isa.W8 ->
    check t addr 1;
    get_u8 t.pages addr
  | Isa.W16 ->
    check t addr 2;
    get_u16 t.pages addr
  | Isa.W32 ->
    check t addr 4;
    get_i32 t.pages addr

let[@inline] store t width addr v =
  match width with
  | Isa.W8 ->
    check t addr 1;
    observe t addr 1;
    set_u8 t.pages addr v
  | Isa.W16 ->
    check t addr 2;
    observe t addr 2;
    set_u16 t.pages addr v
  | Isa.W32 ->
    check t addr 4;
    observe t addr 4;
    set_i32 t.pages addr v

let do_int t th code next =
  let regs = th.regs in
  match code with
  | 0 ->
    Buffer.add_char t.console_buf (Char.chr (regs.(1) land 0xff));
    `Ok
  | 1 ->
    th.state <- Exited (Int32.of_int regs.(1));
    `Stop
  | 2 -> `Yield
  | 3 ->
    regs.(0) <- wrap t.tick_count;
    `Ok
  | 4 ->
    regs.(0) <- wrap th.uid;
    `Ok
  | 5 ->
    (* privileged: only kernel/module text may change credentials *)
    if not (in_priv t th.pc) then
      raise (Vm_fault (Privilege_violation th.pc));
    th.uid <- regs.(1);
    `Ok
  | 6 ->
    th.state <- Sleeping (t.tick_count + imax 0 regs.(1));
    `Sleep
  | 8 ->
    (* shadow_attach(obj, key, size) -> addr; zero-filled, idempotent *)
    let obj = regs.(1) and key = regs.(2) and size = regs.(3) in
    let addr =
      match Hashtbl.find_opt t.shadows (obj, key) with
      | Some a -> a
      | None ->
        let a = alloc_module t ~size:(imax 4 size) ~align:4 in
        Hashtbl.replace t.shadows (obj, key) a;
        a
    in
    regs.(0) <- wrap addr;
    `Ok
  | 9 ->
    let obj = regs.(1) and key = regs.(2) in
    regs.(0) <-
      wrap (Option.value ~default:0 (Hashtbl.find_opt t.shadows (obj, key)));
    `Ok
  | 10 ->
    Hashtbl.remove t.shadows (regs.(1), regs.(2));
    `Ok
  | 0x80 -> (
    match t.syscall_entry_addr with
    | None -> raise (Vm_fault No_syscall_entry)
    | Some entry ->
      (* the syscall boundary is a migration safe point: the thread is in
         user code, about to enter the kernel fresh *)
      notify_safepoint t th Sp_syscall;
      (* behaves like a call: push the return address, enter the kernel *)
      push_on th t next;
      th.pc <- entry;
      `Jumped)
  | _ -> raise (Vm_fault (Illegal_instruction th.pc))

let decode_at t pc =
  match Isa.decode (fun a -> check t a 1; get_u8 t.pages a) pc with
  | insn, len -> { insn; len }
  | exception Isa.Decode_error _ -> raise (Vm_fault (Illegal_instruction pc))

(* decode the instruction at [pc] into its cache slot. A decode failure
   is never cached, so it faults on every attempt. *)
let refill t pc =
  let page = pc lsr page_bits in
  (* outside memory decoding faults, leaving nothing to cache *)
  if pc < 0 || page >= Array.length t.icache then decode_at t pc
  else begin
    let slots =
      match t.icache.(page) with
      | s when s != no_page -> s
      | _ ->
        let s = Array.make page_size empty_slot in
        t.icache.(page) <- s;
        s
    in
    let d = decode_at t pc in
    slots.(pc land (page_size - 1)) <- d;
    d
  end

(* the instruction at [pc]: a cache hit, or [refill] *)
let[@inline] fetch t pc =
  let page = pc lsr page_bits in
  if pc >= 0 && page < Array.length t.icache then begin
    let d = t.icache.(page).(pc land (page_size - 1)) in
    if d.len > 0 then d else refill t pc
  end
  else refill t pc

let[@inline] reg_index = function
  | Isa.R0 -> 0 | Isa.R1 -> 1 | Isa.R2 -> 2 | Isa.R3 -> 3
  | Isa.R4 -> 4 | Isa.R5 -> 5 | Isa.R6 -> 6 | Isa.R7 -> 7
  | Isa.SP -> 8

let[@inline] reg th r = th.regs.(reg_index r)
let[@inline] set_reg th r v = th.regs.(reg_index r) <- v

(* the tail of an instruction that writes a register: set [r] to [v] and
   fall through to [next] *)
let[@inline] write_reg th next r v =
  set_reg th r v;
  th.pc <- next;
  `Ok

(* Execute one instruction. Returns [`Ok | `Yield | `Stop]; a fault
   raises [Vm_fault], which the caller's loop catches. *)
let step t th =
  (match t.transition with None -> () | Some tr -> dispatch_redirect th tr);
  let pc = th.pc in
  let { insn; len } = fetch t pc in
  let next = pc + len in
  let regs = th.regs in
  match insn with
  | Isa.Hlt ->
    th.state <- Exited 0l;
    `Stop
  | Isa.Nop _ ->
    th.pc <- next;
    `Ok
  | Isa.Mov_rr (a, b) -> write_reg th next a (reg th b)
  | Isa.Mov_ri (a, v) -> write_reg th next a (Int32.to_int v)
  | Isa.Load (w, rd, rb, off) ->
    write_reg th next rd (load t w (reg th rb + off))
  | Isa.Store (w, rb, off, rs) ->
    store t w (reg th rb + off) (reg th rs);
    th.pc <- next;
    `Ok
  | Isa.Load_abs (w, rd, a) -> write_reg th next rd (load t w (Int32.to_int a))
  | Isa.Store_abs (w, a, rs) ->
    store t w (Int32.to_int a) (reg th rs);
    th.pc <- next;
    `Ok
  | Isa.Add (a, b) -> write_reg th next a (wrap (reg th a + reg th b))
  | Isa.Sub (a, b) -> write_reg th next a (wrap (reg th a - reg th b))
  | Isa.Mul (a, b) -> write_reg th next a (wrap (reg th a * reg th b))
  | Isa.Div (a, b) ->
    let d = reg th b in
    if d = 0 then raise (Vm_fault (Divide_by_zero pc));
    write_reg th next a (wrap (reg th a / d))
  | Isa.Mod (a, b) ->
    let d = reg th b in
    if d = 0 then raise (Vm_fault (Divide_by_zero pc));
    write_reg th next a (reg th a mod d)
  | Isa.And (a, b) -> write_reg th next a (reg th a land reg th b)
  | Isa.Or (a, b) -> write_reg th next a (reg th a lor reg th b)
  | Isa.Xor (a, b) -> write_reg th next a (reg th a lxor reg th b)
  | Isa.Shl (a, b) ->
    write_reg th next a (wrap (reg th a lsl (reg th b land 31)))
  | Isa.Shr (a, b) ->
    write_reg th next a
      (wrap ((reg th a land 0xffff_ffff) lsr (reg th b land 31)))
  | Isa.Sar (a, b) -> write_reg th next a (reg th a asr (reg th b land 31))
  | Isa.Addi (a, v) -> write_reg th next a (wrap (reg th a + Int32.to_int v))
  | Isa.Cmp (a, b) ->
    set_flags th (reg th a) (reg th b);
    th.pc <- next;
    `Ok
  | Isa.Cmpi (a, v) ->
    set_flags th (reg th a) (Int32.to_int v);
    th.pc <- next;
    `Ok
  | Isa.Neg a -> write_reg th next a (wrap (- reg th a))
  | Isa.Not a -> write_reg th next a (lnot (reg th a))
  | Isa.Setcc (c, a) -> write_reg th next a (if cond_holds th c then 1 else 0)
  | Isa.Jmp d ->
    th.pc <- next + Int32.to_int d;
    `Ok
  | Isa.Jmp_s d ->
    th.pc <- next + d;
    `Ok
  | Isa.Jcc (c, d) ->
    th.pc <- (if cond_holds th c then next + Int32.to_int d else next);
    `Ok
  | Isa.Jcc_s (c, d) ->
    th.pc <- (if cond_holds th c then next + d else next);
    `Ok
  | Isa.Call d ->
    push_on th t next;
    th.pc <- next + Int32.to_int d;
    `Ok
  | Isa.Call_r r ->
    push_on th t next;
    th.pc <- reg th r;
    `Ok
  | Isa.Ret ->
    let sp = regs.(8) in
    th.pc <- load t Isa.W32 sp;
    regs.(8) <- sp + 4;
    `Ok
  | Isa.Push r ->
    push_on th t (reg th r);
    th.pc <- next;
    `Ok
  | Isa.Pop r ->
    let sp = regs.(8) in
    set_reg th r (load t Isa.W32 sp);
    regs.(8) <- sp + 4;
    th.pc <- next;
    `Ok
  | Isa.Sext8 r -> write_reg th next r ((reg th r lsl 55) asr 55)
  | Isa.Sext16 r -> write_reg th next r ((reg th r lsl 47) asr 47)
  | Isa.Zext8 r -> write_reg th next r (reg th r land 0xff)
  | Isa.Zext16 r -> write_reg th next r (reg th r land 0xffff)
  | Isa.Int code -> (
    match do_int t th code next with
    | `Ok ->
      th.pc <- next;
      `Ok
    | `Yield ->
      th.pc <- next;
      `Yield
    | `Sleep ->
      (* resume after the sleep instruction, not at it *)
      th.pc <- next;
      `Stop
    | `Jumped -> `Ok
    | `Stop -> `Stop)

let retire t =
  t.tick_count <- t.tick_count + 1;
  t.retired <- t.retired + 1

(* Run [th] for up to [n] instructions; returns instructions executed. A
   faulting instruction counts as executed. The fault handler is
   installed once per run, not per instruction. *)
let run_thread t th n =
  let executed = ref 0 in
  let running = ref true in
  (try
     while !running && !executed < n do
       (match step t th with
        | `Ok -> ()
        | `Yield | `Stop -> running := false);
       incr executed;
       retire t
     done
   with Vm_fault f ->
     th.state <- Faulted f;
     incr executed;
     retire t);
  !executed

let wake_sleepers t =
  List.iter
    (fun th ->
      match th.state with
      | Sleeping until when t.tick_count >= until -> th.state <- Runnable
      | _ -> ())
    (threads t)

let run t ~steps =
  let executed = ref 0 in
  let progress = ref true in
  while !executed < steps && !progress do
    wake_sleepers t;
    let runnable =
      List.filter (fun th -> th.state = Runnable) (threads t)
    in
    if runnable = [] then begin
      (* advance time to the next wake-up, if any thread sleeps *)
      let next_wake =
        List.filter_map
          (fun th -> match th.state with Sleeping u -> Some u | _ -> None)
          (threads t)
      in
      match next_wake with
      | [] -> progress := false
      | l ->
        t.tick_count <- max t.tick_count (List.fold_left min max_int l)
    end
    else
      List.iter
        (fun th ->
          if th.state = Runnable && !executed < steps then begin
            executed :=
              !executed + run_thread t th (min quantum (steps - !executed));
            (* the end of a scheduler quantum is a migration safe point *)
            notify_safepoint t th Sp_quantum
          end)
        runnable
  done;
  !executed

(* the host-initiated call's loop: runs [th] until it returns into the
   sentinel, stops, or uses up [step_limit] steps *)
let rec call_loop t th steps step_limit =
  if th.pc = t.sentinel then Ok (Int32.of_int th.regs.(0))
  else if steps >= step_limit then Error Step_limit
  else begin
    let r = step t th in
    t.retired <- t.retired + 1;
    match r with
    | `Ok | `Yield -> call_loop t th (steps + 1) step_limit
    | `Stop -> (
      match th.state with
      | Exited v -> Ok v
      | _ -> Ok (Int32.of_int th.regs.(0)))
  end

let call_function ?(step_limit = 2_000_000) t ~addr ~args =
  if t.in_call_function then
    invalid_arg "Machine.call_function: reentrant call";
  t.in_call_function <- true;
  Fun.protect
    ~finally:(fun () -> t.in_call_function <- false)
    (fun () ->
      match
        match t.inj_call with Some f -> f addr | None -> None
      with
      | Some injected -> Error injected
      | None ->
      let th =
        {
          tid = 0;
          name = "<call>";
          regs = Array.make 9 0;
          pc = addr;
          stack_lo = t.call_stack_lo;
          stack_hi = t.call_stack_hi;
          state = Runnable;
          uid = 0;
          flag_eq = false;
          flag_lt = false;
          (* host-initiated calls run on the goal side of any active
             transition (their stack is fresh) *)
          patch_state = true;
        }
      in
      th.regs.(8) <- t.call_stack_hi;
      List.iter (fun v -> push_on th t (Int32.to_int v)) (List.rev args);
      push_on th t t.sentinel;
      try call_loop t th 0 step_limit
      with Vm_fault f ->
        t.retired <- t.retired + 1;
        Error f)

let backtrace t th =
  let resolve addr =
    let best = ref None in
    List.iter
      (fun (s : Klink.Image.syminfo) ->
        if s.kind = `Func && addr >= s.addr && addr < s.addr + max 1 s.size
        then
          match !best with
          | Some (b : Klink.Image.syminfo) when b.addr >= s.addr -> ()
          | _ -> best := Some s)
      t.syms;
    Option.map
      (fun (s : Klink.Image.syminfo) ->
        Printf.sprintf "%s+0x%x" s.name (addr - s.addr))
      !best
  in
  let frames = ref [] in
  (match resolve th.pc with
   | Some f -> frames := f :: !frames
   | None -> frames := Printf.sprintf "0x%x" th.pc :: !frames);
  let a = ref th.regs.(8) in
  while !a + 4 <= th.stack_hi do
    (match resolve (Int32.to_int (read_i32 t !a)) with
     | Some f -> frames := f :: !frames
     | None -> ());
    a := !a + 4
  done;
  List.rev !frames

(* Model of the paper's stop_machine cost (§5.2: "about 0.7 milliseconds"):
   a fixed rendezvous cost plus a per-CPU synchronisation term. We treat
   each live thread as occupying a CPU. *)
let stop_machine t f =
  let live =
    List.length
      (List.filter
         (fun th -> match th.state with Runnable | Sleeping _ -> true | _ -> false)
         (threads t))
  in
  let pause_ns = 500_000 + (50_000 * live) in
  let r = f () in
  (r, pause_ns)

(* --- shadow variables: host view of the per-object side table ---

   The same (object address, key) -> shadow address table the kernel
   reaches through INT 8/9/10 (__shadow_attach / __shadow_get /
   __shadow_detach). The table is volatile state: a rolled-back
   transaction unwinds attachments and detachments alike. *)

let shadow_count t = Hashtbl.length t.shadows

(* rebind to an existing allocation: undoing a cumulative update revives
   the displaced updates' side tables exactly as the collapse found them
   (their shadow memory was never journal-replayed away) *)
let shadow_reattach t ~obj ~key ~addr = Hashtbl.replace t.shadows (obj, key) addr

(* --- transactional state capture --- *)

type thread_snap = {
  ts_thread : thread;
  ts_pc : int;
  ts_regs : int array;
  ts_state : thread_state;
  ts_uid : int;
  ts_eq : bool;
  ts_lt : bool;
  ts_patch : bool;
}

type volatile_state = {
  v_syms : Klink.Image.syminfo list;
  v_priv : (int * int) list;
  v_threads : thread_snap list;
  v_threads_rev : thread list;
  v_next_tid : int;
  v_tick : int;
  v_console_len : int;
  v_module_cursor : int;
  v_next_stack_top : int;
  v_syscall : int option;
  v_shadows : (int * int, int) Hashtbl.t;
  (* a rolled-back transaction must also unwind a mid-flight transition *)
  v_transition : (string * bool * (int * int) list) option;
}

let save_volatile t =
  {
    v_syms = t.syms;
    v_priv = t.priv;
    v_threads =
      List.map
        (fun th ->
          { ts_thread = th; ts_pc = th.pc; ts_regs = Array.copy th.regs;
            ts_state = th.state; ts_uid = th.uid; ts_eq = th.flag_eq;
            ts_lt = th.flag_lt; ts_patch = th.patch_state })
        t.threads_rev;
    v_threads_rev = t.threads_rev;
    v_next_tid = t.next_tid;
    v_tick = t.tick_count;
    v_console_len = Buffer.length t.console_buf;
    v_module_cursor = t.module_cursor;
    v_next_stack_top = t.next_stack_top;
    v_syscall = t.syscall_entry_addr;
    v_shadows = Hashtbl.copy t.shadows;
    v_transition = transition_bindings t;
  }

let restore_volatile t v =
  t.syms <- v.v_syms;
  index_rebuild t.sym_index v.v_syms;
  t.priv <- v.v_priv;
  List.iter
    (fun s ->
      let th = s.ts_thread in
      th.pc <- s.ts_pc;
      Array.blit s.ts_regs 0 th.regs 0 (Array.length th.regs);
      th.state <- s.ts_state;
      th.uid <- s.ts_uid;
      th.flag_eq <- s.ts_eq;
      th.flag_lt <- s.ts_lt;
      th.patch_state <- s.ts_patch)
    v.v_threads;
  t.threads_rev <- v.v_threads_rev;
  t.next_tid <- v.v_next_tid;
  t.tick_count <- v.v_tick;
  if Buffer.length t.console_buf > v.v_console_len then begin
    let kept = Buffer.sub t.console_buf 0 v.v_console_len in
    Buffer.clear t.console_buf;
    Buffer.add_string t.console_buf kept
  end;
  t.module_cursor <- v.v_module_cursor;
  t.next_stack_top <- v.v_next_stack_top;
  t.syscall_entry_addr <- v.v_syscall;
  Hashtbl.reset t.shadows;
  Hashtbl.iter (fun k x -> Hashtbl.replace t.shadows k x) v.v_shadows;
  t.transition <-
    Option.map
      (fun (update, route, bindings) ->
        let tbl = Hashtbl.create (List.length bindings) in
        List.iter (fun (e, tg) -> Hashtbl.replace tbl e tg) bindings;
        { tr_update = update; tr_route_state = route; tr_dispatch = tbl })
      v.v_transition

(* --- byte-identity snapshots (rollback verification) --- *)

type snapshot = {
  (* a copy of every page but [zero_page], which is shared *)
  s_pages : Bytes.t array;
  s_syms : Klink.Image.syminfo list;
  s_priv : (int * int) list;
  s_threads :
    (int * string * int * int array * thread_state * int * bool * bool
     * bool)
    list;
  s_tick : int;
  s_console : string;
  s_shadows : ((int * int) * int) list;
  s_transition : (string * bool * (int * int) list) option;
}

let thread_tuples t =
  List.map
    (fun th ->
      (th.tid, th.name, th.pc, Array.copy th.regs, th.state, th.uid,
       th.flag_eq, th.flag_lt, th.patch_state))
    (threads t)

let shadow_bindings t =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.shadows [])

let snapshot t =
  {
    s_pages =
      Array.map (fun p -> if p == zero_page then p else Bytes.copy p) t.pages;
    s_syms = t.syms;
    s_priv = t.priv;
    s_threads = thread_tuples t;
    s_tick = t.tick_count;
    s_console = Buffer.contents t.console_buf;
    s_shadows = shadow_bindings t;
    s_transition = transition_bindings t;
  }

let diff_snapshot t s =
  let out = ref [] in
  let add fmt = Printf.ksprintf (fun m -> out := m :: !out) fmt in
  let shown = ref 0 in
  for page = 0 to imin (Array.length t.pages) (Array.length s.s_pages) - 1 do
    let now = t.pages.(page) and was = s.s_pages.(page) in
    if !shown < 4 && now != was && not (Bytes.equal now was) then begin
      let i = ref 0 in
      while !i < page_size && !shown < 4 do
        if Bytes.get now !i <> Bytes.get was !i then begin
          add "memory differs at %#x: now %#x, snapshot %#x"
            ((page lsl page_bits) + !i)
            (Bytes.get_uint8 now !i) (Bytes.get_uint8 was !i);
          incr shown;
          (* jump past this word to avoid flooding the report *)
          i := ((!i / 16) + 1) * 16
        end
        else incr i
      done
    end
  done;
  if List.sort compare t.syms <> List.sort compare s.s_syms then
    add "kallsyms differ: %d entries now, %d in snapshot"
      (List.length t.syms) (List.length s.s_syms);
  if List.sort compare t.priv <> List.sort compare s.s_priv then
    add "privileged ranges differ: %d now, %d in snapshot"
      (List.length t.priv) (List.length s.s_priv);
  let now_threads = thread_tuples t in
  if List.length now_threads <> List.length s.s_threads then
    add "thread count differs: %d now, %d in snapshot"
      (List.length now_threads) (List.length s.s_threads)
  else
    List.iter2
      (fun (tid, name, pc, regs, state, uid, eq, lt, patch)
           (tid', _, pc', regs', state', uid', eq', lt', patch') ->
        if
          tid <> tid' || pc <> pc' || regs <> regs' || state <> state'
          || uid <> uid' || eq <> eq' || lt <> lt' || patch <> patch'
        then add "thread %d (%s) state differs from snapshot" tid name)
      now_threads s.s_threads;
  if t.tick_count <> s.s_tick then
    add "tick differs: %d now, %d in snapshot" t.tick_count s.s_tick;
  if not (String.equal (Buffer.contents t.console_buf) s.s_console) then
    add "console output differs";
  if shadow_bindings t <> s.s_shadows then add "shadow bindings differ";
  if transition_bindings t <> s.s_transition then
    add "active transition differs from snapshot";
  List.rev !out
