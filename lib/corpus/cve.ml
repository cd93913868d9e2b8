type consequence = Priv_escalation | Info_disclosure

type custom_reason =
  | Changes_data_init
  | Adds_struct_field
  | Updates_derived_state

let reason_to_string = function
  | Changes_data_init -> "changes data init"
  | Adds_struct_field -> "adds field to struct"
  | Updates_derived_state -> "updates derived state"

type t = {
  id : string;
  file : string;
  desc : string;
  consequence : consequence;
  fix : (string * string * string) list;
  custom : (custom_reason * string) option;
}

(* helper: a fix confined to the CVE's own file *)
let mk id file desc consequence ?custom fix_pairs =
  { id; file; desc; consequence;
    fix = List.map (fun (o, n) -> (file, o, n)) fix_pairs; custom }

let mk_multi id file desc consequence ?custom fix =
  { id; file; desc; consequence; fix; custom }

(* ===== the four exploitable analogues ===== *)

let cve_entry_signed =
  mk "CVE-2007-4573" "kernel/entry.s"
    "syscall entry path misses the negative-number check, indexing below \
     sys_call_table (ia32entry.S analogue)"
    Priv_escalation
    [ ( "  cmpi r0, 48\n  jge .Lbad",
        "  cmpi r0, 48\n  jge .Lbad\n  cmpi r0, 0\n  jl .Lbad" ) ]

let cve_prctl =
  mk "CVE-2006-2451" "kernel/creds.c"
    "prctl(PR_SET_KEEPCAPS) stores an unmasked capability word, granting \
     CAP_ADMIN to unprivileged callers"
    Priv_escalation
    [ ("    cur_caps = arg;", "    cur_caps = arg & 1;") ]

let cve_vmsplice =
  mk "CVE-2008-0600" "kernel/pipe.c"
    "pipe write misses the length check, overwriting the notify function \
     pointer past the buffer (vmsplice analogue)"
    Priv_escalation
    [ ( "  int *p = (int*)src;\n  for (i = 0; i < len; i = i + 1)\n    pipe_buf[i] = p[i];",
        "  int *p = (int*)src;\n  if (len < 0 || len > 16)\n    return -1;\n  for (i = 0; i < len; i = i + 1)\n    pipe_buf[i] = p[i];" ) ]

let cve_proc_leak =
  mk "CVE-2006-3626" "kernel/proc.c"
    "proc status read leaks another task's session token without an \
     ownership check"
    Info_disclosure
    [ ( "  if (field == 2)\n    return t->token;",
        "  if (field == 2) {\n    if (__getuid() != 0 && t->uid != __getuid())\n      return -1;\n    return t->token;\n  }" ) ]

(* ===== the dst_ca ambiguous-symbol CVE ===== *)

let cve_dst_ca =
  mk "CVE-2005-4639" "kernel/dst_ca.c"
    "dst_ca slot info copies the session token to any caller"
    Info_disclosure
    [ ( "  if (field == 1)\n    return boot_token;",
        "  if (field == 1) {\n    if (__getuid() != 0)\n      return -1;\n    return boot_token;\n  }" ) ]

(* ===== small fixes to inlined checker functions ===== *)

let small_inlined =
  [
    mk "CVE-2005-3110" "kernel/pipe.c"
      "splice page-count check off by two" Info_disclosure
      [ ( "static int splice_limit(int n) { return n > 17; }",
          "static int splice_limit(int n) { return n > 15; }" ) ];
    mk "CVE-2005-3111" "kernel/counters.c"
      "counter index check misses negative values (out-of-bounds write)"
      Priv_escalation
      [ ( "static int counter_ok(int idx) { return idx < 8; }",
          "static int counter_ok(int idx) { return idx >= 0 && idx < 8; }" )
      ];
    mk "CVE-2005-3112" "kernel/net.c"
      "frame length check misses negative lengths" Priv_escalation
      [ ( "static int frame_ok(int len) { return len <= tx_limit; }",
          "static int frame_ok(int len) { return len >= 0 && len <= tx_limit; }"
        ) ];
    mk "CVE-2005-3113" "kernel/mm.c"
      "brk bound check accepts negative sizes" Priv_escalation
      [ ( "static int within_brk(int n) { return n <= brk_limit; }",
          "static int within_brk(int n) { return n >= 0 && n <= brk_limit; }"
        ) ];
    mk "CVE-2005-3114" "kernel/signal.c"
      "signal 31 is reserved for the kernel but passes validation"
      Priv_escalation
      [ ( "static int sig_valid(int s) { return s > 0 && s < 32; }",
          "static int sig_valid(int s) { return s > 0 && s < 31; }" ) ];
    mk "CVE-2005-3115" "kernel/tty.c"
      "tty ownership check bypassed when the owner field is zero"
      Priv_escalation
      [ ( "static int is_owner() { return __getuid() == tty_owner; }",
          "static int is_owner() { return __getuid() == tty_owner && tty_owner != 0; }"
        ) ];
    mk "CVE-2006-3116" "kernel/quota.c"
      "quota room check accepts negative charges" Priv_escalation
      [ ( "static int quota_room(int uid, int n) {\n  return quota_used[uid & 7] + n <= quota_table[uid & 7];\n}",
          "static int quota_room(int uid, int n) {\n  return n >= 0 && quota_used[uid & 7] + n <= quota_table[uid & 7];\n}"
        ) ];
    mk "CVE-2006-3117" "kernel/video.c"
      "formats 12-15 are reserved but pass validation" Priv_escalation
      [ ( "static int fmt_valid(int f) { return f >= 0 && f < 16; }",
          "static int fmt_valid(int f) { return f >= 0 && f < 12; }" ) ];
    mk "CVE-2006-3118" "kernel/usb.c"
      "queue-full check misses a corrupted negative pending count"
      Priv_escalation
      [ ( "static int queue_full() { return usb_pending >= 8; }",
          "static int queue_full() { return usb_pending >= 8 || usb_pending < 0; }"
        ) ];
    (* explicitly-inline functions *)
    mk "CVE-2006-3119" "kernel/random.c"
      "entropy mixing is linear; fold the value into the state"
      Info_disclosure
      [ ( "  mix_state = mix_state * 1103515245 + 12345;\n  return v ^ mix_state;",
          "  mix_state = mix_state * 1103515245 + 12345;\n  mix_state = mix_state ^ (v << 7);\n  return v ^ mix_state;"
        ) ];
    mk "CVE-2006-3120" "kernel/audit.c"
      "audit slot branch on negative positions is data-dependent (timing \
       side channel); mask the sign bit instead"
      Info_disclosure
      [ ( "  if (s < 0)\n    s = 0;\n  s = s % limit;",
          "  s = s & 2147483647;\n  s = s % limit;" ) ];
    mk "CVE-2006-3121" "kernel/ipc.c"
      "ring index derives from a hardcoded mask; derive it from the queue \
       size" Info_disclosure
      [ ( "static inline int slot_of(int v) { return v & 15; }",
          "static inline int slot_of(int v) { return v & (16 - 1); }" ) ];
    mk "CVE-2007-3122" "kernel/random.c"
      "mixed-state feedback still predictable; rotate the state between \
       rounds" Info_disclosure
      [ ( "  mix_state = mix_state * 1103515245 + 12345;",
          "  mix_state = (mix_state << 1) ^ (mix_state >> 3);\n  mix_state = mix_state * 1103515245 + 12345;"
        ) ];
  ]

(* ===== other small fixes ===== *)

let small_other =
  [
    mk "CVE-2005-3130" "kernel/net.c"
      "receive index check misses negative indices; validation factored \
       into a helper" Info_disclosure
      [ ( "int sys_net_recv(int idx) {\n  if (idx >= 32)\n    return -1;\n  return net_rx[idx];\n}",
          "static int rx_index_ok(int idx) {\n  if (idx < 0)\n    return 0;\n  if (idx >= 32)\n    return 0;\n  return 1;\n}\n\nint sys_net_recv(int idx) {\n  if (!rx_index_ok(idx))\n    return -1;\n  return net_rx[idx];\n}"
        ) ];
    mk "CVE-2005-3131" "kernel/ipc.c"
      "receive replays stale ring entries when the queue is empty"
      Info_disclosure
      [ ( "  int v = ipc_queue[slot_of(ipc_head)];",
          "  int v;\n  if (ipc_head == ipc_tail) {\n    ipc_active = 0;\n    return -1;\n  }\n  v = ipc_queue[slot_of(ipc_head)];"
        ) ];
    mk "CVE-2005-3132" "kernel/fs.c"
      "file read consults slots beyond the allocated count (stale entry \
       leak)" Info_disclosure
      [ ( "static int fd_ok(int fd) { return fd >= 0 && fd < 16; }",
          "static int fd_ok(int fd) { return fd >= 0 && fd < file_count; }" ) ];
    mk "CVE-2005-3133" "kernel/fs.c"
      "chmod/chown-equivalent setattr lacks privilege checks on both \
       attributes" Priv_escalation
      [ ( "  if (attr == 1) {\n    f->mode = value;\n    return 0;\n  }\n  if (attr == 2) {\n    f->owner = value;\n    return 0;\n  }",
          "  if (attr == 1) {\n    if ((value & 7) != value)\n      return -1;\n    if (__getuid() != 0 && __getuid() != f->owner)\n      return -1;\n    f->mode = value;\n    return 0;\n  }\n  if (attr == 2) {\n    if (__getuid() != 0)\n      return -1;\n    if (value < 0)\n      return -1;\n    f->owner = value;\n    return 0;\n  }"
        ) ];
    mk "CVE-2006-3134" "kernel/xattr.c"
      "security.* namespace writable by any user" Priv_escalation
      [ ( "  int i = find_key(key);\n  if (i < 0) {",
          "  int i;\n  if (key < 0)\n    return -1;\n  if (key >= 100 && __getuid() != 0)\n    return -1;\n  if (val == -1)\n    return -1;\n  i = find_key(key);\n  if (i < 0) {"
        ) ];
    mk "CVE-2006-3135" "kernel/xattr.c"
      "attribute scan can run past the table when the count is corrupted"
      Priv_escalation
      [ ( "  for (i = 0; i < xattr_count; i = i + 1) {",
          "  for (i = 0; i < xattr_count && i < table_cap; i = i + 1) {" ) ];
    mk "CVE-2006-3136" "kernel/keyring.c"
      "key read check leaks key 1 (the root session key)" Info_disclosure
      [ ( "    if (key_table[i].serial == serial) {\n      if (key_table[i].owner != __getuid() && serial != 1)\n        return -1;\n      return key_table[i].payload;\n    }",
          "    if (key_table[i].serial == serial) {\n      int uid = __getuid();\n      if (uid != 0 && key_table[i].owner != uid)\n        return -1;\n      if (key_table[i].perm == 0 && uid != 0)\n        return -1;\n      return key_table[i].payload;\n    }"
        ) ];
    mk "CVE-2006-3137" "kernel/keyring.c"
      "new keys default to world-readable permissions" Priv_escalation
      [ ( "  k->serial = key_count + 1;\n  k->owner = __getuid();\n  k->perm = 1;",
          "  k->serial = key_count + 1;\n  k->owner = __getuid();\n  if (k->owner == 0)\n    k->perm = 1;\n  else\n    k->perm = 3;" ) ];
    mk "CVE-2007-3138" "kernel/quota.c"
      "quota usage readable across users" Info_disclosure
      [ ( "int sys_quota_get(int uid, int field) {\n  if (field == 0)\n    return quota_table[uid & 7];\n  return quota_used[uid & 7];\n}",
          "static int quota_may_view(int uid) {\n  if (__getuid() == 0)\n    return 1;\n  return (uid & 7) == (__getuid() & 7);\n}\n\nint sys_quota_get(int uid, int field) {\n  if (!quota_may_view(uid))\n    return -1;\n  if (field == 0)\n    return quota_table[uid & 7];\n  return quota_used[uid & 7];\n}"
        ) ];
    mk "CVE-2007-3139" "kernel/audit.c"
      "audit ring readable by any user" Info_disclosure
      [ ( "int sys_audit_read(int idx) {\n  return audit_ring[audit_slot(idx)];\n}",
          "static int audit_reader_ok() {\n  return __getuid() == 0;\n}\n\nint sys_audit_read(int idx) {\n  if (!audit_reader_ok())\n    return -1;\n  if (idx < 0 || idx >= 32)\n    return -1;\n  return audit_ring[audit_slot(idx)];\n}"
        ) ];
    mk "CVE-2007-3140" "kernel/mm.c"
      "mmap count checked against the wrong limit variable"
      Priv_escalation
      [ ( "  if (len <= 0)\n    return -1;\n  if (mmap_count >= brk_limit)\n    return -1;",
          "  if (len <= 0)\n    return -1;\n  if (len > brk_limit)\n    return -1;\n  if (mmap_count < 0)\n    mmap_count = 0;\n  if (mmap_count >= limit)\n    return -1;"
        ) ];
    mk "CVE-2007-3141" "kernel/mm.c"
      "brk accepts arbitrarily large values" Priv_escalation
      [ ( "static int within_brk(int n) { return n <= brk_limit; }",
          "static int within_brk(int n) { return n <= brk_limit && n <= 1048576; }" ) ];
    mk "CVE-2005-3142" "kernel/signal.c"
      "any user may signal pid 1" Priv_escalation
      [ ( "  pending_sig = sig;\n  if (pid == 1)\n    return 0;",
          "  if (pid < 0)\n    return -1;\n  if (pid == 1 && __getuid() != 0)\n    return -1;\n  if (pending_sig != 0 && pending_sig != sig)\n    pending_sig = 0;\n  pending_sig = sig;\n  if (pid == 1)\n    return 0;"
        ) ];
    mk "CVE-2005-3143" "kernel/time.c"
      "settimeofday equivalent lacks a privilege check" Priv_escalation
      [ ( "  time_offset = t - __gettick();",
          "  if (__getuid() != 0)\n    return -1;\n  if (t < 0)\n    return -1;\n  if (t > 1000000000)\n    return -1;\n  time_offset = t - __gettick();"
        ) ];
    mk "CVE-2008-3144" "kernel/tty.c"
      "TIOCSTI-style character injection without ownership"
      Priv_escalation
      [ ( "  if (op == 7) {\n    __putc(arg);\n    return 0;\n  }",
          "  if (op == 7) {\n    int uid = __getuid();\n    if (!is_owner() && uid != 0)\n      return -1;\n    if (arg < 32 || arg > 126)\n      return -1;\n    __putc(arg);\n    return 0;\n  }"
        ) ];
    mk "CVE-2008-3145" "kernel/video.c"
      "buffer count multiplication overflows the limit check"
      Priv_escalation
      [ ( "static int buf_count_ok(int n) { return n * 4096 < buf_cap * 4096; }",
          "static int buf_count_ok(int n) { return n >= 0 && n < buf_cap; }" ) ];
    mk "CVE-2008-3146" "kernel/usb.c"
      "request stored before the queue-full check clobbers the adjacent \
       word" Priv_escalation
      [ ( "  usb_queue[usb_pending] = req;\n  if (queue_full())\n    return -1;",
          "  if (usb_pending < 0)\n    usb_pending = 0;\n  if (usb_pending > 8)\n    usb_pending = 8;\n  if (queue_full())\n    return -1;\n  usb_queue[usb_pending] = req;"
        ) ];
    mk "CVE-2008-3147" "kernel/random.c"
      "entropy pool readable before mixing (predictable output)"
      Info_disclosure
      [ ( "  return pool[idx & 3];",
          "  if (!pool_mixed)\n    return -1;\n  if (idx < 0)\n    return -1;\n  if (idx > 3)\n    return -1;\n  return pool[idx & 3];" ) ];
    mk "CVE-2008-3148" "kernel/misc.c"
      "personality word stored unmasked (reserved bits reachable)"
      Priv_escalation
      [ ( "static int pers_ok(int p) { return p != -1; }",
          "static int pers_ok(int p) { return p >= 0 && (p & 255) == p; }" ) ];
    mk "CVE-2008-3149" "kernel/misc.c"
      "profiling hook settable by any user" Priv_escalation
      [ ( "  kernel_hook = v;",
          "  int a;\n  if (__getuid() != 0)\n    return -1;\n  a = v;\n  if ((a & 3) != 0)\n    return -1;\n  kernel_hook = a;" ) ];
    mk "CVE-2007-3150" "kernel/misc.c"
      "negative nice values reachable without privilege" Priv_escalation
      [ ( "  if (n < nice_floor)\n    n = nice_floor;",
          "  int uid = __getuid();\n  if (n < 0 && uid != 0)\n    return -1;\n  if (n < nice_floor) {\n    n = nice_floor;\n  }\n  if (n < -20)\n    n = -20;"
        ) ];
    mk "CVE-2007-3151" "kernel/sock.c"
      "socket option accepts negative flag words (sign confusion in later \
       peer checks)" Priv_escalation
      [ ( "static int flags_ok(int val) { return val != -1; }",
          "static int flags_ok(int val) { return val >= 0 && val <= 65535; }" ) ];
    mk "CVE-2006-3152" "kernel/dst.c"
      "debug path echoes raw command bytes to the console"
      Info_disclosure
      [ ( "  if (debug)\n    __putc('D');",
          "  if (debug)\n    __putc('.');" ) ];
    mk "CVE-2006-3153" "kernel/dst.c"
      "tuner band accepts negative values" Priv_escalation
      [ ( "  if (band > 8)\n    return -1;\n  dst_state = band;",
          "  if (band < 0)\n    return -1;\n  if (band > 8)\n    return -1;\n  if (dst_state == band)\n    return 0;\n  if (dst_state < 0)\n    dst_state = 0;\n  dst_state = band;"
        ) ];
    mk "CVE-2007-3154" "kernel/proc.c"
      "task tokens identical across tasks; derive from pid"
      Info_disclosure
      [ ( "  t->uid = uid;\n  t->nice = 0;\n  t->token = boot_token;",
          "  t->uid = uid;\n  if (t->uid < 0)\n    t->uid = 0;\n  t->nice = 0;\n  if (pid == 0)\n    t->token = 0;\n  else\n    t->token = boot_token ^ (pid * 40503);" ) ];
    mk "CVE-2007-3155" "kernel/counters.c"
      "unbounded counter delta wraps accounting" Priv_escalation
      [ ( "  counters[idx] = counters[idx] + delta;",
          "  if (delta == 0)\n    return counters[idx];\n  if (delta > 1000000)\n    return -1;\n  if (delta < -1000000)\n    return -1;\n  counters[idx] = counters[idx] + delta;"
        ) ];
    mk "CVE-2006-3156" "kernel/ipc.c"
      "message sign bit doubles as an in-kernel flag; mask it"
      Info_disclosure
      [ ( "  ipc_queue[slot_of(ipc_tail)] = msg;\n  ipc_tail = ipc_tail + 1;",
          "  if (msg < 0)\n    return -1;\n  if (ipc_tail - ipc_head > 15)\n    return -1;\n  ipc_queue[slot_of(ipc_tail)] = msg & 2147483647;\n  ipc_tail = ipc_tail + 1;" ) ];
    mk "CVE-2007-3157" "kernel/pipe.c"
      "notify pointer not sanity-checked before the indirect call"
      Priv_escalation
      [ ( "  int fp;\n  if (pipe_debug)\n    __putc('F');\n  if (pipe_notify_fn != 0) {\n    fp = pipe_notify_fn;\n    fp();\n  }",
          "  int fp;\n  if (pipe_debug)\n    __putc('F');\n  fp = pipe_notify_fn;\n  if (fp != 0) {\n    if (fp < 1048576)\n      return -1;\n    fp();\n  }"
        ) ];
    mk "CVE-2007-3158" "kernel/creds.c"
      "admin capability honoured while the task is dumpable (ptrace \
       window)" Priv_escalation
      [ ( "int capable_admin() {\n  return (cur_caps & cap_admin_mask) || __getuid() == 0;\n}",
          "int capable_admin() {\n  if (dumpable != 0)\n    return __getuid() == 0;\n  return (cur_caps & cap_admin_mask) || __getuid() == 0;\n}"
        ) ];
    mk "CVE-2007-3159" "kernel/creds.c"
      "admin setuid operation accepts negative uids" Priv_escalation
      [ ( "  if (op == 1) {\n    __setuid(arg);\n    return 0;\n  }",
          "  if (op == 1) {\n    if (arg < 0)\n      return -1;\n    if (arg > 65535)\n      return -1;\n    __setuid(arg);\n    return 0;\n  }" ) ];
    mk "CVE-2008-3160" "kernel/log.c"
      "newline rejected, forcing log entries onto one line (log \
       confusion); accept it"
      Info_disclosure
      [ ( "static int printable(int ch) { return ch >= 32 && ch < 127; }",
          "static int printable(int ch) { return (ch >= 32 && ch < 127) || ch == 10; }" ) ];
  ]

(* ===== medium fixes ===== *)

let medium =
  [
    mk "CVE-2006-3170" "kernel/net.c"
      "frame copied before the length check (overwrite past net_tx); \
       validate first" Priv_escalation
      [ ( "  int i;\n  int *p = (int*)src;\n  for (i = 0; i < len; i = i + 1)\n    net_tx[i] = p[i];\n  if (!frame_ok(len))\n    return -1;\n  net_tx_len = len;",
          "  int i;\n  int *p = (int*)src;\n  if (!frame_ok(len))\n    return -1;\n  net_tx_len = 0;\n  for (i = 0; i < len; i = i + 1)\n    net_tx[i] = p[i];\n  net_tx_len = len;"
        ) ];
    mk "CVE-2005-3171" "kernel/proc.c"
      "proc status rewritten around an access-check helper"
      Info_disclosure
      [ ( "int sys_proc_status(int pid, int field) {\n  struct task *t = &task_table[pid & 7];\n  last_field = field;\n  if (field == 0)\n    return t->pid;\n  if (field == 1)\n    return t->uid;\n  if (field == 2)\n    return t->token;\n  return -1;\n}",
          "static int proc_may_read(struct task *t, int field) {\n  if (__getuid() == 0)\n    return 1;\n  if (field == 2)\n    return t->uid == __getuid();\n  return 1;\n}\n\nint sys_proc_status(int pid, int field) {\n  struct task *t = &task_table[pid & 7];\n  last_field = field;\n  if (!proc_may_read(t, field))\n    return -1;\n  if (field == 0)\n    return t->pid;\n  if (field == 1)\n    return t->uid;\n  if (field == 2)\n    return t->token;\n  return -1;\n}"
        ) ];
  ]

(* ===== large fixes ===== *)

let large =
  [
    mk "CVE-2008-3180" "kernel/fs.c"
      "open always appends, never reusing freed slots, and skips mode \
       validation; rewritten with slot search"
      Priv_escalation
      [ ( "int sys_fs_open(int inode, int mode) {\n  int i;\n  if (file_count >= 16)\n    return -1;\n  i = file_count;\n  file_table[i].inode = inode;\n  file_table[i].mode = mode;\n  file_table[i].owner = __getuid();\n  file_table[i].size = 0;\n  file_count = file_count + 1;\n  return i;\n}",
          "static int fs_slot_free(int i) {\n  return file_table[i].inode == 0;\n}\n\nstatic int fs_find_slot() {\n  int i;\n  for (i = 0; i < 16; i = i + 1) {\n    if (fs_slot_free(i))\n      return i;\n  }\n  return -1;\n}\n\nint sys_fs_open(int inode, int mode) {\n  int i;\n  if (inode == 0)\n    return -1;\n  if ((mode & 7) != mode)\n    return -1;\n  i = fs_find_slot();\n  if (i < 0)\n    return -1;\n  file_table[i].inode = inode;\n  file_table[i].mode = mode;\n  file_table[i].owner = __getuid();\n  file_table[i].size = 0;\n  if (i >= file_count)\n    file_count = i + 1;\n  return i;\n}"
        ) ];
    mk "CVE-2008-3181" "kernel/keyring.c"
      "keyring permission model rewritten: per-key read/write bits \
       honoured, root override explicit" Priv_escalation
      [ ( "int sys_key_read(int serial) {\n  int i;\n  for (i = 0; i < key_count; i = i + 1) {\n    if (key_table[i].serial == serial) {\n      if (key_table[i].owner != __getuid() && serial != 1)\n        return -1;\n      return key_table[i].payload;\n    }\n  }\n  return -1;\n}",
          "static int key_may_read(struct kkey *k) {\n  if (__getuid() == 0)\n    return 1;\n  if (k->owner == __getuid())\n    return (k->perm & 1) != 0;\n  return (k->perm & 4) != 0;\n}\n\nstatic struct kkey *key_lookup(int serial) {\n  int i;\n  for (i = 0; i < key_count; i = i + 1) {\n    if (key_table[i].serial == serial)\n      return &key_table[i];\n  }\n  return (struct kkey*)0;\n}\n\nint sys_key_read(int serial) {\n  struct kkey *k = key_lookup(serial);\n  if (k == 0)\n    return -1;\n  if (!key_may_read(k))\n    return -1;\n  return k->payload;\n}"
        ) ];
    mk "CVE-2007-3182" "kernel/xattr.c"
      "attribute namespaces overhauled: user (0-99), trusted (100-199, \
       admin capability), security (200+, root only)" Priv_escalation
      [ ( "/* CVE-A26: set does not verify ownership of the security namespace\n   (keys above 100 are security.* and must be root-only) */\nint sys_xattr_set(int key, int val) {\n  int i = find_key(key);\n  if (i < 0) {\n    if (xattr_count >= table_cap)\n      return -1;\n    i = xattr_count;\n    xattr_count = xattr_count + 1;\n    xattr_keys[i] = key;\n  }\n  xattr_vals[i] = val;\n  return 0;\n}\n\nint sys_xattr_get(int key) {\n  int i = find_key(key);\n  if (i < 0)\n    return -1;\n  return xattr_vals[i];\n}",
          "static int ns_of_key(int key) {\n  if (key < 100)\n    return 0;\n  if (key < 200)\n    return 1;\n  return 2;\n}\n\nstatic int ns_writable(int ns) {\n  if (ns == 0)\n    return 1;\n  if (__getuid() == 0)\n    return 1;\n  return 0;\n}\n\nstatic int ns_readable(int ns) {\n  if (ns == 2)\n    return __getuid() == 0;\n  return 1;\n}\n\nint sys_xattr_set(int key, int val) {\n  int i;\n  if (!ns_writable(ns_of_key(key)))\n    return -1;\n  i = find_key(key);\n  if (i < 0) {\n    if (xattr_count >= table_cap)\n      return -1;\n    i = xattr_count;\n    xattr_count = xattr_count + 1;\n    xattr_keys[i] = key;\n  }\n  xattr_vals[i] = val;\n  return 0;\n}\n\nint sys_xattr_get(int key) {\n  int i;\n  if (!ns_readable(ns_of_key(key)))\n    return -1;\n  i = find_key(key);\n  if (i < 0)\n    return -1;\n  return xattr_vals[i];\n}"
        ) ];
    mk "CVE-2008-3183" "kernel/creds.c"
      "prctl dispatch rewritten into per-option helpers with explicit \
       validation (large refactor)" Priv_escalation
      [ ( "int sys_prctl(int option, int arg) {\n  if (option == 1) {\n    dumpable = arg & 1;\n    return 0;\n  }\n  if (option == 2) {\n    cur_caps = arg;\n    return 0;\n  }\n  if (option == 3)\n    return dumpable;\n  return -1;\n}",
          "static int prctl_set_dumpable(int arg) {\n  if (arg != 0 && arg != 1)\n    return -1;\n  dumpable = arg;\n  return 0;\n}\n\nstatic int prctl_set_keepcaps(int arg) {\n  if (arg != 0 && arg != 1)\n    return -1;\n  if (arg == 0) {\n    cur_caps = 0;\n    return 0;\n  }\n  cur_caps = cur_caps | 1;\n  return 0;\n}\n\nstatic int prctl_get_dumpable() {\n  return dumpable;\n}\n\nstatic int prctl_validate(int option) {\n  if (option < 1)\n    return -1;\n  if (option > 3)\n    return -1;\n  return 0;\n}\n\nint sys_prctl(int option, int arg) {\n  if (prctl_validate(option) < 0)\n    return -1;\n  if (option == 1)\n    return prctl_set_dumpable(arg);\n  if (option == 2)\n    return prctl_set_keepcaps(arg);\n  if (option == 3)\n    return prctl_get_dumpable();\n  return -1;\n}"
        ) ];
    (* the one patch beyond 80 lines: a privileged-operation audit trail
       across three units *)
    mk_multi "CVE-2008-3184" "kernel/creds.c"
      "privileged operations gain an audit trail: every uid change, \
       capability change and hook update is recorded (multi-unit patch)"
      Priv_escalation
      [
        ( "kernel/audit.c",
          "int sys_audit_log(int event) {\n  audit_ring[audit_slot(audit_pos)] = event;\n  audit_pos = audit_pos + 1;\n  return 0;\n}",
          "int sys_audit_log(int event) {\n  audit_ring[audit_slot(audit_pos)] = event;\n  audit_pos = audit_pos + 1;\n  return 0;\n}\n\nint audit_priv_ring[16];\nint audit_priv_pos = 0;\nint audit_priv_by_kind[8];\nint audit_priv_dropped = 0;\n\nstatic int priv_slot(int p) {\n  int s = p;\n  if (s < 0)\n    s = 0;\n  return s % 16;\n}\n\nvoid audit_priv_event(int kind, int arg) {\n  int word;\n  if (kind < 0 || kind >= 8) {\n    audit_priv_dropped = audit_priv_dropped + 1;\n    return;\n  }\n  word = (kind << 24) | (arg & 16777215);\n  audit_priv_ring[priv_slot(audit_priv_pos)] = word;\n  audit_priv_pos = audit_priv_pos + 1;\n  audit_priv_by_kind[kind] = audit_priv_by_kind[kind] + 1;\n}\n\nint audit_priv_count() {\n  return audit_priv_pos;\n}\n\nint audit_priv_summary(int kind) {\n  if (kind < 0 || kind >= 8)\n    return -1;\n  return audit_priv_by_kind[kind];\n}\n\nvoid audit_priv_reset() {\n  int i;\n  if (__getuid() != 0)\n    return;\n  for (i = 0; i < 16; i = i + 1)\n    audit_priv_ring[priv_slot(i)] = 0;\n  for (i = 0; i < 8; i = i + 1)\n    audit_priv_by_kind[i] = 0;\n  audit_priv_pos = 0;\n  audit_priv_dropped = 0;\n}\n\nint audit_priv_read(int idx) {\n  if (__getuid() != 0)\n    return -1;\n  if (idx < 0 || idx >= 16)\n    return -1;\n  return audit_priv_ring[priv_slot(idx)];\n}"
        );
        ( "kernel/creds.c",
          "int sys_setuid(int uid) {\n  if (__getuid() != 0)\n    return -1;\n  __setuid(uid);\n  return 0;\n}",
          "void audit_priv_event(int kind, int arg);\n\nint sys_setuid(int uid) {\n  if (__getuid() != 0)\n    return -1;\n  audit_priv_event(1, uid);\n  __setuid(uid);\n  return 0;\n}"
        );
        ( "kernel/creds.c",
          "int sys_capset(int caps) {\n  if (__getuid() != 0)\n    return -1;\n  cur_caps = caps;\n  return 0;\n}",
          "int sys_capset(int caps) {\n  if (__getuid() != 0)\n    return -1;\n  audit_priv_event(2, caps);\n  cur_caps = caps;\n  return 0;\n}"
        );
        ( "kernel/creds.c",
          "  if (op == 1) {\n    __setuid(arg);\n    return 0;\n  }",
          "  if (op == 1) {\n    audit_priv_event(3, arg);\n    __setuid(arg);\n    return 0;\n  }"
        );
        ( "kernel/misc.c",
          "int sys_set_hook(int v) {\n  kernel_hook = v;\n  return 0;\n}",
          "void audit_priv_event(int kind, int arg);\n\nint sys_set_hook(int v) {\n  audit_priv_event(4, v);\n  kernel_hook = v;\n  return 0;\n}"
        );
        ( "kernel/time.c",
          "int sys_time_set(int t) {\n  time_offset = t - __gettick();\n  clock_set = 1;\n  return 0;\n}",
          "void audit_priv_event(int kind, int arg);\n\nint sys_time_set(int t) {\n  audit_priv_event(5, t);\n  time_offset = t - __gettick();\n  clock_set = 1;\n  return 0;\n}"
        );
        ( "kernel/quota.c",
          "int sys_quota_set(int uid, int limit) {\n  if (__getuid() != 0)\n    return -1;\n  quota_table[uid & 7] = limit;\n  return 0;\n}",
          "void audit_priv_event(int kind, int arg);\n\nint sys_quota_set(int uid, int limit) {\n  if (__getuid() != 0)\n    return -1;\n  audit_priv_event(6, uid);\n  quota_table[uid & 7] = limit;\n  return 0;\n}"
        );
        ( "kernel/fs.c",
          "struct file {\n  int inode;\n  int mode;\n  int owner;\n  int size;\n};",
          "void audit_priv_event(int kind, int arg);\n\nstruct file {\n  int inode;\n  int mode;\n  int owner;\n  int size;\n};"
        );
        ( "kernel/fs.c",
          "  if (attr == 2) {\n    f->owner = value;\n    return 0;\n  }",
          "  if (attr == 2) {\n    audit_priv_event(7, value);\n    f->owner = value;\n    return 0;\n  }"
        );
        ( "kernel/tty.c",
          "int sys_tty_ioctl(int op, int arg) {\n  if (op == 1) {\n    if (!is_owner() && __getuid() != 0)\n      return -1;\n    tty_mode = arg;\n    return 0;\n  }",
          "void audit_priv_event(int kind, int arg);\n\nint sys_tty_ioctl(int op, int arg) {\n  if (op == 1) {\n    if (!is_owner() && __getuid() != 0)\n      return -1;\n    audit_priv_event(0, arg);\n    tty_mode = arg;\n    return 0;\n  }"
        );
        ( "kernel/signal.c",
          "int sys_sig_mask(int mask) {\n  sig_mask_word = sig_mask_word | mask;\n  masks_used = 1;\n  return sig_mask_word;\n}",
          "void audit_priv_event(int kind, int arg);\n\nint sys_sig_mask(int mask) {\n  audit_priv_event(0, mask);\n  sig_mask_word = sig_mask_word | mask;\n  masks_used = 1;\n  return sig_mask_word;\n}"
        );
        ( "kernel/keyring.c",
          "int sys_key_add(int payload) {\n  struct kkey *k;",
          "void audit_priv_event(int kind, int arg);\n\nint sys_key_add(int payload) {\n  struct kkey *k;\n  audit_priv_event(0, payload);"
        );
        ( "kernel/mm.c",
          "int sys_mm_brk(int n) {",
          "void audit_priv_event(int kind, int arg);\n\nint sys_mm_brk(int n) {\n  audit_priv_event(0, n);"
        );
      ];
  ]

(* ===== Table 1: patches requiring custom update-time code ===== *)

let custom_quota =
  mk "CVE-2008-0007" "kernel/quota.c"
    "uid-0 quota must default to four times the base allowance; changes \
     quota_init, so existing tables need a fixup"
    Priv_escalation
    ~custom:
      (Changes_data_init,
       {|
static int quota_fix_saved[8];
static int quota_fix_applied = 0;
static int quota_fix_count = 0;

void quota_update_existing() {
  int i;
  int old;
  int fixed;
  fixed = 0;
  for (i = 0; i < 8; i = i + 1) {
    old = quota_table[i];
    quota_fix_saved[i] = old;
    if (old < 0) {
      quota_table[i] = 0;
      fixed = fixed + 1;
    }
    if (i == 0) {
      if (quota_table[i] == quota_default) {
        quota_table[i] = quota_default * 4;
        fixed = fixed + 1;
      }
    }
    if (quota_used[i] < 0) {
      quota_used[i] = 0;
      fixed = fixed + 1;
    }
    if (quota_used[i] > quota_table[i]) {
      quota_used[i] = quota_table[i];
      fixed = fixed + 1;
    }
  }
  quota_fix_count = fixed;
  quota_fix_applied = 1;
}

void quota_revert_existing() {
  int i;
  if (quota_fix_applied == 0)
    return;
  for (i = 0; i < 8; i = i + 1)
    quota_table[i] = quota_fix_saved[i];
  quota_fix_applied = 0;
  quota_fix_count = 0;
}

static int quota_sane(int v) {
  if (v < 0)
    return 0;
  if (v > 1048576)
    return 0;
  return 1;
}

void quota_check_invariants() {
  int i;
  int bad;
  bad = 0;
  for (i = 0; i < 8; i = i + 1) {
    if (!quota_sane(quota_table[i]))
      bad = bad + 1;
    if (quota_used[i] > quota_table[i])
      bad = bad + 1;
  }
  if (bad > 0)
    quota_fix_count = 0 - bad;
}

ksplice_apply(quota_update_existing);
ksplice_post_apply(quota_check_invariants);
ksplice_reverse(quota_revert_existing);
|})
    [ ( "  for (i = 0; i < 8; i = i + 1) {\n    quota_table[i] = quota_default;\n    quota_used[i] = 0;\n  }",
        "  for (i = 0; i < 8; i = i + 1) {\n    if (i == 0)\n      quota_table[i] = quota_default * 4;\n    else\n      quota_table[i] = quota_default;\n    quota_used[i] = 0;\n  }"
      ) ]

let custom_fs =
  mk "CVE-2007-4571" "kernel/fs.c"
    "files must default to owner-readable mode; changes fs_init, so \
     existing table entries need the mode bit set"
    Info_disclosure
    ~custom:
      (Changes_data_init,
       {|
static int fs_fixed_entries = 0;

void fs_update_existing_modes() {
  int i;
  int n;
  n = 0;
  for (i = 0; i < 16; i = i + 1) {
    if (file_table[i].inode != 0) {
      if ((file_table[i].mode & 4) == 0) {
        file_table[i].mode = file_table[i].mode | 4;
        n = n + 1;
      }
    }
  }
  fs_fixed_entries = n;
}

void fs_report_fixups() {
  if (fs_fixed_entries > 0)
    __putc('+');
}

ksplice_apply(fs_update_existing_modes);
ksplice_post_apply(fs_report_fixups);
|})
    [ ( "    file_table[i].mode = 0;",
        "    file_table[i].mode = 4;" ) ]

let custom_time =
  mk "CVE-2007-3851" "kernel/time.c"
    "timezone offset must default to 60 minutes (explicit declaration \
     initializer change)"
    Priv_escalation
    ~custom:
      (Changes_data_init,
       {|
void tz_update_existing() { tz_minutes = 60; }

ksplice_apply(tz_update_existing);
|})
    [ ("int tz_minutes = 0;", "int tz_minutes = 60;") ]

let custom_log =
  mk "CVE-2006-5753" "kernel/log.c"
    "default log level raised to 2 (declaration initializer change)"
    Priv_escalation
    ~custom:
      (Changes_data_init,
       {|
void log_update_existing() { log_level = 2; }

ksplice_apply(log_update_existing);
|})
    [ ("int log_level = 1;", "int log_level = 2;") ]

let custom_keyring =
  mk "CVE-2006-2071" "kernel/keyring.c"
    "the boot key must be created owner-read-only; changes keyring_init, \
     so live keys need their permission bits rewritten"
    Priv_escalation
    ~custom:
      (Changes_data_init,
       {|
static int keyring_fix_done = 0;

void keyring_update_existing() {
  int i;
  int p;
  for (i = 0; i < key_count; i = i + 1) {
    p = key_table[i].perm;
    if (key_table[i].serial == 1) {
      key_table[i].perm = 2;
    }
    if (p > 7) {
      key_table[i].perm = p & 7;
    }
    if (key_table[i].owner < 0) {
      key_table[i].owner = 0;
    }
  }
  keyring_fix_done = 1;
}

void keyring_revert_existing() {
  if (keyring_fix_done == 0)
    return;
  if (key_count > 0)
    key_table[0].perm = 0;
  keyring_fix_done = 0;
}

ksplice_apply(keyring_update_existing);
ksplice_reverse(keyring_revert_existing);
|})
    [ ( "  key_table[0].perm = 0;",
        "  key_table[0].perm = 2;" ) ]

let custom_sock_backlog =
  mk "CVE-2006-1056" "kernel/sock.c"
    "sockets must default to a backlog of 16; changes sock_init, so live \
     sockets need the field populated"
    Info_disclosure
    ~custom:
      (Changes_data_init,
       {|
void sock_update_existing_backlog() {
  int i;
  for (i = 0; i < 8; i = i + 1) {
    if (sock_table[i].backlog == 0)
      sock_table[i].backlog = 16;
    if (sock_table[i].backlog < 0)
      sock_table[i].backlog = 16;
  }
}

ksplice_apply(sock_update_existing_backlog);
|})
    [ ( "    sock_table[i].backlog = 0;",
        "    sock_table[i].backlog = 16;" ) ]

let custom_random =
  mk "CVE-2005-3179" "kernel/random.c"
    "pool mixing gains a second keyed round; changes the mixing routine \
     run at init, so an already-mixed pool must be re-keyed in place"
    Priv_escalation
    ~custom:
      (Changes_data_init,
       {|
static int rekey_rounds = 0;

void random_rekey_existing() {
  int i;
  int v;
  if (pool_mixed == 0) {
    rekey_rounds = 0;
    return;
  }
  for (i = 0; i < 4; i = i + 1) {
    v = pool[i];
    v = v ^ 355;
    v = mix(v);
    pool[i] = v;
  }
  rekey_rounds = rekey_rounds + 1;
}

void random_unkey_existing() {
  int i;
  if (rekey_rounds == 0)
    return;
  for (i = 0; i < 4; i = i + 1) {
    if (pool[i] == 0)
      pool[i] = 1;
  }
  rekey_rounds = 0;
}

ksplice_apply(random_rekey_existing);
ksplice_reverse(random_unkey_existing);
|})
    [ ( "  for (i = 0; i < 4; i = i + 1)\n    pool[i] = mix(pool[i]);\n  pool_mixed = 1;",
        "  for (i = 0; i < 4; i = i + 1)\n    pool[i] = mix(pool[i]);\n  for (i = 0; i < 4; i = i + 1)\n    pool[i] = mix(pool[i] ^ 355);\n  pool_mixed = 1;"
      ) ]

let custom_sock_shadow =
  mk "CVE-2005-2709" "kernel/sock.c"
    "peer checks need a per-socket peer uid; upstream added a struct \
     field — the hot update keeps the layout and attaches the field as a \
     shadow data structure (DynAMOS method, §5.3)"
    Priv_escalation
    ~custom:
      (Adds_struct_field,
       {|
static int sock_shadow_attached = 0;
static int sock_shadow_errors = 0;
static int sock_shadow_verified = 0;
static int sock_shadow_in_progress = 0;

static int sock_default_peer(struct sock *s) {
  if (s->state == 0)
    return 0;
  if (s->opt_flags < 0)
    return 0;
  return 0;
}

void sock_attach_shadows() {
  int i;
  int n;
  int *p;
  struct sock *s;
  if (sock_shadow_in_progress != 0)
    return;
  sock_shadow_in_progress = 1;
  n = 0;
  sock_shadow_errors = 0;
  for (i = 0; i < 8; i = i + 1) {
    s = &sock_table[i];
    p = (int*)__shadow_attach((int)s, 1, 4);
    if (p == 0) {
      sock_shadow_errors = sock_shadow_errors + 1;
    }
    if (p != 0) {
      *p = sock_default_peer(s);
      n = n + 1;
    }
  }
  sock_shadow_attached = n;
  sock_shadow_in_progress = 0;
}

void sock_verify_shadows() {
  int i;
  int n;
  int *p;
  struct sock *s;
  n = 0;
  for (i = 0; i < 8; i = i + 1) {
    s = &sock_table[i];
    p = (int*)__shadow_get((int)s, 1);
    if (p != 0)
      n = n + 1;
  }
  sock_shadow_verified = n;
}

void sock_detach_shadows() {
  int i;
  struct sock *s;
  if (sock_shadow_in_progress != 0)
    return;
  sock_shadow_in_progress = 1;
  for (i = 0; i < 8; i = i + 1) {
    s = &sock_table[i];
    __shadow_detach((int)s, 1);
  }
  sock_shadow_attached = 0;
  sock_shadow_verified = 0;
  sock_shadow_in_progress = 0;
}

int sock_shadow_status() {
  return sock_shadow_attached;
}

ksplice_apply(sock_attach_shadows);
ksplice_post_apply(sock_verify_shadows);
ksplice_reverse(sock_detach_shadows);
|})
    [
      ( "  if (op == 2)\n    return s->opt_flags;\n  if (op == 3)\n    return s->state;\n  return -1;\n}",
        "  if (op == 2)\n    return s->opt_flags;\n  if (op == 3)\n    return s->state;\n  if (op == 4) {\n    int *peer = (int*)__shadow_get((int)s, 1);\n    if (peer == 0)\n      return -1;\n    *peer = val;\n    return 0;\n  }\n  if (op == 5) {\n    int *peer = (int*)__shadow_get((int)s, 1);\n    if (peer == 0)\n      return -1;\n    return *peer;\n  }\n  return -1;\n}"
      );
      ( "int sock_peer_allows(int idx) {\n  struct sock *s = &sock_table[idx & 7];\n  if (s->opt_flags == 0)\n    return 0;\n  return 1;\n}",
        "int sock_peer_allows(int idx) {\n  struct sock *s = &sock_table[idx & 7];\n  int *peer = (int*)__shadow_get((int)s, 1);\n  if (peer == 0)\n    return 0;\n  if (*peer == 0)\n    return 0;\n  return 1;\n}"
      );
    ]

let customs =
  [ custom_quota; custom_fs; custom_time; custom_log; custom_keyring;
    custom_sock_backlog; custom_random; custom_sock_shadow ]

(* ===== shadow-hook extras =====

   Struct-layout extensions carried by cumulative updates: each keeps
   the running layout and attaches the new field as shadow data, with
   the side table constructed and destroyed by the dedicated
   [ksplice_shadow_ctor]/[ksplice_shadow_dtor] hooks (§5.3) instead of
   the generic apply hooks. Kept out of [all] so the 64-CVE evaluation
   corpus stays byte-for-byte what the paper's Figure 3 counts. *)

let shadow_fs_owner =
  mk "CVE-2008-1375" "kernel/fs.c"
    "chown must be restricted to the uid a file was opened with; \
     upstream adds an orig_owner field to struct file — the hot update \
     keeps the layout and attaches the field as shadow data built by \
     the shadow constructor (§5.3)"
    Priv_escalation
    ~custom:
      (Adds_struct_field,
       {|
static int fs_shadow_attached = 0;

void fs_attach_owner_shadows() {
  int i;
  int *p;
  int n;
  n = 0;
  for (i = 0; i < 16; i = i + 1) {
    p = (int*)__shadow_attach((int)&file_table[i], 2, 4);
    if (p != 0) {
      *p = file_table[i].owner;
      n = n + 1;
    }
  }
  fs_shadow_attached = n;
}

void fs_detach_owner_shadows() {
  int i;
  for (i = 0; i < 16; i = i + 1)
    __shadow_detach((int)&file_table[i], 2);
  fs_shadow_attached = 0;
}

int fs_shadow_status() {
  return fs_shadow_attached;
}

ksplice_shadow_ctor(fs_attach_owner_shadows);
ksplice_shadow_dtor(fs_detach_owner_shadows);
|})
    [ ( "int sys_fs_open(int inode, int mode) {\n  int i;",
        "int sys_fs_open(int inode, int mode) {\n  int i;\n  int *owner_shadow;" );
      ( "  file_table[i].owner = __getuid();\n  file_table[i].size = 0;\n  file_count = file_count + 1;\n  return i;",
        "  file_table[i].owner = __getuid();\n  file_table[i].size = 0;\n  owner_shadow = (int*)__shadow_attach((int)&file_table[i], 2, 4);\n  if (owner_shadow != 0)\n    *owner_shadow = __getuid();\n  file_count = file_count + 1;\n  return i;" );
      ( "  if (attr == 2) {\n    f->owner = value;\n    return 0;\n  }",
        "  if (attr == 2) {\n    int *orig = (int*)__shadow_get((int)f, 2);\n    if (orig == 0)\n      return -1;\n    if (__getuid() != 0 && __getuid() != *orig)\n      return -1;\n    f->owner = value;\n    return 0;\n  }" );
    ]

let shadow_key_revoke =
  mk "CVE-2007-4997" "kernel/keyring.c"
    "keys cannot be revoked, so a leaked serial stays readable forever; \
     upstream adds a revoked field to struct kkey — the hot update \
     keeps the layout and attaches the flag as shadow data built by \
     the shadow constructor (§5.3)"
    Info_disclosure
    ~custom:
      (Adds_struct_field,
       {|
static int key_shadow_attached = 0;

void key_attach_revoke_shadows() {
  int i;
  int *p;
  int n;
  n = 0;
  for (i = 0; i < 8; i = i + 1) {
    p = (int*)__shadow_attach((int)&key_table[i], 3, 4);
    if (p != 0) {
      *p = 0;
      n = n + 1;
    }
  }
  key_shadow_attached = n;
}

void key_detach_revoke_shadows() {
  int i;
  for (i = 0; i < 8; i = i + 1)
    __shadow_detach((int)&key_table[i], 3);
  key_shadow_attached = 0;
}

int key_shadow_status() {
  return key_shadow_attached;
}

ksplice_shadow_ctor(key_attach_revoke_shadows);
ksplice_shadow_dtor(key_detach_revoke_shadows);
|})
    [ ( "int sys_key_add(int payload) {\n  struct kkey *k;\n  if (key_count >= 8)\n    return -1;",
        "int sys_key_add(int payload) {\n  struct kkey *k;\n  int i;\n  int *rev;\n  if (payload < 0) {\n    for (i = 0; i < key_count; i = i + 1) {\n      if (key_table[i].serial == 0 - payload) {\n        if (key_table[i].owner != __getuid() && __getuid() != 0)\n          return -1;\n        rev = (int*)__shadow_get((int)&key_table[i], 3);\n        if (rev == 0)\n          return -1;\n        *rev = 1;\n        return 0;\n      }\n    }\n    return -1;\n  }\n  if (key_count >= 8)\n    return -1;" );
      ( "  k->payload = payload;\n  key_count = key_count + 1;\n  return k->serial;",
        "  k->payload = payload;\n  rev = (int*)__shadow_attach((int)k, 3, 4);\n  if (rev != 0)\n    *rev = 0;\n  key_count = key_count + 1;\n  return k->serial;" );
      ( "    if (key_table[i].serial == serial) {\n      if (key_table[i].owner != __getuid() && serial != 1)\n        return -1;\n      return key_table[i].payload;\n    }",
        "    if (key_table[i].serial == serial) {\n      int *rev2 = (int*)__shadow_get((int)&key_table[i], 3);\n      if (rev2 != 0 && *rev2 != 0)\n        return -1;\n      if (key_table[i].owner != __getuid() && serial != 1)\n        return -1;\n      return key_table[i].payload;\n    }" );
    ]

let shadow_extras = [ shadow_fs_owner; shadow_key_revoke ]

(* ===== differencing extras =====

   Not part of the paper's 64-CVE corpus: rows the minimal-differencing
   sweep uses to demonstrate data-referent detection and closure
   shipping end to end. The banner fix replaces a string literal —
   [banner_csum]'s instruction stream is untouched, but its relocation
   now points at fresh read-only data, so the function must ship as a
   data referent, the new string slice rides along by closure, and the
   cached checksum (state {e derived} from the string) is refreshed by
   an apply hook through the trampolined function. *)

let banner_old = "ksp 1.0 [debug keys on]"
let banner_new = "ksp 1.0 [secured]"

let diff_banner =
  mk "DIFF-2009-0001" "kernel/banner.c"
    "the boot banner discloses that debug keys are enabled; the fix \
     replaces the string, leaving banner_csum's code unchanged but \
     moving its relocation onto fresh read-only data, and the cached \
     checksum must be recomputed at apply time"
    Info_disclosure
    ~custom:
      (Updates_derived_state,
       {|
void banner_apply_refresh() { banner_refresh(); }

ksplice_apply(banner_apply_refresh);
|})
    [ ( "char *b = \"ksp 1.0 [debug keys on]\";",
        "char *b = \"ksp 1.0 [secured]\";" ) ]

let diff_extras = [ diff_banner ]

let all =
  [ cve_entry_signed; cve_prctl; cve_vmsplice; cve_proc_leak; cve_dst_ca ]
  @ small_inlined @ small_other @ medium @ large @ customs

let find id =
  List.find_opt
    (fun c -> String.equal c.id id)
    (all @ shadow_extras @ diff_extras)

(* --- tree construction --- *)

let replace_once ~what file old_s new_s content =
  let lo = String.length old_s in
  let n = String.length content in
  let rec matches_at i k =
    k = lo || (content.[i + k] = old_s.[k] && matches_at i (k + 1))
  in
  let rec search i =
    if i + lo > n then
      failwith
        (Printf.sprintf "%s: snippet not found in %s: %s" what file
           (String.sub old_s 0 (min 60 lo)))
    else if matches_at i 0 then i
    else search (i + 1)
  in
  let i = search 0 in
  String.sub content 0 i ^ new_s
  ^ String.sub content (i + lo) (n - i - lo)

(* The files the fix edits, each with its final contents (and with the
   custom code appended to the CVE's file when [hot]), reading the files
   before the fix through [find]. The edits run on strings, so each
   edited file enters a tree once and is hashed once.
   @raise Failure when a file or snippet is missing *)
let edited_files ~hot cve find =
  let contents files file =
    match List.assoc_opt file files with
    | Some content -> content
    | None -> (
      match find file with
      | Some content -> content
      | None -> failwith (Printf.sprintf "%s: no file %s" cve.id file))
  in
  let set files file content =
    (file, content) :: List.remove_assoc file files
  in
  let files =
    List.fold_left
      (fun files (file, old_s, new_s) ->
        set files file
          (replace_once ~what:cve.id file old_s new_s (contents files file)))
      [] cve.fix
  in
  match cve.custom with
  | Some (_, code) when hot ->
    set files cve.file (contents files cve.file ^ code)
  | _ -> files

let fix_edits_opt cve find =
  match edited_files ~hot:false cve find with
  | files -> Some files
  | exception Failure _ -> None

let applies_to cve tree =
  Option.is_some (fix_edits_opt cve (Patchfmt.Source_tree.find tree))

(* [Patchfmt.Diff.diff_trees base fixed], where [fixed] is [base] with
   [edited_files]' files: only those can differ, so only they are
   diffed, in path order *)
let patch ~hot cve base =
  let find = Patchfmt.Source_tree.find base in
  List.sort (fun (a, _) (b, _) -> String.compare a b)
    (edited_files ~hot cve find)
  |> List.filter_map (fun (path, contents) ->
         Patchfmt.Diff.diff_file path (Option.get (find path)) contents)

let mainline_patch = patch ~hot:false
let hot_patch = patch ~hot:true

let custom_code_lines cve =
  match cve.custom with
  | None -> 0
  | Some (_, code) ->
    String.split_on_char '\n' code
    |> List.filter (fun l ->
         let l = String.trim l in
         String.length l > 0 && l.[String.length l - 1] = ';')
    |> List.length
