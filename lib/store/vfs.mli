(** Injectable disk I/O with a deterministic fault driver.

    Everything the store does to the filesystem goes through a {!t}
    record, so crash-safety tests can interpose a fault driver in the
    spirit of [Faultinj]: a {!plan} names the k-th mutating operation of
    a run and a {!fault_kind} to fire there. The three kinds model the
    failure taxonomy of real disks:

    - {!Crash}: the process dies mid-operation. A write lands a
      seed-chosen prefix of its bytes (a torn write); atomic operations
      (rename, unlink, mkdir, fsync) do not happen at all. Every
      subsequent operation in that simulated run — reads included —
      raises {!Crashed}, modelling that the process is gone. The caller
      then reopens the directory with a fresh, fault-free handle, which
      is exactly a reboot.
    - {!Enospc}: the device is full. The operation lands a prefix and
      raises {!Io_error}; the process survives and later operations
      succeed (one-shot).
    - {!Torn}: a lying disk. The operation lands a prefix but reports
      success; nothing raises. Only the store's own re-digest and the
      ref table's checksum can catch this later.

    Faults are a pure function of [(plan, operation index)]: no
    randomness, no clocks. The same plan against the same operation
    sequence fires identically every run. *)

(** The simulated process has died: all I/O on this handle refuses. *)
exception Crashed

(** A typed I/O failure (injected or real), e.g. ENOSPC or a failing
    [mkdir]. [op] names the operation, [path] the file it touched. *)
exception Io_error of { op : string; path : string; reason : string }

type t = {
  read_file : string -> string;
  write_file : string -> string -> unit;  (** create/truncate, write all *)
  append_file : string -> string -> unit;  (** create if missing, append *)
  fsync : string -> unit;  (** flush a file {e or directory} to stable storage *)
  rename : string -> string -> unit;
  unlink : string -> unit;
  mkdir : string -> unit;
  readdir : string -> string array;
  exists : string -> bool;
  is_directory : string -> bool;  (** [false] when the path is absent *)
  file_size : string -> int;
}

(** The real filesystem. Failures raise {!Io_error}, never [Sys_error]. *)
val real : t

(** {2 Fault injection} *)

type fault_kind =
  | Crash  (** torn write, then every later op raises {!Crashed} *)
  | Enospc  (** torn write + {!Io_error}; the run continues *)
  | Torn  (** torn write reported as success; the run continues *)

type plan = {
  at : int;  (** fire at the [at]-th mutating operation, 1-based *)
  kind : fault_kind;
  seed : int;  (** selects how many bytes of a torn write land *)
}

type injector

(** [inject plan base] wraps [base] so that mutating operations
    (write/append/rename/unlink/mkdir/fsync) are counted and the
    [plan.at]-th one fires [plan.kind]. Reads are not counted but a
    fired {!Crash} poisons them too. *)
val inject : plan -> t -> t * injector

(** Mutating operations attempted so far (including the faulted one). *)
val ops : injector -> int

(** Whether the planned fault has fired. *)
val fired : injector -> bool

(** [counting base] counts mutating operations without ever faulting —
    the probe run that sizes a crash sweep. *)
val counting : t -> t * (unit -> int)
