(** User programs: MiniC sources compiled with the same toolchain, linked
    standalone, loaded into free machine memory and run as unprivileged
    threads. Exploits and the stress workload are user programs. *)

exception Error of string

(** [load machine ~name ~src] compiles and loads a program; returns the
    entry address of its [main]. @raise Error on compile/link problems or
    a missing [main]. *)
val load : Kernel.Machine.t -> name:string -> src:string -> int

(** [run machine ~name ~src ~uid ~args ()] loads the program, spawns a
    thread on [main] with [args] ([uid] defaults to 1000), and drives the
    scheduler until it exits or faults (or 2 000 000 steps elapse).
    Returns the outcome and the thread (whose [uid] field shows any
    privilege escalation). *)
val run :
  ?uid:int ->
  Kernel.Machine.t ->
  name:string ->
  src:string ->
  args:int32 list ->
  unit ->
  (int32, Kernel.Machine.fault) result * Kernel.Machine.thread
