(** Booting the base kernel into a machine: build (distro-style, no
    function sections), link, create the VM, run the init functions, seed
    the task table, and optionally start kernel worker threads (which make
    [worker_loop] non-quiescent, as §5.2 describes for [schedule]). *)

type booted = {
  build : Kbuild.build;
  image : Klink.Image.t;
  machine : Kernel.Machine.t;
}

(** [boot ?workers ?tree ()] boots [tree] (default {!Base_kernel.tree}).
    [workers] (default 0) kernel worker threads are spawned.
    @raise Failure if [tree] does not build or link, or an init function
    faults. *)
val boot : ?workers:int -> ?tree:Patchfmt.Source_tree.t -> unit -> booted

(** [syscall b ~uid nr args] invokes a syscall through the entry path the
    way a user thread would (for host-side checks). *)
val syscall : booted -> uid:int -> int -> int32 list -> (int32, Kernel.Machine.fault) result

(** Why a kallsyms global lookup failed. *)
type global_error =
  | No_such_symbol of string
  | Ambiguous_symbol of { name : string; candidates : (string * int) list }
      (** every same-named entry as (defining unit, address) *)

val pp_global_error : Format.formatter -> global_error -> unit

(** [read_global_result b name] reads a 32-bit kernel global through
    kallsyms. When several entries share the name (a loaded module
    publishing a same-named local alongside the kernel's global, say),
    a {e unique strongest binding} disambiguates: one GLOBAL entry among
    locals wins. Anything else is a typed [Ambiguous_symbol] listing
    every candidate. *)
val read_global_result : booted -> string -> (int32, global_error) result

(** [read_global b name] is {!read_global_result}, raising on error.
    @raise Failure if the symbol is missing or genuinely ambiguous. *)
val read_global : booted -> string -> int32

(** The secret planted at boot ([boot_token]); exploit checks compare
    leaked values against it. *)
val secret : int32
