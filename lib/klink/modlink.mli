(** Module loader: place and relocate an object file against a running
    kernel. Ksplice's primary and helper modules go through this path. *)

type placed = {
  section : Objfile.Section.t;
  addr : int;
}

type t = {
  obj : Objfile.t;
  placed : placed list;
  (* load-time addresses of symbols this module itself defines *)
  own_symbols : (string * int) list;
}

(** Why a module load cannot complete; {!pp_error} renders the canonical
    message. *)
type error =
  | Unresolved_symbol of {
      un_module : string;
      un_symbol : string;
      un_section : string;
      un_offset : int;  (** relocation site within the section *)
    }

val pp_error : Format.formatter -> error -> unit

(** [layout ~alloc obj] assigns an address to every allocatable section
    ([alloc ~size ~align] returns a fresh address; Note sections are
    skipped). *)
val layout : alloc:(size:int -> align:int -> int) -> Objfile.t -> t

(** [section_addr t name] is the load address of section [name]. *)
val section_addr : t -> string -> int option

(** [symbol_addr t name] is the load address of a symbol defined by the
    module itself. *)
val symbol_addr : t -> string -> int option

(** [relocate t ~resolve] produces the final byte image of every
    initialised section, resolving relocations first against the module's
    own symbols and then through [resolve].
    Returns [(addr, bytes)] write commands (bss sections produce zero
    fills); [Error _] names the first unresolvable symbol. *)
val relocate :
  t ->
  resolve:(string -> int option) ->
  ((int * Bytes.t) list, error) result
