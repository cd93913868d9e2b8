(** SELF object files: the simulated ELF this reproduction's toolchain
    produces and Ksplice consumes.

    An object file is a named compilation unit holding sections, a symbol
    table, and relocations (attached to sections). It supports binary
    (de)serialisation so that object files, kernel modules and Ksplice
    update files are real on-disk artifacts. *)

type t = {
  unit_name : string;  (** source unit this object was compiled from *)
  sections : Section.t list;
  symbols : Symbol.t list;
}

val make :
  unit_name:string -> sections:Section.t list -> symbols:Symbol.t list -> t

val pp : Format.formatter -> t -> unit

(** [find_section o name] returns the section named [name], if any. *)
val find_section : t -> string -> Section.t option

(** [find_symbol o name] returns the first symbol named [name], if any.
    Note that local symbol names need not be unique; see
    [symbols_named]. *)
val find_symbol : t -> string -> Symbol.t option

(** [symbols_named o name] returns every symbol with the given name. *)
val symbols_named : t -> string -> Symbol.t list

(** [defined_symbols_in o section] lists symbols defined inside [section],
    sorted by offset. *)
val defined_symbols_in : t -> string -> Symbol.t list

(** [undefined_symbols o] lists names referenced by relocations but not
    defined by any symbol of [o]. *)
val undefined_symbols : t -> string list

(** Binary serialisation. *)
val to_bytes : t -> Bytes.t

(** Why a blob failed to decode: the byte offset the reader stood at and
    what it found there. Decoding is {e total} — arbitrary bytes yield
    [Error], never an exception. *)
type decode_error = { de_off : int; de_reason : string }

val pp_decode_error : Format.formatter -> decode_error -> unit

(** [of_bytes b] decodes one object occupying all of [b]: trailing bytes
    are an error. *)
val of_bytes : Bytes.t -> (t, decode_error) result
