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

(** [bindings o] maps each defined symbol name to the binding of its
    first definition, so canonicalising a relocation's symbol (see
    [Update.canonical]) costs O(1) instead of a scan of the symbols. *)
val bindings : t -> (string, Symbol.binding) Hashtbl.t

(** [text_anchor o s] is the symbol defined at offset 0 of text section
    [s]: the function a [.text.<f>] section holds. [None] for other
    section kinds. *)
val text_anchor : t -> Section.t -> Symbol.t option

(** [undefined_symbols o] lists names referenced by relocations but not
    defined by any symbol of [o]. *)
val undefined_symbols : t -> string list

(** Binary serialisation ([SELF1] on {!Codec}). *)
val to_bytes : t -> Bytes.t

(** [of_bytes b] decodes one object occupying all of [b]: trailing bytes
    are an error. Total: arbitrary bytes yield [Error], never an
    exception. *)
val of_bytes : Bytes.t -> (t, Codec.error) result
