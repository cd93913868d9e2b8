(** Static linker: object files to a bootable kernel image with a kallsyms
    symbol table.

    The symbol table deliberately mirrors Linux's kallsyms: it contains
    {e every} defined symbol, including unit-local (static) ones, so
    duplicate names occur — the evaluation's "6,164 symbols share their
    name with other symbols" statistic (§6.3) and the ambiguity run-pre
    matching resolves both come from here. *)

type syminfo = {
  name : string;
  addr : int;
  size : int;
  binding : Objfile.Symbol.binding;
  kind : [ `Func | `Object | `Notype ];
  unit_name : string;  (** compilation unit that defined the symbol *)
}

type t = {
  base : int;
  size : int;  (** total footprint including bss *)
  data : Bytes.t;  (** initialised part (text+rodata+data); bss beyond *)
  kallsyms : syminfo list;
  text_range : int * int;  (** [start, end) of kernel text *)
  (* section placements: (unit, section name, addr, size) *)
  placements : (string * string * int * int) list;
}

(** Why a link cannot complete. Errors are data: every field a caller
    might want to report or branch on is carried in the variant, and
    {!pp_error} renders the canonical message. *)
type error =
  | Missing_section of {
      ms_unit : string;
      ms_symbol : string;
      ms_section : string;  (** symbol defined in a section not present *)
    }
  | Duplicate_global of {
      dg_symbol : string;
      dg_first_unit : string;
      dg_second_unit : string;
    }
  | Undefined_symbol of {
      us_unit : string;
      us_symbol : string;
      us_section : string;
      us_offset : int;  (** relocation site within the section *)
    }

val pp_error : Format.formatter -> error -> unit

(** [link ~base objects] lays out sections (text, rodata, data, bss — in
    that order), resolves and applies all relocations, and builds
    kallsyms. Returns [Error _] on duplicate global definitions,
    symbols defined in missing sections, or unresolved relocations. *)
val link : base:int -> Objfile.t list -> (t, error) result

(** [lookup image name] returns all kallsyms entries with the given name
    (there may be several — local symbols are not unique). *)
val lookup : t -> string -> syminfo list

(** [lookup_global image name] returns the unique global symbol with that
    name, if any. *)
val lookup_global : t -> string -> syminfo option

(** [symbol_census image] returns [(total, ambiguous)] symbol counts:
    symbols whose name is shared with at least one other symbol. *)
val symbol_census : t -> int * int

(** [units_with_ambiguous_symbol image] lists compilation units containing
    at least one symbol whose name is ambiguous kernel-wide (§6.3's
    "21.1% of the compilation units"). *)
val units_with_ambiguous_symbol : t -> string list
