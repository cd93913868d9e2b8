(** Fragment assembler.

    A fragment is a growable sequence of instructions, labels, alignment
    directives and data items that is assembled into a section image:
    bytes, relocations, and label offsets. Both the MiniC code generator
    and the textual assembler emit through this module.

    As in gas, a fragment is a buffer of {e fixed} bytes plus the
    {e variable points} between them. Each instruction and data item is
    encoded into the buffer once, when it is emitted, and a relocation is
    recorded at its offset there. A jump to a label, an alignment and a
    label are variable points: they record only their position in the
    buffer, and {!assemble} lays out the points alone.

    Jumps to labels within the same fragment are subject to {e relaxation}:
    they start as long (rel32) forms and are shrunk to short (rel8) forms
    when the displacement fits, iterating to a fixpoint; a final pass
    re-expands any short jump an alignment pushed out of reach. A fixed
    byte's position is its buffer offset plus the sizes of the points
    before it, so laying out the points gives every jump the distance,
    and every short/long choice, that laying out every item would. This
    is the mechanism that makes code layout sensitive to distance — the
    property run-pre matching must absorb (paper §4.3). Alignment
    directives pad with multi-byte no-op sequences in text fragments, as
    assemblers do. *)

type t

val create : unit -> t

(** Fixed instruction with no relocation. *)
val insn : t -> Vmisa.Isa.insn -> unit

(** [insn_reloc t i kind sym addend] emits [i] whose immediate or
    displacement field is a relocation site against [sym]. For [Pc32] on a
    jump/call operand the conventional addend is [-(field width)]; use
    {!jump_reloc} which computes it. @raise Invalid_argument if [i] has no
    immediate or 32-bit pc-relative field. *)
val insn_reloc :
  t -> Vmisa.Isa.insn -> Objfile.Reloc.kind -> string -> int32 -> unit

(** [jump_reloc t cls sym] emits a long-form jump/call of class [cls] whose
    target is the external symbol [sym], with a [Pc32] relocation and the
    x86-style [-4] addend. *)
val jump_reloc : t -> Vmisa.Isa.jump_class -> string -> unit

(** [jump t cls label] emits a jump/call of class [cls] to a label defined
    in the same fragment, before or after the jump; the encoding (short
    or long) is chosen by relaxation. Calls have no short form. *)
val jump : t -> Vmisa.Isa.jump_class -> string -> unit

(** Define a label at the current position.
    @raise Invalid_argument on duplicate label. *)
val label : t -> string -> unit

(** [align t n] pads to an [n]-byte boundary ([n] a power of two). In text
    fragments the padding is no-op instructions; in data it is zeros (the
    choice is made at {!assemble} time). *)
val align : t -> int -> unit

(** Raw data bytes. *)
val bytes : t -> Bytes.t -> unit

val string : t -> string -> unit

(** 32-bit little-endian constant. *)
val word : t -> int32 -> unit

(** 32-bit field holding an [Abs32] relocation against [sym]. *)
val word_reloc : t -> string -> int32 -> unit

val zeros : t -> int -> unit

(** Result of assembling a fragment. *)
type image = {
  data : Bytes.t;
  relocs : Objfile.Reloc.t list;
  labels : (string * int) list;  (** in definition order *)
}

exception Error of string

(** [assemble t ~text] lays out the fragment. [text] selects no-op (true)
    or zero (false) alignment padding. [t] is left as it was.
    @raise Error when a jump or call targets a label the fragment does
    not define. *)
val assemble : t -> text:bool -> image

(** [extents labels ~upto] sizes each label of [labels], given in
    offset order, as the distance to the next one, and the last as the
    distance to [upto]: [(label, offset, size)] in the same order. This
    is the size of a function or datum symbol that runs to the next
    label. *)
val extents : ('a * int) list -> upto:int -> ('a * int * int) list
