(** KVX-32: the simulated 32-bit instruction set used by the kernel VM.

    KVX-32 stands in for x86-32 (see DESIGN.md). It deliberately reproduces
    the properties Ksplice's run-pre matching depends on: variable-length
    byte-encoded instructions, pc-relative jumps and calls in both short
    (rel8) and long (rel32) forms, and multi-byte no-op sequences used by the
    assembler for alignment padding. *)

(** General-purpose registers. [SP] is the stack pointer; by software
    convention [R6] is the frame pointer and [R0] carries return values. *)
type reg = R0 | R1 | R2 | R3 | R4 | R5 | R6 | R7 | SP

val reg_to_int : reg -> int
val reg_of_int : int -> reg option

(** Condition codes for conditional jumps (signed comparisons). *)
type cond = Eq | Ne | Lt | Ge | Gt | Le

(** Memory access widths. 8- and 16-bit loads zero-extend; signedness is the
    compiler's job via {!Sext8}/{!Sext16}. *)
type width = W8 | W16 | W32

(** Instructions. Relative displacements in [Jmp]/[Jcc]/[Call] (and their
    short forms) are relative to the address of the {e next} instruction,
    matching the x86 convention the paper's addend discussion (§4.3) uses. *)
type insn =
  | Hlt
  | Nop of int  (** no-op of width 1, 2 or 3 bytes *)
  | Mov_rr of reg * reg  (** rd <- rs *)
  | Mov_ri of reg * int32  (** rd <- imm32 (imm may be a relocation site) *)
  | Load of width * reg * reg * int  (** rd <- mem[rs + off16] *)
  | Store of width * reg * int * reg  (** mem[rbase + off16] <- rs *)
  | Load_abs of width * reg * int32  (** rd <- mem[abs32] *)
  | Store_abs of width * int32 * reg  (** mem[abs32] <- rs *)
  | Add of reg * reg
  | Sub of reg * reg
  | Mul of reg * reg
  | Div of reg * reg
  | Mod of reg * reg
  | And of reg * reg
  | Or of reg * reg
  | Xor of reg * reg
  | Shl of reg * reg
  | Shr of reg * reg
  | Sar of reg * reg
  | Addi of reg * int32
  | Cmp of reg * reg  (** set flags from rd - rs *)
  | Cmpi of reg * int32
  | Neg of reg
  | Not of reg
  | Setcc of cond * reg  (** rd <- 1 if flags satisfy cond else 0 *)
  | Jmp of int32  (** long unconditional jump, rel32 *)
  | Jmp_s of int  (** short unconditional jump, rel8 (signed) *)
  | Jcc of cond * int32  (** long conditional jump, rel32 *)
  | Jcc_s of cond * int  (** short conditional jump, rel8 (signed) *)
  | Call of int32  (** push return address, jump rel32 *)
  | Call_r of reg  (** indirect call through register *)
  | Ret
  | Push of reg
  | Pop of reg
  | Sext8 of reg
  | Sext16 of reg
  | Zext8 of reg
  | Zext16 of reg
  | Int of int  (** host escape / trap, imm8 *)

val insn_to_string : insn -> string

(** [length i] is the encoded size of [i] in bytes. *)
val length : insn -> int

(** [encode buf pos i] writes the encoding of [i] at [pos] and returns the
    number of bytes written. @raise Invalid_argument on malformed operands
    (e.g. a short displacement that does not fit in 8 bits). *)
val encode : Bytes.t -> int -> insn -> int

(** [encode_to_bytes i] is the encoding of [i] as a fresh byte string. *)
val encode_to_bytes : insn -> Bytes.t

(** Decode failure: the opcode byte at the given offset is not a valid
    instruction, or the instruction is truncated. *)
exception Decode_error of int

(** [decode get pos] decodes one instruction whose first byte is [get pos];
    returns the instruction and its length.
    @raise Decode_error if the bytes do not form a valid instruction. *)
val decode : (int -> int) -> int -> insn * int

(** [decode_bytes b pos] decodes from a byte string. *)
val decode_bytes : Bytes.t -> int -> insn * int

(** [is_nop i] is true for no-op instructions of any width. *)
val is_nop : insn -> bool

(** Classification of pc-relative control transfers, used by run-pre
    matching to compare jumps whose encodings (short vs long) or
    displacements differ between the run and pre code. *)
type jump_class = Cjmp | Cjcc of cond | Ccall

(** [pc_rel i] is [Some (cls, disp, field_off, field_size)] when [i] has a
    pc-relative displacement operand: [disp] relative to the next
    instruction, located [field_off] bytes into the encoding and
    [field_size] bytes wide. *)
val pc_rel : insn -> (jump_class * int * int * int) option

(** [with_disp i disp] replaces the displacement of a pc-relative
    instruction. @raise Invalid_argument on non-jump instructions or a short
    form whose new displacement does not fit. *)
val with_disp : insn -> int -> insn

(** [same_shape a b] holds when [a] and [b] are the same instruction up to
    pc-relative displacement values and short/long encoding of the same jump
    class. Non-jump instructions must be structurally equal. Run-pre
    matching uses this as its per-instruction equivalence. *)
val same_shape : insn -> insn -> bool

(** [imm_field i] is [Some (field_off, field_size)] for instructions that
    carry a 32-bit immediate or absolute-address operand (the positions
    where [Abs32] relocations may appear). *)
val imm_field : insn -> (int * int) option
