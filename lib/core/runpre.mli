(** Run-pre matching (§4): byte-by-byte comparison of the pre object code
    against the running kernel's memory, simultaneously verifying safety
    and inferring symbol values from already-relocated run bytes.

    For every text section of a helper (pre) object, the matcher walks the
    pre instruction stream and the run instruction stream in lockstep:

    - no-op sequences are skipped independently on either side (assembler
      alignment padding differs between build modes, §4.3);
    - short (rel8) and long (rel32) encodings of the same jump are
      equivalent; their targets are checked through the pre↔run boundary
      correspondence once the walk completes;
    - a pre relocation hole yields a symbol-value inference
      [S = val + P_run − A] (Figure 2); repeated sightings must agree;
    - any other divergence aborts the update.

    Where a function's name is ambiguous (multiple kallsyms candidates),
    every candidate address is tried; exactly one must match. Inference
    results from already-matched sections feed later candidate resolution,
    so a static function called by a matched caller is located by its
    inferred address rather than by name. *)

type mismatch = {
  unit_name : string;
  section : string;
  pre_off : int;
  run_addr : int;
  reason : string;
}

(** Why a helper did not match: pre and run code genuinely differ, or
    a function could not be located uniquely. *)
type failure =
  | Mismatch of mismatch
  | Ambiguous of {
      unit_name : string;
      symbol : string;
      matches : int;  (** 0 = no candidate matched, >1 = several did *)
    }

val pp_failure : Format.formatter -> failure -> unit

(** Accumulated inference state, shared across the helpers of one update:
    canonical symbol name (see {!Update.canonical}) to value. *)
type inference = (string, int) Hashtbl.t

val create_inference : unit -> inference

(** Candidate trials (one per [match_text] attempt against a candidate
    address) since the last {!reset_match_attempts} — the denominator the
    differencing bench and minimality sweep compare minimal updates
    against whole-unit ones on. Also mirrored as the
    [runpre.match_attempts] trace counter when tracing is enabled. *)
val match_attempts : unit -> int

val reset_match_attempts : unit -> unit

(** [with_imm i v] replaces the immediate operand of an
    immediate-carrying instruction (the §4 relocation-hole positions).
    @raise Invalid_argument when [i] has no immediate field. *)
val with_imm : Vmisa.Isa.insn -> int32 -> Vmisa.Isa.insn

(** Matcher capabilities, for ablation experiments. Disabling either
    models a naive matcher and demonstrates why §4.3 requires
    architecture knowledge: [skip_nops] absorbs assembler alignment
    padding; [jump_equivalence] treats short (rel8) and long (rel32)
    encodings of one jump as the same instruction and compares their
    targets through the boundary map rather than their displacement
    bytes. *)
type tolerance = {
  skip_nops : bool;
  jump_equivalence : bool;
}

val full_tolerance : tolerance

(** [match_helper ~read_run ~candidates ~already ~inference helper]
    matches every text section of [helper] against the running kernel.

    [read_run] reads one byte of kernel memory. [candidates name] returns
    candidate run addresses for a function name (e.g. kallsyms entries of
    kind [`Func]). [already (unit, fn)] handles §5.4 stacked updates: when
    a previous hot update already redirected the function it returns
    [(code_addr, symbol_value)] — the pre code is matched against the
    latest replacement code at [code_addr], while the function's {e symbol
    value} stays [symbol_value] (its original entry, where unchanged
    callers still point and where the trampoline chain begins).

    Returns the run address of every function in the helper, keyed by
    canonical name, and extends [inference] with every symbol value
    learned; [Error] when pre and run code genuinely differ or a function
    cannot be located uniquely. *)
val match_helper :
  ?tolerance:tolerance ->
  read_run:(int -> int) ->
  candidates:(string -> int list) ->
  already:(string * string -> (int * int) option) ->
  inference:inference ->
  Objfile.t ->
  ((string * int) list, failure) result
