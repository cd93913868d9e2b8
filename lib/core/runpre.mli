(** Run-pre matching (§4): byte-by-byte comparison of the pre object code
    against the running kernel's memory, simultaneously verifying safety
    and inferring symbol values from already-relocated run bytes.

    The comparison itself is {!walk}, the one code-comparison walker the
    repository has: run-pre matching walks a pre text section against run
    memory, and pre-post differencing ({!Prepost.diff_unit}) walks it
    against the post build's section. Both streams are walked in
    lockstep:

    - no-op sequences are skipped independently on either side (assembler
      alignment padding differs between build modes, §4.3);
    - short (rel8) and long (rel32) encodings of the same jump are
      equivalent; their targets are checked through the pre→other
      instruction-boundary map once the walk completes;
    - each pre relocation hole goes to the caller: run-pre matching infers
      [S = val + P_run − A] (Figure 2), and repeated sightings must agree;
      differencing checks the post hole against its temp correlation;
    - any other divergence stops the walk with a typed {!divergence}.

    Where a function's name is ambiguous (multiple kallsyms candidates),
    every candidate address is tried; exactly one must match. Inference
    results from already-matched sections feed later candidate resolution,
    so a static function called by a matched caller is located by its
    inferred address rather than by name. *)

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

(** {2 The code-comparison walker} *)

(** Where the pre code and the other stream first differ. *)
type divergence =
  | Symbol_conflict of { symbol : string; inferred : int; previous : int }
      (** a hole's run bytes give its (canonical) symbol a value that an
          earlier hole contradicts *)
  | Jump_class of Vmisa.Isa.insn * Vmisa.Isa.insn
      (** both jump, but as different kinds (jmp, jcc of a condition,
          call) *)
  | Strict_jump of Vmisa.Isa.insn * Vmisa.Isa.insn
      (** same jump, different encoding or displacement (only without
          [jump_equivalence]) *)
  | Short_jump_reloc  (** a relocation on a one-byte jump operand *)
  | Jump_escape  (** a jump leaves its section *)
  | Jump_target of { pre_target : int; mapped : int; target : int }
      (** the pre target maps to [mapped], the other jump goes to
          [target] *)
  | Jump_into_insn of int
      (** the pre jump lands inside an instruction (a pre offset) *)
  | Insn_mismatch of {
      pre : Vmisa.Isa.insn;
      other : Vmisa.Isa.insn;
      at_hole : bool;  (** the pre instruction holds a relocation hole *)
    }
  | Length_mismatch
      (** a bounded stream ends before or after the pre section (run
          memory has no end, so only differencing sees this) *)
  | Undecodable of [ `Pre | `Other ]
  | Unreadable  (** reading run memory failed *)

(** The reason text of a run-pre refusal. *)
val divergence_to_string : divergence -> string

(** What the pre section is walked against. The caller supplies the
    judgment of each pre relocation hole. *)
type stream =
  | Post of {
      section : Objfile.Section.t;
      same_hole : Objfile.Reloc.t -> Objfile.Reloc.t -> bool;
          (** [same_hole pre post]: do the pre hole and the post
              section's relocation at the same field denote the same
              value? *)
    }
      (** the post build of the same function: bounded, it must end
          where the pre section ends *)
  | Run of {
      read : int -> int;  (** one byte of run memory; may raise *)
      base : int;  (** where the code starts *)
      infer : Objfile.Reloc.t -> int -> (unit, divergence) result;
          (** [infer hole value]: the run bytes give the hole's symbol
              [value] *)
    }  (** run memory: unbounded *)

(** [walk ~tolerance pre other] compares text section [pre] with
    [other]. [Error (pre_off, other_off, d)] names the first divergence
    and where it was found in each stream (the other offset is an
    address for run memory). *)
val walk :
  tolerance:tolerance ->
  Objfile.Section.t ->
  stream ->
  (unit, int * int * divergence) result

(** {2 Matching a helper against run memory} *)

type mismatch = {
  unit_name : string;
  section : string;
  pre_off : int;
  run_addr : int;
  reason : divergence;
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

(** Candidate trials (one per walk of a section against a candidate
    address) since the last {!reset_match_attempts} — the denominator the
    differencing bench and minimality sweep compare minimal updates
    against whole-unit ones on. Also mirrored as the
    [runpre.match_attempts] trace counter when tracing is enabled. *)
val match_attempts : unit -> int

val reset_match_attempts : unit -> unit

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
