(** One human-readable rendering for every JSON report the tools write:
    sweep reports, BENCH.json, manager event logs. Nothing here knows a
    schema, so a section added tomorrow renders without a code change. *)

(** Indented [key: value] lines. Objects nest by two spaces; a numeric
    array is summarised as [n=.. p50=.. p99=.. max=..] (nearest rank); an
    array of objects prints one line per element holding its scalar
    members; any other array prints one element per line. *)
val pp : Format.formatter -> Json.t -> unit

(** [false] when any object anywhere in the document records a failed
    verdict: [ok: false], a numeric [violations] above zero, or a
    non-empty [violations] array. *)
val verdict : Json.t -> bool

type error = Missing_section of string

val pp_error : Format.formatter -> error -> unit

(** The top-level member [name] of an object document. *)
val section : string -> Json.t -> (Json.t, error) result
