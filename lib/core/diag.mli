(** Compiler diagnostics and the two-mode error-handling policy of §4.1.

    The compiler "fails on first error when invoked for query compilation on
    the server at runtime, but recovers as gracefully as possible when being
    used by the XQuery editor at data service design time". [Fail_fast]
    raises through {!error}; [Recover] records the diagnostic and lets the
    caller substitute an error expression / error type and continue. *)

type t = { phase : string; message : string }  (** An error. *)

type mode = Fail_fast | Recover

exception Compile_error of t

type collector

val collector : mode -> collector

val error : collector -> phase:string -> ('a, unit, string, unit) format4 -> 'a
(** Reports an error: raises {!Compile_error} in [Fail_fast] mode, records
    it in [Recover] mode. *)

val diagnostics : collector -> t list
val has_errors : collector -> bool

val to_string : t -> string
