(** SQL values with NULL and three-valued logic.

    NULL is a first-class value here (unlike the XML side, where relational
    NULLs are modeled as {e missing elements}, §4.4); the relational adaptor
    performs that translation at the boundary. *)

open Aldsp_xml

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Timestamp of float  (** Seconds since the Unix epoch, UTC. *)

(** Result of a three-valued-logic predicate. *)
type truth = True | False | Unknown

val is_null : t -> bool

val compare_sql : t -> t -> int option
(** SQL comparison: [None] when either side is NULL or the types are
    incomparable, [Some c] otherwise. Numeric types compare across Int and
    Float. *)

val equal : t -> t -> bool
(** Structural equality ([Null = Null] holds) — used for grouping and
    DISTINCT, where SQL treats NULLs as equal. *)

val truth_of_comparison : (int -> bool) -> t -> t -> truth

val and_ : truth -> truth -> truth
val or_ : truth -> truth -> truth
val not_ : truth -> truth

val to_atomic : t -> Atomic.t option
(** Boundary conversion to the XML side; NULL maps to [None] (missing
    element). *)

val of_atomic : Atomic.t -> t

val to_string : t -> string
(** SQL literal syntax: strings quoted with [''], NULL as [NULL]. *)
