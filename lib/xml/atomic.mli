(** Typed atomic values — the XQuery Data Model atomic types used by ALDSP's
    data-centric subset.

    ALDSP always works with the {e typed} token stream: every leaf value
    carries its XML Schema simple type. This module provides the value
    representation together with the casting, comparison and arithmetic
    semantics that the compiler's normalization phase makes explicit. *)

(** The atomic type lattice (a practical subset of XML Schema). *)
type atomic_type =
  | T_string
  | T_integer
  | T_decimal
  | T_double
  | T_boolean
  | T_date
  | T_date_time
  | T_untyped  (** [xs:untypedAtomic] — text with no schema type. *)

type date = { year : int; month : int; day : int }

type t =
  | String of string
  | Integer of int
  | Decimal of float
  | Double of float
  | Boolean of bool
  | Date of date
  | Date_time of float  (** Seconds since the Unix epoch, UTC. *)
  | Untyped of string

val type_of : t -> atomic_type

val type_name : atomic_type -> string
(** The [xs:] name of an atomic type, e.g. ["xs:integer"]. *)

val type_of_name : string -> atomic_type option
(** Inverse of {!type_name}; also accepts names without the [xs:] prefix. *)

val is_numeric_type : atomic_type -> bool

val subtype : atomic_type -> atomic_type -> bool
(** [subtype a b] holds when a value of type [a] is usable where [b] is
    expected without cast (numeric promotion counts as usable). *)

val to_string : t -> string
(** The XML Schema lexical form (what serialization emits). *)

val pp : Format.formatter -> t -> unit

val parse : atomic_type -> string -> (t, string) result
(** [parse ty s] interprets the lexical form [s] as type [ty]. *)

val cast : atomic_type -> t -> (t, string) result
(** XQuery [cast as] semantics for the supported types, including
    untyped-atomic promotion and date/dateTime/epoch conversions. *)

val compare_values : t -> t -> (int, string) result
(** Value comparison with numeric promotion; untyped operands are compared
    as strings against strings and as doubles against numerics. Errors on
    incomparable types. *)

val equal : t -> t -> bool
(** Structural equality of value and type. *)

val general_equal : t -> t -> bool
(** XQuery general-comparison equality ([=]) for two atomics: value
    comparison, treating incomparable pairs as unequal. *)

val add : t -> t -> (t, string) result
val sub : t -> t -> (t, string) result
val mul : t -> t -> (t, string) result
val div : t -> t -> (t, string) result
val idiv : t -> t -> (t, string) result
val modulo : t -> t -> (t, string) result

val ebv : t -> (bool, string) result
(** Effective boolean value of a singleton atomic. *)

val epoch_of_date : date -> float
(** Midnight UTC at the start of [date], as seconds since the epoch. *)

val date_of_epoch : float -> date

val date_time_to_string : float -> string
(** ISO-8601 [YYYY-MM-DDThh:mm:ssZ] rendering of an epoch time. *)

val date_time_of_string : string -> (float, string) result
