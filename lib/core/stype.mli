(** Static sequence types with {e structural} element typing.

    ALDSP departs from the XQuery specification in two ways that this module
    embodies (§3.1, §4.1 of the paper):

    - {b Structural typing}: the static type of a constructed element
      [<E>{e}</E>] is an element type named [E] whose content type is the
      structural type of [e] — construction does not erase the content's
      types. Consequently [data(<E>{$x}</E>/child::...)]-style
      construct-then-navigate patterns preserve types, which is what makes
      view unfolding effective.
    - {b Optimistic checking}: a call [f($x)] is statically valid iff the
      type of [$x] has a {e non-empty intersection} with the parameter type
      (the spec demands subtyping); a runtime [typematch] is inserted unless
      subtyping can be proven.

    A sequence type is a union of item types plus an occurrence range. *)

open Aldsp_xml

type item_type =
  | It_atomic of Atomic.atomic_type
  | It_element of element_type
  | It_attribute of Qname.t option * Atomic.atomic_type
  | It_text
  | It_node  (** any node *)
  | It_item  (** any item *)
  | It_error  (** the error type assigned by design-time recovery (§4.1) *)

and element_type = {
  elem_name : Qname.t option;  (** [None] = wildcard. *)
  content : t;  (** Structural content type. *)
  simple : Atomic.atomic_type option;
      (** Typed-leaf content, when the element has simple content. *)
}

(** Occurrence indicators, forming the lattice [0..0 <= ? <= * ], [1 <= +]. *)
and occurrence = { at_least_one : bool; at_most_one : bool }

and t = { items : item_type list; occ : occurrence }

val empty_sequence : t
val one : item_type -> t
val opt : item_type -> t
val star : item_type -> t
val plus : item_type -> t

val atomic : Atomic.atomic_type -> t
val any_item_star : t
val error_type : t
val is_error : t -> bool

val element :
  ?simple:Atomic.atomic_type -> ?content:t -> Qname.t option -> item_type

val with_occ : occurrence -> t -> t
val occ_one : occurrence
val occ_opt : occurrence
val occ_star : occurrence
val occ_plus : occurrence

val merge_items : item_type list -> item_type list -> item_type list
(** The item types of the first list, then those of the second that the
    first lacks: equal item types merge. *)

val union : t -> t -> t
(** Type of [if .. then a else b] / mixed sequences. *)

val sequence : t -> t -> t
(** Type of [a, b]: item union, occurrences added. *)

val iterate : t -> t
(** Per-item type for a [for] variable: the item union with occurrence 1. *)

val atomized : t -> t
(** Static type of [fn:data] applied to a value of this type. *)

val subtype : t -> t -> bool
(** [subtype a b]: every value of [a] is a value of [b]. Structural on
    element content. *)

val intersects : t -> t -> bool
(** Non-empty intersection — the ALDSP optimistic function-call rule. An
    empty-able occurrence intersection counts only if both sides admit the
    empty sequence or share an item type. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
