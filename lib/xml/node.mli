(** XML node trees.

    ALDSP's runtime is a typed token stream; this module is the materialized
    (tree) form of the same data. Element content mixes text nodes (untyped
    character data) with {e typed} atomic leaves — the latter is how typed
    data survives element construction under structural typing (§3.1 of the
    paper): constructing [<CID>{42}</CID>] around an [xs:integer] keeps the
    integer annotation on the content. *)

type t =
  | Element of element
  | Text of string
  | Atom of Atomic.t  (** A typed leaf inside element content. *)

and element = {
  name : Qname.t;
  attributes : (Qname.t * Atomic.t) list;
  children : t list;
}

val element : ?attributes:(Qname.t * Atomic.t) list -> Qname.t -> t list -> t
val text : string -> t
val atom : Atomic.t -> t

val name : t -> Qname.t option
(** The element name, if the node is an element. *)

val children : t -> t list
val attributes : t -> (Qname.t * Atomic.t) list

val child_elements : t -> Qname.t -> t list
(** [child_elements n q] returns the element children of [n] named [q]. *)

val attribute : t -> Qname.t -> Atomic.t option

val string_value : t -> string
(** The concatenated string value of the node's descendants. *)

val typed_value : t -> Atomic.t list
(** Atomization of a node: its typed atomic leaves if it has only typed /
    text content, else a single untyped atomic of its string value. An
    element with element children atomizes to its string value (untyped), as
    in the data model's untyped-element rule. *)

val equal : t -> t -> bool
(** Deep equality; typed leaves compare by value, and a text node never
    equals a typed leaf even when the lexical forms coincide. *)

val escape_into : Buffer.t -> string -> unit
(** Appends the string with ampersand, angle brackets and double quotes
    escaped; a string without any of them is appended as is. *)

val escape_text : string -> string
(** {!escape_into} as a function on strings; returns its argument (no
    copy) when nothing needs escaping. *)

val atomic_into : Buffer.t -> Atomic.t -> unit
(** Appends an atomic's escaped lexical form ({!Atomic.to_string}); string,
    untyped and integer values are written without building it first. *)

val serialize : ?indent:bool -> t -> string
(** XML serialization. Typed leaves are emitted in their lexical form. *)
