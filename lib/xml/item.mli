(** Items and sequences — the values of the XQuery Data Model.

    Every XQuery expression evaluates to a sequence of items, where an item
    is either an atomic value or a node. Sequences are flat (no nesting) and
    a singleton is identical to the item itself. *)

type t = Atom of Atomic.t | Node of Node.t

type sequence = t list

val atom : Atomic.t -> t
val node : Node.t -> t

val integer : int -> t
val string : string -> t
val boolean : bool -> t

val atomize : sequence -> (Atomic.t list, string) result
(** [fn:data]: each node contributes its typed value, atomics pass
    through. *)

val ebv : sequence -> (bool, string) result
(** Effective boolean value: empty is false, a sequence whose first item is
    a node is true, a singleton atomic delegates to {!Atomic.ebv}, other
    sequences are errors. *)

val string_value : t -> string

val equal_sequence : sequence -> sequence -> bool

val serialize : sequence -> string
(** Serializes a sequence for display: nodes as XML, atomics in lexical
    form, separated by spaces. *)
