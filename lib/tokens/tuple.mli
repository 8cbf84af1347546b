(** The three tuple representations of Figure 4.

    XQuery has no user-visible tuples, but FLWOR variable bindings imply
    them internally (§5.1). ALDSP's runtime keeps three encodings and lets
    the optimizer pick per use site:

    - {b Stream}: [(Begin_tuple, …, Field_separator, …, End_tuple)] — low
      memory, cheap when fields are skipped wholesale, expensive random
      field access;
    - {b Single}: the whole tuple packed into one boxed token — cheap to
      route as a unit, must be unpacked to read fields;
    - {b Array}: one boxed token per field — highest memory, O(1) access to
      every field; the natural shape for relational rows.

    All three encode the same abstract value: a fixed-width record of token
    streams (one per field). *)

type repr = Stream_repr | Single_repr | Array_repr

type t

val repr : t -> repr
val width : t -> int

val of_sequences : repr -> Aldsp_xml.Item.sequence list -> t

val field_items : t -> int -> Aldsp_xml.Item.sequence

val concat : t -> t -> t
(** [concat-tuples]: joins two tuples into one wider tuple, keeping the
    representation of the first operand. *)

val subtuple : t -> int -> int -> t
(** [extract-subtuple t start len] — the converse of {!concat}. *)

val convert : repr -> t -> t

val to_stream : t -> Token_stream.t
(** The stream encoding ([Begin_tuple]/…/[End_tuple]) of any tuple. *)

val equal : t -> t -> bool
(** Representation-independent equality of the encoded record. *)
