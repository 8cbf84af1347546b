(** The typed XML token stream (after the BEA streaming XQuery processor,
    [11] in the paper).

    A token stream is a flat event encoding of XQuery Data Model instances:
    it is what adaptors feed into the ALDSP runtime and what runtime
    operators consume and produce. Unlike SAX/StAX it represents the full
    data model — atomic values keep their types — and it adds the tuple
    delimiters ALDSP introduced for its data-centric workloads
    ([Begin_tuple] / [Field_separator] / [End_tuple], §5.1). *)

open Aldsp_xml

type t =
  | Start_element of Qname.t
  | End_element
  | Attribute of Qname.t * Atomic.t
  | Atom of Atomic.t  (** A typed atomic value in content position. *)
  | Text of string
  | Begin_tuple
  | End_tuple
  | Field_separator
  | Boxed of t array
      (** A nested stream packed into one token — the "single token" tuple
          representation of Figure 4. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
