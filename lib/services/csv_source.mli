(** Delimited (CSV) file sources — the other non-queryable source kind of
    §2.2 (next to XML files).

    "For files, XML schemas are required at file registration time, and
    are used to validate the data for typed processing" (§5.3). A CSV file
    is parsed into row elements named after the registered schema, one
    child element per column (empty fields become missing elements, like
    relational NULLs), then validated so content enters the system
    typed. *)

open Aldsp_xml

val parse :
  ?separator:char -> string -> (string list list, string) result
(** Parses CSV text: quoted fields with [""] escaping, embedded
    separators/newlines inside quotes, CRLF tolerance. Returns rows of
    fields. *)

val load :
  schema:Schema.element_decl ->
  ?separator:char ->
  ?header:bool ->
  string ->
  (Node.t list, string) result
(** [parse] + [rows_to_nodes] on CSV text. *)
