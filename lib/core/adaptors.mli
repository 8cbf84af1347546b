(** The runtime side of the adaptor framework (§5.3, Figure 2).

    Every source invocation follows the same 5-step protocol: establish a
    connection, translate parameters from the token-stream world into the
    source's data model, invoke the source, translate the result back into
    typed XML, and release the connection. For the in-memory substrates,
    connection management reduces to accounting, but the translation steps
    are real: relational rows become "ragged" row elements (NULL = missing
    element, §4.4), service payloads are schema-validated into typed trees,
    and custom-function arguments are atomized.

    Pushed SQL regions do not go through this module: the executor opens
    their statements with {!Sql_exec.open_cursor} and binds rows chunk by
    chunk. This module keeps the row-element mapping, whole-table reads,
    service and custom-function calls, and parameter conversion. *)

open Aldsp_xml
open Aldsp_relational
open Aldsp_services

val row_to_element :
  row_name:Qname.t ->
  columns:(string * Atomic.atomic_type) list ->
  Sql_value.t array ->
  Node.t
(** The SQL-to-XML mapping of §4.4: one child element per non-NULL column,
    values typed per the column's SQL type. *)

val relational_scan :
  Database.t -> table:string -> row_name:Qname.t -> (Item.sequence, string) result
(** Full-table read function: [SELECT * FROM table] through the executor
    (accounted as one roundtrip), rows converted to row elements. *)

val service_call :
  Web_service.t -> operation:string -> Item.sequence -> (Item.sequence, string) result
(** Document-style call: the argument must be a single element (the request
    document); the typed response element is returned. *)

val custom_call :
  Custom_function.registry ->
  Qname.t ->
  Item.sequence list ->
  (Item.sequence, string) result
(** Atomizes each argument to a singleton and invokes the registered
    external function; an empty result models the function's [?] type. *)

val atomic_to_sql : Atomic.t option -> Sql_value.t
(** Boundary conversion for parameter passing (missing = NULL). *)
