(** SQL round-trip checking (§4.4).

    Two obligations per pushed {!Aldsp_core.Cexpr.clause-Rel} region:

    {ol
    {- The owning database's own dialect printer must accept the
       statement — {!Aldsp_relational.Sql_print.Unsupported} here means
       the pushdown capability gates let through a feature the dialect
       cannot express, and is reported as a failure.}
    {- The SQL92 rendering of the statement must survive a full text
       round-trip: re-parse via {!Aldsp_relational.Sql_parser}, reprint
       to a byte-identical fixpoint, and execute (both ASTs, every
       positional parameter bound to NULL on both sides) to the same
       result table. Regions using vendor-only features SQL92 cannot
       express (row windows) are skipped — that dialect text is
       display-oriented and outside the parser's contract.}} *)

open Aldsp_core

val check_query : Server.t -> string -> (int, string) result
(** Compiles the query on the server and round-trips its plan. *)
