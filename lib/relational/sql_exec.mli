(** Executor for the SQL subset over in-memory databases.

    Executes {!Sql_ast} directly (no text round-trip), with SQL semantics:
    three-valued logic in WHERE/HAVING, NULL-skipping aggregates, SQL
    grouping (NULLs group together), LEFT OUTER JOIN null-extension, and
    correlated subqueries. Every statement executed is accounted as one
    roundtrip on the database's statistics and pays its simulated
    latency. *)

type result_set = {
  columns : string list;
  rows : Sql_value.t array list;
}

(** {2 Cursors}

    A cursor is the one way a SELECT's rows are read. Fetching is chunked
    over the same access paths. A direct cursor accounts one statement
    roundtrip (and pays its simulated latency) when it opens — chunks are
    engine-side iteration, not extra roundtrips — and [rows_shipped]
    grows chunk by chunk as rows cross the boundary. The eager part of
    the pipeline (scans, index probes, joins, grouping, ordering) runs at
    open; the projection, DISTINCT and the window are forced lazily, and
    a window forces no row after its last. A SELECT that only filters
    its FROM source (no join, grouping, HAVING or ORDER BY) with a total
    filter is lazy from the scan's snapshot or the index probe's
    candidates on: each row is filtered and projected as it is
    fetched.

    With cross-session work sharing on ({!Database.set_share_work}) and
    no fault schedule pending, {!open_cursor} shares: byte-identical
    concurrent statements coalesce on one execution (single-flight), and
    compatible single-key equality probes arriving within the database's
    adaptive accumulation window merge into one IN-list-shaped roundtrip.
    A shared statement — the coalesced leader, a follower, or a batch
    member — comes back as a {e replay} cursor over the drained rows and
    plan lines of that one execution. A replay chunks like a direct
    cursor but ships no rows and touches no statistics: the shared
    execution accounted them. Sharing is keyed on
    {!Database.data_version}, so a DML between two readers splits them
    into different epochs, and is suspended while a fault schedule is
    active (scripted events align with statements one-to-one). *)

type cursor

val open_cursor :
  Database.t ->
  ?params:Sql_value.t array ->
  Sql_ast.select ->
  (cursor, string) result
(** Opens a SELECT. [params] supplies positional [?] bindings (1-based
    [Param i] reads [params.(i-1)]). *)

val fetch_chunk :
  ?rows:int -> cursor -> (Sql_value.t array list, string) result
(** Up to [rows] (default 64) more result rows; [[]]
    means the cursor is exhausted. An [Error] mid-stream (a lazily
    evaluated projection failing) closes the cursor. *)

val cursor_columns : cursor -> string list

val cursor_plan : cursor -> string list
(** The statement's access-path plan lines so far (the same lines
    {!Database.explain_last} reports after a direct statement); complete
    once the cursor is drained. Returning them with the cursor, instead
    of reading [last_plan] afterwards, keeps plan capture race-free when
    statements for several blocks are in flight on the worker pool
    (PP-k prefetch). *)

val cursor_shared : cursor -> bool
(** True when the statement was served from another session's work (a
    coalesced follower or a merged batch member): no roundtrip of its
    own. *)

val query :
  Database.t ->
  ?params:Sql_value.t array ->
  Sql_ast.select ->
  (result_set, string) result
(** Drains a direct cursor (never shared) for callers that want the whole
    result: a fully drained cursor leaves statistics and [last_plan]
    exactly as this does. *)

val execute_dml :
  Database.t ->
  ?params:Sql_value.t array ->
  Sql_ast.dml ->
  (int, string) result
(** Runs INSERT/UPDATE/DELETE; returns the affected row count. *)
