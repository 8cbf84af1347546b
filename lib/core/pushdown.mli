(** SQL plan preparation and generation (§4.3-§4.4).

    Pushdown looks at regions of the expression tree whose data all comes
    from the same relational database and compiles them into SQL, leaving
    the rest for the middleware engine. The phases:

    {b Scan conversion}: a FLWOR [for] over an introspected table function
    becomes a {!Cexpr.clause.Rel} clause binding one variable per column,
    plus a row-element reconstruction [let]; field navigation through the
    row variable is resolved to the column variables, so a column a query
    never touches is never fetched (source-access elimination, §4.2).

    {b Region growth}: adjacent clauses fold into the region —
    [where] predicates (with non-pushable subexpressions evaluated in the
    middleware and bound as SQL {e parameters}), same-database joins
    (inner and left outer, patterns b/c), grouped outer joins with
    aggregates (pattern g), FLWGOR group-bys with aggregations (pattern e)
    and the DISTINCT special case (pattern f), [order by], and computed
    scalar projections ([if-then-else] → CASE, pattern d; string/numeric
    functions per the vendor's capabilities). Quantified expressions over
    same-database tables translate to EXISTS semi-joins (pattern h).
    [fn:subsequence] over a pushed ordered region becomes the vendor's row
    window — Oracle's ROWNUM wrapper, pattern i — when the dialect
    supports one.

    {b Join parameterization}: a cross-database (or otherwise unmergeable)
    join whose right side is a pushed region with equi-join keys gets the
    key comparison compiled into the right side's SQL as [col = ?]
    parameters bound from left-tuple values — the access path the PP-k
    method batches in blocks of k (§4.2).

    {!push} is one bottom-up walk: each FLWOR goes through scan
    conversion, region growth, bind pruning and join parameterization
    after the expressions inside it, and a [fn:subsequence] call gets its
    window after its arguments. A merge hands its region back to region
    growth, which goes on absorbing the clauses after it, so no phase is
    rerun.

    Pushdown aggressiveness is vendor-dependent: the dialect capabilities
    of {!Aldsp_relational.Sql_print.capabilities} gate CASE, concatenation
    and windows, with "base SQL92" the conservative fallback. *)

val push :
  ?gate:
    (outer:Cexpr.clause list ->
    whole:Cexpr.sql_access ->
    Cexpr.sql_access ->
    bool) ->
  Metadata.t ->
  Cexpr.t ->
  Cexpr.t
(** [gate ~outer ~whole r'] (default: always true) is consulted before a
    join's right-side region [whole] is replaced by its parameterized
    form [r'] for PP-k; [outer] is the clause pipeline preceding the
    join. The server installs the cost-based transfer-volume gate here
    ({!Optimizer.parameterize_gate}): when probing block-by-block is
    estimated to cost more than shipping the region whole, the join keeps
    its unparameterized right side — the same (fully tested) plan shape
    produced when no equi key translates to a column — so gating never
    changes results. *)

val prune : Cexpr.t -> Cexpr.t
(** Drops every pushed region's binds, and their SELECT columns, that
    nothing after the region reads. {!push} ends each FLWOR with this
    step; the server runs it again after {!Optimizer.cleanup} has removed
    the row-reconstruction lets nothing reads, so the columns only those
    lets read stop being fetched. *)
