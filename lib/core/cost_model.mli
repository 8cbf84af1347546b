(** The cost model behind statistics-driven plan selection.

    The paper treats join-method choice, PP-k block depth and pushdown
    shape as cost decisions (§4, §5.2); this module prices them from the
    per-table statistics the relational layer maintains incrementally
    ({!Aldsp_relational.Table.statistics}) and each source's declared
    latency/roundtrip profile. Estimates are deliberately coarse — exact
    row counts, exact NDV where an index exists, fixed fractions
    elsewhere — because the decisions they drive (NL vs index-NL vs PP-k,
    k, prefetch, parameterize-or-ship) only need the right order of
    magnitude. All methods are result-identical, so a misestimate costs
    time, never correctness.

    Formulas:
    - scan cardinality: exact live row count (tables, file sources)
    - pushed WHERE of an unparameterized region: its most selective AND
      conjunct, where a literal [col = v] or [col IN (v1..vn)] on a column
      with a single-column index keeps [rows·n/NDV] (at least 1, at most
      rows) and every other shape (OR, NOT, ranges, functions, unindexed
      columns) keeps [rows/3]; middleware where clauses keep [1/3]
    - parameterized probe: [rows/NDV] of the best single-column index
    - equi-join cardinality: [max(outer, inner)] (exact for the PK-FK
      joins introspection generates)
    - PP-k: [Total(k) ~ outer·latency/k + outer·row_cost·k], minimized at
      [k* = sqrt(latency/row_cost)], clamped to [5, 50] and capped by the
      outer estimate; prefetch 2 at >= 1 ms latency, 1 when positive,
      the configured default at zero
    - parameterization gate: [ceil(outer/k)] probe roundtrips plus outer
      matches shipped, vs one roundtrip shipping the whole inner table;
      parameterize within a 2x margin (block probes overlap latency). *)

open Aldsp_xml

type profile = { p_latency : float; p_row_cost : float }
(** Seconds per statement roundtrip / per shipped row. *)

val row_cost : float
(** Default middleware cost of one shipped row (~2 µs, calibrated against
    the PP-k bench optimum). *)

val roundtrip_overhead : float
(** CPU floor of one statement even at zero source latency. *)

val selection_fraction : int
(** Divisor applied by predicates the model cannot see through. *)

val db_profile : Aldsp_relational.Database.t -> profile

val source_profile : Metadata.t -> Qname.t -> profile option
(** Declared cost profile of a registered source function (relational,
    stored procedure, web service, file/CSV). *)

val source_cardinality : Metadata.t -> Qname.t -> int option
(** Estimated items yielded by one call of an arity-0 source function;
    exact for tables and file sources, [None] where unknowable. *)

val source_cost : Metadata.t -> Qname.t -> float option
(** Estimated seconds to iterate a source once: latency + overhead +
    rows·row_cost. The static analogue of {!Observed.cost}. *)

val rel_cardinality : Metadata.t -> Cexpr.sql_access -> int option
(** Rows one execution of a pushed region ships. Unparameterized: the
    table's rows without a WHERE; with one, the most selective AND
    conjunct's estimate — [rows·n/NDV] for a literal [=] ([n = 1]) or an
    [IN] of [n] literals on a column a single-column index covers
    ({!Aldsp_relational.Table.distinct_estimate}), [rows/3] for anything
    else. Parameterized: per-probe matches, rows over the best
    single-column NDV. Either is multiplied by the fan-out of each
    [LEFT OUTER JOIN] the region carries: the joined table's rows over the
    NDV of its join column, at least 1 — unless the region has its own
    [GROUP BY]. *)

val expr_cardinality : Metadata.t -> Cexpr.t -> int option

val estimates :
  Metadata.t -> int option -> Cexpr.clause list -> int option list
(** [estimates registry est clauses]: estimated binding tuples flowing out
    of each clause when [est] flow into the first; [None] (unknown)
    poisons the rest. A pre-clustered group is priced back at the
    estimate of the region it re-nests, without {!rel_cardinality}'s
    outer-join fan-out. The one walk behind {!clauses_cardinality}, the
    optimizer's join-method choice and the plan IR's [est=] counters. *)

val clauses_cardinality : Metadata.t -> Cexpr.clause list -> int option
(** Estimated binding tuples a FLWOR clause pipeline emits: the last of
    {!estimates} from one tuple. *)

val choose_k : outer:int option -> latency:float -> int
(** Cost-optimal PP-k block size for this outer cardinality and source
    latency, clamped to [5, 50] and capped by the outer estimate. *)

val choose_prefetch : latency:float -> default:int -> int

val nested_loop_cost : outer:float -> inner:float -> float
val index_nl_cost : outer:float -> matches:float -> float

val parameterize_beneficial :
  outer:int option -> inner_rows:int option -> latency:float -> bool
(** The pushdown transfer-volume gate: false when probing the inner
    source block-by-block is estimated to cost more than twice shipping
    it whole. Unknown estimates default to parameterizing (status quo). *)

val misestimate : est:int -> actual:int -> float
(** [max(est/act, act/est)]; 1.0 when either side is zero. *)
