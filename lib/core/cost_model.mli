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
    - pushed WHERE of a region: its most selective AND conjunct, where a
      literal [col = v] or [col IN (v1..vn)] on a column
      with a single-column index keeps [rows·n/NDV] (at least 1, at most
      rows) and every other shape (OR, NOT, ranges, functions, unindexed
      columns) keeps [rows/3]; middleware where clauses keep [1/3]
    - parameterized probe: a [col = ?] or [col IN (?1..?n)] conjunct is
      priced like a literal one, [n·rows/NDV] of that column; only when
      the column is unindexed does it fall back to the table's best
      single-column NDV
    - equi-join cardinality: [max(outer, inner)] (exact for the PK-FK
      joins introspection generates)
    - PP-k: the block cost prices [ceil(outer/k)] blocks at prefetch [d]:
      each block is a roundtrip (latency, then the source's work: the
      probed table's rows when no index serves the probe, and each left
      tuple's key plus its matches) and a middleware pass (the statement
      floor and a join of the same rows); with [d > 0],
      [min(d+1, workers, blocks)] roundtrips are in flight and every
      block after the first hides its roundtrip behind the previous
      block's join. {!choose_ppk} takes the cheapest [(k, d)], k capped
      by the outer estimate.
    - parameterization gate: the chosen PP-k cost against one roundtrip
      shipping the whole inner table; parameterize within a 2x margin. *)

open Aldsp_xml

type profile = { p_latency : float; p_row_cost : float }
(** Seconds per statement roundtrip / per shipped row. *)

val row_cost : float
(** Default cost of one shipped row (~2 µs), at the backend and again in
    the middleware. *)

val selection_fraction : int
(** Divisor applied by predicates the model cannot see through. *)

val source_profile : Metadata.t -> Qname.t -> profile option
(** Declared cost profile of a registered source function (relational,
    stored procedure, web service, file/CSV). *)

val source_cardinality : Metadata.t -> Qname.t -> int option
(** Estimated items yielded by one call of an arity-0 source function;
    exact for tables and file sources, [None] where unknowable. *)

val rel_cardinality : Metadata.t -> Cexpr.sql_access -> int option
(** Rows one execution of a pushed region ships. Unparameterized: the
    table's rows without a WHERE; with one, the most selective AND
    conjunct's estimate — [rows·n/NDV] for an [=] ([n = 1]) or an [IN] of
    [n] literals or parameters on a column a single-column index covers
    ({!Aldsp_relational.Table.distinct_estimate}), [rows/3] for anything
    else. A parameterized region is thereby priced per probe key; a
    parameter on an unindexed column falls back to rows over the best
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

type ppk_probe = {
  pr_profile : profile;  (** The probed database's. *)
  pr_matches : int;
      (** Rows one probe key ships: {!rel_cardinality} of the
          parameterized region, at least 1. *)
  pr_scan_rows : int;
      (** Rows each block statement scans besides its matches: 0 when an
          index covers the probed columns, the table's rows otherwise. *)
}
(** What a PP-k block costs at the probed source. *)

val ppk_probe : Metadata.t -> Cexpr.sql_access -> ppk_probe
(** The probe side of a parameterized region. *)

val choose_ppk : ppk_probe -> outer:int option -> workers:int -> int * int
(** [(k, prefetch)] minimizing the PP-k block cost: [k] at most the outer
    estimate (and 1000), so 1 at one outer tuple, and never smaller for a
    probe that scans than for the same probe served by an index;
    [prefetch] at most [workers - 1], and 0 when the outer fits one
    block. An unknown outer is priced at 100 tuples. *)

val nested_loop_cost : outer:float -> inner:float -> float
val index_nl_cost : outer:float -> matches:float -> float

val parameterize_beneficial :
  ppk_probe ->
  outer:int option ->
  workers:int ->
  inner_rows:int option ->
  (int * int) option
(** The pushdown transfer-volume gate: [Some (k, prefetch)], the
    {!choose_ppk} plan the probe blocks were priced at, unless those
    blocks are estimated to cost more than twice shipping the
    [inner_rows]-row region whole ([None]). Unknown estimates default to
    parameterizing (status quo). *)

val misestimate : est:int -> actual:int -> float
(** [max(est/act, act/est)]; 1.0 when either side is zero. *)
