(** The rule-based optimizer (§4.2-§4.3).

    Rule families, in the paper's terms:

    - {b View unfolding}: XQuery function inlining and un-nesting, the
      analogue of relational view unfolding. Views (layers of data
      services) are first optimized by a {e sub-optimizer} ({!cleanup})
      whose query-independent result the server keeps per function in its
      body cache and reuses across queries (§4.2). Cache-enabled
      functions are not inlined — their calls must stay visible to the
      function cache (§5.5).
    - {b Source-access elimination}: navigation into constructed elements
      is resolved statically ([data(<C><L>{$n}</L>…</C>/L)] → [$n]), so
      unused branches of a view are never computed or fetched (§4.2).
    - {b SQL plan preparation} (§4.3): where-clauses split into conjuncts
      and pushed down past independent clauses; join expressions
      introduced for for-clauses; FLWORs nested in lets or in return
      expressions rewritten as (grouped) left outer joins and hoisted into
      the outer FLWOR.
    - {b Inverse functions} (§4.5): comparisons of the form
      [f(x) op y] with a registered inverse [g] rewrite to [x op g(y)], so
      an otherwise-opaque external transformation no longer blocks
      pushdown (and lineage).
    - {b Join method selection} (§4.2, §5.2): PP-k (default [k]=20) when
      the right side is a pushed parameterized relational access, index
      nested loop for independent equi-joins, nested loop otherwise.

    The pipeline is [optimize] → {!Pushdown.push} → [select_methods]. *)

type options = {
  inline_views : bool;
  introduce_joins : bool;
  eliminate_constructors : bool;
  use_inverse_functions : bool;
  pushdown : bool;
      (** Compile same-database regions to SQL (§4.3-4.4). Off, every
          source access is a full scan evaluated by the middleware engine —
          the reference configuration of the differential harness. *)
  cost_based : bool;
      (** Statistics-driven plan selection via {!Cost_model}: join method
          (NL vs index-NL vs PP-k) by estimated cost, PP-k [k]/[prefetch]
          as the cheapest block plan ({!Cost_model.choose_ppk}, overriding
          the [ppk_k]/[ppk_prefetch] knobs), static source ordering, and the
          pushdown transfer-volume gate. Off, the fixed structural
          heuristics and the configured knobs apply unchanged. All
          choices are result-identical; only cost differs. Default on. *)
  ppk_k : int;  (** PP-k block size; the paper's default is 20. *)
  ppk_prefetch : int;
      (** How many PP-k block queries may be in flight on the worker pool
          ahead of the block being consumed (pipelined parameter passing).
          0 = strictly sequential roundtrips (the pre-pipelining
          behaviour); default 1. Results are identical at any depth. *)
  sort_budget_rows : int option;
      (** In-memory row budget for the executor's blocking operators
          (ORDER BY, the unclustered GROUP BY fallback). [Some n] routes
          them through {!Extsort}: runs of [n] rows spill to disk and
          merge back as a stream, keeping peak resident rows bounded by
          the budget; [None] (the default) sorts in memory. Results are
          byte-identical either way. The default is taken from the
          [ALDSP_SORT_BUDGET] environment variable when set to a positive
          integer (the CI forced-spill lever); {!reference_options} always
          uses [None]. *)
}

val default_options : options

val options_fingerprint : options -> string
(** A stable serialization of every option field, used (with the query
    text and {!Metadata.generation}) as the {!Plan_cache} key. *)

val reference_options : options
(** The differential-testing baseline (see {!Aldsp_check}): no view
    inlining, no join introduction, no constructor elimination, no inverse
    functions, no SQL pushdown, PP-k degenerate and strictly sequential.
    Every knob the paper claims changes only cost is switched off, so a
    server built on these options is the oracle that optimized
    configurations are compared against byte-for-byte. *)

type t

val create :
  ?options:options ->
  ?workers:int ->
  ?view_body:(Metadata.function_def -> Cexpr.t -> Cexpr.t) ->
  Metadata.t ->
  t
(** [workers] is the size of the pool PP-k blocks are prefetched on
    ({!Pool.size}); it bounds the prefetch the cost model chooses and
    defaults to {!Pool.default}'s. [view_body fd body] is what view
    unfolding splices in for a call to [fd], whose body is [body]: the
    server passes its body cache's view core ({!cleanup} of [body], §4.2);
    the default is [body] itself, uncached. An optimizer holds no state
    but the counter that numbers its fresh variables, so one is built per
    compile and a plan's [$agg~N] names start at 1 on every compile. *)

val optimize : t -> Cexpr.t -> Cexpr.t * Rewrite.stats
(** The main (pre-pushdown) rewrite pipeline. *)

val select_methods : t -> Cexpr.t -> Cexpr.t
(** Post-pushdown pass: pick join methods (PP-k / index nested loop /
    nested loop) and mark pre-clustered group-bys. *)

val parameterize_gate :
  t ->
  outer:Cexpr.clause list ->
  whole:Cexpr.sql_access ->
  Cexpr.sql_access ->
  bool
(** [parameterize_gate t ~outer ~whole probe]: the transfer-volume gate
    {!Pushdown.push} consults before turning a join's right side [whole]
    into the parameterized region [probe], given the clauses before the
    join. Always true with cost-based selection off; otherwise
    {!Cost_model.parameterize_beneficial}, priced with the same PP-k
    choice {!select_methods} makes. *)

val reorder_sources : t -> ?observed:Observed.t -> Cexpr.t -> Cexpr.t
(** Source ordering (§9): under FLWORs whose order-by re-establishes
    result order (so the swap preserves semantics), reorder adjacent
    independent source iterations so the branch minimizing
    [latency + cardinality x inner-latency] runs as the outer. With
    cost-based selection on, a pair is priced statically from declared
    latency profiles and exact row counts; a pair the statistics layer
    cannot price, and every pair with cost-based selection off, is priced
    from [observed] samples, and left alone without them. Swaps only on a
    strict cost improvement, so zero-latency catalogs are left untouched.
    Run before join introduction. *)

val cleanup : t -> Cexpr.t -> Cexpr.t
(** Query-independent simplification (let substitution, dead code,
    constructor elimination) — run after pushdown to tidy residual
    middleware expressions, and the view sub-optimizer over a function
    body (§4.2). *)
