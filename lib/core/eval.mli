(** The plan executor (§5).

    Executes compiled {!Plan_ir} plans. FLWOR pipelines run as lazy
    streams of binding tuples, so pipelined operators (scan/let/select,
    pre-clustered grouping, joins over streamed inputs) work
    incrementally; only sorting, hash-building and group-by over
    unclustered input materialize. As a plan runs, the executor fills in
    the execution's {!Plan_ir.run}: each operator's counters (rows out,
    source roundtrips, function-cache hits, wall time in roundtrips) and
    each pushed region's backend access-path lines — the data unified
    EXPLAIN renders. The plan tree itself is never written.

    Join clauses execute with the method the optimizer picked (§5.2):
    nested loop, index nested loop (a hash probe on extracted equi-keys),
    or PP-k — parameter passing in blocks of [k]: fetch [k] left tuples,
    issue one disjunctive parameterized SQL query for all their matches,
    middleware-join the block, repeat (§4.2). With a prefetch depth > 0
    the block queries are pipelined on the worker pool: while the
    middleware join consumes block [n], the disjunctive select for block
    [n+1] (and up to [depth] more) is already in flight; blocks are still
    emitted strictly in order, so results are identical at every depth.

    Source latency overlap (§5.4, §6 asynchronous adaptors): [fn-bea:async]
    arguments and [let]-bound external-function calls with no data
    dependence on their sibling lets are submitted to the bounded worker
    pool ahead of time and awaited at first use; [fail-over] and [timeout]
    guard slow or unavailable sources (§5.6).

    A hook lets the server interpose the function cache (§5.5) and
    observation around data-service function calls; every such call is
    recorded in the audit trail (§7). *)

open Aldsp_xml

type rt

exception Eval_error of string

(** Wrapper invoked around every materialized metadata function call;
    the default just runs the thunk. The server installs the function
    cache and observation here. A non-cacheable body call that {!emit}
    runs in place does not pass through it. *)
type call_wrapper =
  Metadata.function_def -> Item.sequence list -> (unit -> Item.sequence) ->
  Item.sequence

(** Invoked once per sort that actually spilled, with that sort's totals
    (runs/rows/bytes written, peak resident rows) — the server rolls these
    into {!Server.stats}. *)
type spill_report = runs:int -> rows:int -> bytes:int -> peak:int -> unit

val runtime :
  ?call_wrapper:call_wrapper ->
  ?audit:Audit.t ->
  ?pool:Pool.t ->
  ?observed:Observed.t ->
  ?concurrent_lets:bool ->
  ?sort_budget_rows:int ->
  ?on_spill:spill_report ->
  Metadata.t ->
  rt
(** [audit] receives a ["service-call"] event for every data-service
    function call, materialized or emitted, before the call wrapper (and
    so the function cache) sees it. [pool] (default {!Pool.default}) runs
    asynchronous source work — PP-k prefetch, [fn-bea:async], concurrent
    independent lets. [observed]
    receives roundtrip counts and overlap-time-saved accounting from the
    PP-k pipeline in addition to whatever the call wrapper records.
    [concurrent_lets] (default true) allows [fn-bea:async] arguments and
    independent let-bound source calls to be submitted to the pool ahead of
    use; false evaluates every binding in place, in clause order — the
    strictly sequential behaviour the differential harness's reference
    configuration relies on. [sort_budget_rows] bounds the blocking
    operators' resident rows: ORDER BY and the unclustered GROUP BY
    fallback route through {!Extsort}, spilling sorted runs to disk and
    merging them back as a stream (results byte-identical; spill totals
    land in the operator's {!Plan_ir.counters} and [on_spill]). Absent,
    they sort in memory as before. *)

val recoverable_failure : exn -> bool
(** Whether the fail-over/timeout adaptors (§5.6) may recover from this
    exception by taking the alternate branch: evaluation errors and
    runtime/transport failures a source call can legitimately surface are
    recoverable; fatal exceptions (Out_of_memory, Stack_overflow,
    Assert_failure, ...) never are. *)

val batch_seq : int -> 'a Seq.t -> 'a list Seq.t
(** Groups a sequence into blocks of at most [k] (the PP-k blocking step);
    the last block may be short, an empty input yields no blocks, and
    [k <= 1] degenerates to singleton blocks. Lazy: forcing block [n]
    consumes exactly the first [n*k] input elements. *)

val disjunctive_select :
  Aldsp_relational.Sql_ast.select -> int -> int ->
  Aldsp_relational.Sql_ast.select
(** [disjunctive_select s n m]: the PP-k block statement for [m] left
    tuples, from the one-tuple parameterized select [s] whose WHERE reads
    [n] parameters. The WHERE is OR-ed [m] times with parameter indices
    shifted by [n] per tuple; a WHERE that is exactly [col = ?] becomes
    [col IN (?1, .., ?m)] when [m > 1] and stays [col = ?] for one
    tuple. *)

val execute :
  rt ->
  ?bindings:(Cexpr.var * Item.sequence) list ->
  counters:Plan_ir.run ->
  Plan_ir.t ->
  (Item.sequence, string) result
(** Runs a compiled plan's tree, counting into [counters] (from
    {!Plan_ir.new_run} on the same view); folding them into a view is the
    caller's choice. Function bodies reached by calls are themselves
    lowered on first use and memoized in the runtime, keyed on (name,
    arity) and invalidated when {!Metadata.generation} moves. *)

val emit :
  rt ->
  ?bindings:(Cexpr.var * Item.sequence) list ->
  counters:Plan_ir.run ->
  Plan_ir.t ->
  (Aldsp_tokens.Token.t -> unit) ->
  unit
(** Streamed delivery as tokens: runs the plan and pushes its result's
    tokens into the sink — the tokens
    {!Aldsp_tokens.Token_stream.iter_item} would produce for
    {!execute}'s items, in the same order, with the same counters.
    Nothing is built for a delivered value the emitter can push as it
    is produced: a pipeline, at any depth, pushes each tuple's return as
    the tuple arrives; an element constructor pushes its start tag, its
    attributes (evaluated first, as {!execute} does), its content and its
    end tag, and an optional constructor ([<E?>]) opens only once its
    content produces a token; a sequence submits its [fn-bea:async]
    children first, then pushes its children in order, walking each
    awaited value in its place; a call to a non-cacheable function body
    pushes the body's tokens. Any other node — cacheable and external
    calls among them — is evaluated as {!execute} would and its items
    walked. An emitted pipeline stamps its time-to-first-row as its
    first row comes through, as the tuple operators do; a root of
    another shape is stamped when it ends, as by {!execute}.
    The sink is called only from this walk — never from inside an
    operator, a backend cursor or code holding a lock — so it may
    suspend the emitter (an effect handler around the call) and resume
    it later, on any thread. Evaluation errors surface as {!Eval_error}
    (or {!Aldsp_concurrency.Cancel.Cancelled} on abort), possibly after
    part of an item's tokens. *)

val eval :
  rt ->
  ?bindings:(Cexpr.var * Item.sequence) list ->
  Cexpr.t ->
  (Item.sequence, string) result
(** Convenience: {!Plan_ir.compile} then {!execute}, counting into the
    fresh view's own totals. Each call lowers the expression afresh;
    callers that run the same expression repeatedly should compile once
    and {!execute} the plan. *)

val call_function :
  rt -> Aldsp_xml.Qname.t -> Item.sequence list -> (Item.sequence, string) result
(** Invokes a registered data-service function directly (the service-call
    API of §2.2). *)

val matches_stype : Item.sequence -> Stype.t -> bool
(** The runtime [typematch] check. *)
