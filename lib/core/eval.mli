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

    A hook lets the server interpose the function cache (§5.5) around
    data-service function calls; every such call is recorded in the
    audit trail (§7), and every one that runs in {!Observed}. *)

open Aldsp_xml

type rt

exception Eval_error of string

(** Wrapper invoked around every cacheable function-body or external
    call, whose whole value the function cache may store; the default
    just runs the thunk. The server installs the function cache here. *)
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
  ?body_plan:(Metadata.function_def -> Cexpr.t -> Plan_ir.t) ->
  Metadata.t ->
  rt
(** [audit] receives a ["service-call"] event for every data-service
    function call, before the call wrapper (and so the function cache)
    sees it. [pool] (default {!Pool.default}) runs asynchronous source
    work — PP-k prefetch, [fn-bea:async], concurrent independent lets.
    [observed] receives the latency and cardinality of every
    data-service call that runs (not a function-cache hit), and the PP-k
    pipeline's roundtrip counts and overlap-time-saved accounting.
    [concurrent_lets] (default true) allows [fn-bea:async] arguments and
    independent let-bound source calls to be submitted to the pool ahead of
    use; false evaluates every binding in place, in clause order — the
    strictly sequential behaviour the differential harness's reference
    configuration relies on. [sort_budget_rows] bounds the blocking
    operators' resident rows: ORDER BY and the unclustered GROUP BY
    fallback route through {!Extsort}, spilling sorted runs to disk and
    merging them back as a stream (results byte-identical; spill totals
    land in the operator's {!Plan_ir.counters} and [on_spill]). Absent,
    they sort in memory as before. [body_plan fd body] is the plan a call
    running [fd]'s body [body] executes; its {!Eval_error} is the call's.
    The default lowers [body] as written, on every call. *)

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

val failure_message : exn -> string
(** The one failure-to-message rule of every entry point: the cause an
    {!Eval_error} or {!Aldsp_concurrency.Cancel.Cancelled} carries, and
    [Printexc.to_string] of any other exception. *)

val execute :
  rt ->
  ?bindings:(Cexpr.var * Item.sequence) list ->
  counters:Plan_ir.run ->
  through:(Aldsp_tokens.Token_stream.sink -> Aldsp_tokens.Token_stream.sink) ->
  Plan_ir.t ->
  (Item.sequence, string) result
(** {!emit} into [through] (the server's {!Security.filter_tokens})
    around a {!Aldsp_tokens.Token_stream.building_sink}, returning the
    items built, counted into [counters] (from {!Plan_ir.new_run} on the
    same view); folding them into a view is the caller's choice. The
    root's time-to-first-row is stamped when the whole result is ready.
    A call that runs a function body runs the runtime's [body_plan].
    Every failure, whatever it raised, is [Error] with its
    {!failure_message}. *)

val emit :
  rt ->
  ?bindings:(Cexpr.var * Item.sequence) list ->
  counters:Plan_ir.run ->
  Plan_ir.t ->
  Aldsp_tokens.Token_stream.sink ->
  unit
(** Runs the plan and delivers its result into the sink, in order: the
    one implementation of constructors, pipelines, sequences and
    non-cacheable function-body calls. Each delivers its parts as they
    are produced — a pipeline each tuple's return; a constructor its
    start tag, attributes (evaluated first), content and end tag, where
    [<E?>] opens only once its content delivers something; a sequence its
    children in order, after submitting the [fn-bea:async] ones; a body
    call the body's value. Any other node is evaluated to items, handed
    to the sink's [items]. A pipeline stamps its time-to-first-row at its
    first row, another root when it ends. The sink is called only from
    the emitter — never from an operator, a backend cursor or code
    holding a lock — so it may suspend the emitter (an effect handler
    around the call) and resume it later, on any thread. Errors surface
    as {!Eval_error} (or {!Aldsp_concurrency.Cancel.Cancelled} on abort),
    possibly after part of an item has been delivered. *)

val eval :
  rt ->
  ?bindings:(Cexpr.var * Item.sequence) list ->
  Cexpr.t ->
  (Item.sequence, string) result
(** Convenience: {!Plan_ir.compile} then {!execute} through [Fun.id],
    counting into the fresh view's own totals. Each call lowers the
    expression afresh; callers that run the same expression repeatedly
    should compile once and {!execute} the plan. *)

val call_function :
  rt ->
  through:(Aldsp_tokens.Token_stream.sink -> Aldsp_tokens.Token_stream.sink) ->
  Aldsp_xml.Qname.t ->
  Item.sequence list ->
  (Item.sequence, string) result
(** Invokes a registered data-service function directly (the service-call
    API of §2.2), delivering through [through] and failing as {!execute}
    does. *)
