(** The ALDSP server (Figure 2): compiler pipeline, caches, security, and
    the client-facing execution APIs.

    Query processing follows the phases of §3.3 — parsing, expression tree
    construction, normalization, type checking, optimization, code
    generation — then execution. Compiled plans are cached by query text
    and by call shape (see {!compile}), function bodies by function (see
    {!view_cache_hits}); the function cache (when configured) intercepts
    calls to cache-enabled data service functions; element-level security
    filtering runs last, after cache hits, as the result is delivered: one
    filter wraps the sink on every entry point, so a restricted user's
    audit trail is in document order however the result is delivered
    (§7).

    Mirroring the product's stateless client APIs, {!run} and {!call}
    materialize their results completely before returning;
    {!session_run_stream} is the server-side API that delivers the result
    as a token stream, executing as the reader pulls, without
    materializing first (§2.2). *)

open Aldsp_xml

type t

type compiled = {
  source : string;
  plan : Cexpr.t;
      (** The optimized core expression (pre-lowering). For a text whose
          call shape was lifted, the shape's plan, shared by every text
          of that shape. *)
  ir : Plan_ir.t;
      (** This text's view of the physical plan the executor runs: the
          tree, shared by every text of its call shape, and totals each
          execution of this text adds its counters into when it ends.
          {!compile} hands out the same view for the same text while it
          stays cached, and never one view for two texts. *)
  bindings : (Cexpr.var * Item.sequence) list;
      (** The text's lifted literals, one per placeholder variable of its
          call shape; every execution binds them. Empty when nothing was
          lifted. *)
  static_type : Stype.t;
  diagnostics : Diag.t list;
  sql : (string * string) list;
      (** Pushed (database, SQL) regions in plan preorder: each
          region's {!Plan_ir.sql_region} text. *)
}

type admission_stats = {
  ad_submitted : int;  (** Queries presented to {!submit}. *)
  ad_admitted : int;  (** Granted an executing slot (immediately or queued). *)
  ad_rejected : int;  (** Shed: queue full or server draining. *)
  ad_completed : int;  (** Ran to completion (success or orderly failure). *)
  ad_deadline_aborts : int;
      (** Cut short by a deadline or explicit cancel — while queued or
          mid-execution. *)
  ad_active : int;  (** Currently executing. *)
  ad_queued : int;  (** Currently waiting for a slot. *)
  ad_peak_active : int;  (** High-water concurrent executions. *)
  ad_peak_queued : int;  (** High-water queue depth. *)
}

type submit_error =
  | Overloaded
      (** Rejected at admission: the wait queue is at capacity, or the
          server is draining. The client should back off and retry. *)
  | Cancelled of string
      (** The query's deadline passed (while queued or mid-execution) or
          its token was cancelled; partial work has been abandoned. *)
  | Failed of string  (** Ordinary compilation or evaluation failure. *)

val submit_error_to_string : submit_error -> string

type stats = {
  st_plan_cache_hits : int;
  st_plan_cache_misses : int;
  st_function_cache_hits : int;
  st_function_cache_misses : int;
  st_pool : Pool.stats;
  st_roundtrips : int;  (** Middleware-issued source roundtrips (PP-k). *)
  st_overlap_saved : float;  (** Seconds of source latency hidden. *)
  st_source_wall : float;  (** Total wall time inside sources. *)
  st_tokens_streamed : int;
      (** Tokens delivered on every result path: serialized by
          {!serialize_result} or pulled through a streamed session. *)
  st_backend : Aldsp_relational.Database.stats;
      (** Operator counters (scans, index probes, join algorithms) summed
          over every registered database at the time of the call. *)
  st_max_misestimate : float;
      (** Worst per-operator est-vs-actual cardinality ratio
          ({!Cost_model.misestimate}) over every execution so far; 1.0
          when every estimate held or none applied. The feedback signal
          for judging the cost model's inputs. *)
  st_admission : admission_stats;
      (** Serving-layer counters; invariant: [ad_admitted = ad_completed +
          mid-execution deadline aborts + ad_active] once quiescent. *)
  st_coalesced_hits : int;
      (** Work served from another session's in-flight computation:
          backend single-flight coalescing ({!Database.stats}'
          [coalesced_hits] rolled over every source) plus function-cache
          miss coalescing ({!Function_cache.coalesced}). *)
  st_batch_merges : int;
      (** Single-key backend probes merged into another session's
          accumulated IN-list roundtrip (batched dispatch). *)
  st_dedup_roundtrips_saved : int;
      (** Backend roundtrips avoided by cross-session work sharing;
          0 unless {!set_work_sharing} is on. *)
  st_spill_runs : int;
      (** Sorted runs the external sort ({!Extsort}) spilled to disk
          across every query on this server; 0 unless
          {!Optimizer.options}' [sort_budget_rows] is set and a blocking
          sort overflowed it. *)
  st_spill_rows : int;  (** Rows written to spill files. *)
  st_spill_bytes : int;  (** Marshal frame bytes spilled. *)
  st_spill_peak_resident : int;
      (** Peak rows any single spilling sort held resident at once;
          bounded by the configured budget. *)
}

val create :
  ?optimizer_options:Optimizer.options ->
  ?plan_cache_capacity:int ->
  ?function_cache:Function_cache.t ->
  ?security:Security.t ->
  ?audit:Audit.t ->
  ?observed:Observed.t ->
  ?pool:Pool.t ->
  ?max_concurrent:int ->
  ?admission_queue:int ->
  Metadata.t ->
  t
(** [observed] turns on source instrumentation and observed-cost
    reordering of independent source accesses (§9 roadmap item).
    [pool] (default {!Pool.default}) runs asynchronous source work:
    PP-k prefetch, [fn-bea:async], and concurrent independent lets.
    [max_concurrent] (default 16) caps queries executing at once through
    {!submit}; [admission_queue] (default 64) bounds how many more may
    wait for a slot before new arrivals are rejected [Overloaded]. *)

val reference :
  ?plan_cache_capacity:int ->
  ?function_cache:Function_cache.t ->
  ?security:Security.t ->
  ?audit:Audit.t ->
  Metadata.t ->
  t
(** The differential-testing oracle configuration: a server compiled with
    {!Optimizer.reference_options} (no pushdown, no rewrites), a
    single-worker pool, zero prefetch, and sequential lets; a call runs
    the function's body as written, with no body cache. The harness in
    [lib/check] compares optimized configurations against this server's
    serialized results byte-for-byte. *)

val registry : t -> Metadata.t
val security : t -> Security.t
val pool : t -> Pool.t

val stats : t -> stats
(** A consolidated snapshot of the server's runtime counters: plan-cache
    hit rates, worker-pool utilization, and (when [observed] is
    configured) source roundtrips and overlap accounting. *)

val set_work_sharing : t -> bool -> unit
(** Flips cross-session work sharing (single-flight statement coalescing
    + batched single-key dispatch, {!Aldsp_relational.Database.set_share_work})
    on every database registered with this server. Off by default; the
    shared-workload serving benchmarks and the concurrent oracle's
    sharing pass turn it on. Function-cache miss coalescing is always
    active and unaffected by this switch. *)

(** {2 Data service registration} *)

val register_data_service :
  t -> name:string -> string -> (unit, Diag.t list) result
(** Parses a data service file (prolog of function declarations with
    pragmas), registers its functions and the data service record. Uses
    fail-fast mode; see {!design_time_check} for the editor behaviour. *)

val design_time_check : t -> string -> Diag.t list
(** Design-time compilation (§4.1): parse and analyze as much of the file
    as possible, recovering after errors, and report every diagnostic
    found rather than stopping at the first. Nothing is registered. *)

(** {2 Compilation and execution} *)

val compile : t -> string -> (compiled, Diag.t list) result
(** Full pipeline on an ad hoc query, ending in the lowered {!Plan_ir}
    plan, through a two-level plan cache. Both levels key on the optimizer
    options fingerprint, the metadata generation and the statistics
    generation besides their query; entries from older generations are
    purged before lookup, so neither a registry mutation nor a data
    mutation (which moves the table statistics the cost model priced the
    plan against) can be served a stale plan.

    The first level maps the query text to its compiled plan. On a miss
    the text is parsed once and its call shape taken ({!Shape.lift}): the
    literal arguments of its data-service calls become typed external
    variables. The second level maps the shape to its plan, compiled once
    with those variables. The shape serves a text only when its plan reads
    every lifted variable as a whole pushed-SQL parameter
    ({!Plan_ir.params_only}); then the text gets a fresh {!Plan_ir}
    lowered from the shape's optimized plan, with its literals as
    [bindings]. Otherwise the shape is recorded as inline and each of its
    texts compiles with its literals in place, as does a text with nothing
    to lift. Both levels hold up to [plan_cache_capacity] entries. *)

val run :
  t -> ?user:Security.user -> string -> (Item.sequence, string) result
(** Compile (through the plan cache) and execute, materializing the result
    (the stateless client API). The user's {!Security.filter_tokens}
    wraps the building sink. *)

val serialize_result : t -> Item.sequence -> string
(** Serializes a materialized result with the token serializer's writer
    ({!Aldsp_tokens.Token_stream.serialize_items}), byte for byte what
    streamed delivery writes, and adds its token count to
    [st_tokens_streamed] — so every serialized result (client APIs, CLI,
    the differential oracle) is counted, not only streamed sessions. *)

val call :
  t ->
  ?user:Security.user ->
  Qname.t ->
  Item.sequence list ->
  (Item.sequence, string) result
(** Direct data service function call (read/navigate methods), through
    function-level access control, the function cache, and the user's
    {!Security.filter_tokens} around the building sink. *)

(** {2 Serving layer}

    The concurrent front-end: many client domains submit queries against
    one shared server. Admission control grants up to [max_concurrent]
    executing slots; up to [admission_queue] further submitters wait for
    a slot, and beyond that arrivals are shed with {!Overloaded}
    (backpressure instead of unbounded backlog). An admitted query
    executes on the submitting thread; its cancellation token is ambient
    for that thread (and captured by any pool/async work it spawns), so a
    deadline or cancel reaches in-flight backend roundtrips and
    web-service calls. *)

val submit :
  t ->
  ?user:Security.user ->
  ?deadline:float ->
  ?token:Cancel.t ->
  string ->
  (Item.sequence, submit_error) result
(** Admission-controlled {!run}. [deadline] is seconds from now and
    covers queue wait plus execution. [token] supplies a caller-managed
    cancellation token instead (so another thread can cancel this query);
    when given, [deadline] is ignored — encode it in the token. *)

val drain : t -> unit
(** Graceful shutdown of the serving layer: new submissions are rejected
    {!Overloaded} from this point on, already-queued submitters still
    run, and the call returns once no query is active or queued. *)

val draining : t -> bool

type session
(** One client domain's connection: a fixed user, an optional default
    per-query deadline, and a handle on the in-flight query's token so
    the query can be cancelled from another thread. *)

val session : t -> ?user:Security.user -> ?deadline:float -> unit -> session

val session_run :
  session -> ?deadline:float -> string -> (Item.sequence, submit_error) result
(** {!submit} as this session's user, with a fresh cancellation token
    (deadline from the argument, else the session default, else none —
    but still explicitly cancellable via {!session_cancel}). *)

val session_cancel : session -> unit
(** Cancels the session's in-flight query, if any. Safe from any
    thread; a no-op when nothing is running. *)

type stream
(** A streamed result being delivered to this consumer. The reader's own
    {!stream_read} calls execute the query: each refill runs the plan's
    token emitter ({!Eval.emit}) under the session's token until it has
    pushed a chunk of 64 tokens, suspends it there — also in the middle
    of a tuple — and hands the tokens out one by one; the next refill
    resumes it, on whichever thread reads. No other thread runs the
    query, and at most one chunk is live between executor and reader, so
    a slow consumer holds one chunk instead of the materialized result.
    The stream holds its admission slot until it drains, fails or is
    cancelled. *)

val session_run_stream :
  session -> ?deadline:float -> string -> (stream, submit_error) result
(** Admission-controlled streamed execution as this session's user.
    Admission and compilation happen here (so {!Overloaded} and compile
    failures surface immediately); execution starts with the first
    {!stream_read}. The plan runs through {!Eval.emit} into a token
    sink, as {!run}'s runs into a building sink, and every token passes
    through {!Security.filter_tokens} for the session's user — the same
    filter {!run} wraps around its building sink, so the bytes and the
    audit trail match {!run}'s. The
    session's deadline semantics match {!session_run}, and
    {!session_cancel} (or {!stream_cancel}) from any thread ends the
    stream: a read blocked in a backend roundtrip returns
    [Error (Cancelled _)] promptly. A cancel or deadline also frees the
    admission slot of a stream that nobody is reading at the time. *)

val stream_read : stream -> (Aldsp_tokens.Token.t option, submit_error) result
(** The next token. When the current chunk is used up this refills it,
    executing the query on the calling thread. [Ok None] is
    end-of-stream (the query completed); [Error (Cancelled _)] a
    deadline/cancel abort, reported after the rest of the current chunk;
    [Error (Failed _)] an evaluation failure. A failed refill hands out
    none of the tokens it pushed. After [None] or an error, subsequent
    reads return [Ok None]. *)

val stream_serialize :
  stream -> (string -> unit) -> (unit, submit_error) result
(** Drains the rest of the stream through one incremental XML writer
    ({!Aldsp_tokens.Token_stream.chunk_writer}: one reused buffer, the
    same 4 KiB-or-more chunks as
    {!Aldsp_tokens.Token_stream.serialize_chunks}), handing each text
    chunk to the callback as it fills — the redirect-to-file delivery of
    §2.2: nothing is materialized, and execution advances only as fast
    as the callback takes the text. It refills chunk by chunk, as
    {!stream_read} does. When the stream fails or is cancelled, the
    callback receives the partial chunk written so far, a prefix of the
    result, and the first cause is returned. Tokens {!stream_read}
    already handed out are not written: after a read that stopped inside
    an element, the writer meets an end tag it never saw open, and the
    stream fails with [Failed] and gives its slot back. *)

val stream_cancel : stream -> unit
(** Cancels this stream's query (its session token). Safe from any
    thread; the next read that needs a new chunk reports the cancel. *)

val stream_peak_buffered : stream -> int
(** The most tokens pulled ahead of the reader so far: the largest chunk
    a refill filled, never more than 64, also inside a tuple wider than
    that. *)

val admission_stats : t -> admission_stats
(** The serving-layer counters alone (also embedded in {!stats}). *)

val explain :
  t -> ?analyze:bool -> ?timings:bool -> string -> (string, string) result
(** Unified EXPLAIN: the static type, then one indented tree of middleware
    operators — joins with their method, k and prefetch depth; pushed-SQL
    regions with their dialect, statement, parameter slots and column
    binds; async/fail-over/timeout guards; cacheable call sites — each
    line carrying the operator's runtime counters, and under every pushed
    region the backend's own access-path plan lines. [analyze] (default
    true) executes the plan first and renders that execution's own
    counters and backend lines, whatever else runs the same text
    meanwhile; [analyze:false] renders the static tree with zero
    counters. [timings] (default false) adds wall-clock fields; off, the
    output is deterministic and golden-testable. *)

val plan_cache_hits : t -> int
(** {!compile} calls that ran no compile pipeline: a text found in the
    first level, or a text instantiated from a cached call shape. *)

val plan_cache_misses : t -> int
(** {!compile} calls that ran the compile pipeline (parse errors
    included). A call is one miss even when it runs the pipeline twice:
    the first text of a shape that turns out inline compiles the shape,
    then itself. [st_plan_cache_hits] and [st_plan_cache_misses] of
    {!stats} are these two counters. *)

val view_cache_hits : t -> int
(** View unfoldings served by the body cache, the third cache level: one
    entry per function (name, arity), keyed and purged as the other two.
    An entry holds the view core every unfolding splices in, sub-optimized
    once ({!Optimizer.cleanup}, §4.2), and the call plan a call that runs
    the body executes (not counted here): the core compiled like a text
    under the server's own options, parameters as typed variables. *)

val view_cache_misses : t -> int
(** View unfoldings that sub-optimized the function's body. *)
