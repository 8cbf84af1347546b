(** The differential oracle: the reference configuration (no rewrites, no
    pushdown, one worker, zero prefetch, sequential lets — a server that
    evaluates the normalized expression essentially as written) compared
    byte-for-byte against an optimized configuration.

    The paper's §4–§6 machinery — rewrites, SQL generation across the
    dialect printers, PP-k block joins with prefetch, concurrent lets —
    must all be invisible in results; any byte of difference is a bug in
    one of them. *)

open Aldsp_core

(** The optimized side's degrees of freedom. Vendors (and so dialects)
    live in {!Catalog.spec}; these are the runtime knobs. [indexes]
    switches the relational backend's access-path selection (index
    probes, hash/index joins) — the reference side always runs on scans
    and nested loops, so every scenario exercises the indexed executor
    against the scan executor too. *)
type config = {
  workers : int;
  ppk_k : int;
  ppk_prefetch : int;
  indexes : bool;
  cost_based : bool;
      (** Statistics-driven plan selection ({!Optimizer.options}'
          [cost_based]): on, join methods, k/prefetch and the pushdown
          gate come from the cost model (the [ppk_k]/[ppk_prefetch] knobs
          are overridden); off, the fixed heuristics and knobs apply. *)
  spill : bool;
      (** Force the subject's blocking sorts through the external sort
          with a tiny row budget ({!spill_budget}), so ORDER BY and
          unclustered GROUP BY spill runs to disk and merge back — the
          reference always sorts unbounded in memory, making every such
          scenario a spilled-vs-in-memory byte comparison. Corpus lines
          predating the knob parse as [false] (in-memory sorts). *)
}

val spill_budget : int
(** The forced [sort_budget_rows] applied when a config's [spill] is on. *)

val generate_config : Random.State.t -> config
val config_to_string : config -> string
val config_of_string : string -> (config, string) result

val shutdown_pools : unit -> unit
(** {!Pool.shutdown} on every cached pool (end of a fuzzing run). *)

val reference_server : Catalog.t -> Server.t
val subject_server :
  ?function_cache:Function_cache.t -> Catalog.t -> config -> Server.t

val set_indexes : Catalog.t -> bool -> unit
(** Flips {!Aldsp_relational.Database.set_use_indexes} on every database
    of the catalog. {!compare_query} does this itself around each side;
    exposed for harnesses that drive servers directly. *)

val run_serialized : Server.t -> string -> (string, string) result
(** Compile + evaluate + {!Aldsp_xml.Item.serialize}. *)

val run_mutated : Server.t -> string -> (string, string) result
(** Compiles the query, then deliberately mis-rewrites the plan — the
    first [Where] clause is dropped, the classic over-eager predicate
    elimination — and evaluates that. Plans with no [Where] clause are
    evaluated unchanged (they cannot express the bug, so they agree).
    Used by the harness's mutation check: the oracle must catch this and
    shrink it. *)

val compare_concurrent :
  Catalog.t -> config -> sessions:int -> string list -> (unit, string) result
(** The concurrent serving-layer oracle: every query answered serially by
    the reference server first, then the whole list replayed by
    [sessions] threads against one shared subject server through
    {!Server.submit} (query [i] on session [i mod sessions] — the
    deterministic round-robin assignment). The replay then runs a second
    time against a fresh subject with cross-session work sharing
    ({!Server.set_work_sharing}: single-flight statement coalescing +
    batched single-key dispatch) switched on — sharing must be invisible
    byte-for-byte too, and its counters must balance (every saved
    roundtrip is a coalesced statement or a batch merge). Any byte of
    divergence on any query in either pass, or admission counters that
    do not balance (a rejection, a phantom deadline abort, work left
    active/queued), is an [Error]. *)

val compare_query :
  Catalog.t ->
  config ->
  ?mutate:bool ->
  ?rating_faults:Aldsp_concurrency.Fault_schedule.fault list ->
  ?swap:string ->
  string ->
  (unit, string) result
(** Runs the query on both servers ([mutate] swaps the subject evaluation
    for {!run_mutated}); [Error report] describes the disagreement, with
    both results. Matching errors on both sides count as agreement.

    A non-empty [rating_faults] is installed as the rating service's
    scripted schedule ({!Aldsp_concurrency.Fault_schedule.set}) before
    every evaluation below, and cleared afterwards, so the reference and
    every subject run see the same per-call failures in call order.

    When the subject run succeeds (and [mutate] is off), the query is
    executed a second time on the same subject server: the re-run must be
    served from the plan cache (zero new compilations) and serialize to
    exactly the same bytes — the plan-cache determinism oracle. [swap]
    is the same call shape with a different lifted literal
    ({!Gen.swap_literal}): it then runs on that subject server too, must
    compile nothing (the shape's plan serves it) and must match the
    reference server's result for that text byte for byte.

    A successful scenario then runs a third time through the streamed
    session path ({!Server.session_run_stream}: streamed execution over
    backend cursors, which the reader pulls a chunk of at most 64 tokens
    at a time) and the streamed chunks must byte-match the
    materialized result pushed through the same token serializer — the
    streaming-delivery oracle.

    A [getSummaryByID] call ({!Gen.By_id}) the subject agrees on is run
    again, but for the swap, on a fresh subject with that function
    marked cacheable (unmarked afterwards): a function-cache miss, which
    runs the body's call plan, then hits, all matching the reference. *)
