(** The mid-tier function cache (§5.5).

    "ALDSP's cache is a function cache — rather like a Web service cache":
    a persistent, distributed map from (function, argument values) to the
    function result, suited to turning high-latency data service calls into
    single-row database lookups. Following the paper, the implementation
    employs a relational database for persistence/distribution: each entry
    is a row in an [ALDSP_FN_CACHE] table keyed by function name and
    serialized arguments, carrying the serialized result and its expiry.
    Lookups execute one parameterized single-row SELECT against the cache
    database (so cache hits are visible in that database's statistics); a
    per-process materialized value is kept alongside so hits preserve typed
    tokens, with the table's XML used on cold hits.

    Caching must be {e allowed} by the data service designer
    ([fd_cacheable]) and then {e enabled} administratively with a TTL per
    function. The cache stores unfiltered results; security filtering
    applies after the cache so entries are shared across users (§7).

    All operations are safe to call from worker-pool threads: a single
    lock guards the statistics, the TTL and materialized tables, and makes
    {!store}'s DELETE+INSERT atomic with respect to concurrent {!lookup}s.
    Result computation on a miss runs outside the lock, under a per-key
    {!Aldsp_concurrency.Singleflight} flight: concurrent misses on the
    same key coalesce on a single computation, the followers sharing the
    leader's value ({!coalesced} counts the computations avoided). The
    per-process materialized table is bounded ([capacity], LRU): evicting
    a typed value only loses its type annotations — the persistent row
    remains and serves cold hits. *)

open Aldsp_xml

type t

val create :
  ?clock:(unit -> float) -> ?capacity:int ->
  Aldsp_relational.Database.t -> t
(** Uses (and creates if needed) the cache table in the given database.
    [clock] is injectable for TTL tests. [capacity] (default 256) bounds
    the per-process materialized typed-value table with LRU eviction;
    the persistent table is unaffected. *)

val enable : t -> Qname.t -> ttl_seconds:float -> unit
(** Administrative enablement with a time-to-live. *)

val lookup :
  t -> Qname.t -> Item.sequence list -> Item.sequence option
(** [Some result] on a fresh hit; [None] on miss or stale entry. *)

val store : t -> Qname.t -> Item.sequence list -> Item.sequence -> unit

val invalidate : t -> Qname.t -> unit
(** Drops all entries of one function. *)

val wrapper : t -> Metadata.function_def -> Item.sequence list ->
  (unit -> Item.sequence) -> Item.sequence
(** An {!Eval.call_wrapper}: consults the cache for calls to functions that
    are designer-allowed and administratively enabled. *)

val hits : t -> int
val misses : t -> int

val coalesced : t -> int
(** Misses served from another session's in-flight computation — function
    invocations avoided by single-flight coalescing. *)

val materialized_count : t -> int
(** Live entries of the bounded per-process typed-value table. *)
