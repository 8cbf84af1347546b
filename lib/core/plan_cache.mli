(** The query plan cache (§2.2).

    "ALDSP maintains a query plan cache in order to avoid repeatedly
    compiling popular queries from the same or different users." An LRU
    map from compilation key to compiled plan; compiled plans are reusable
    because parameters are bound at execution time and security filtering
    happens post-evaluation (§7).

    A plan is only as good as what it was compiled from, so the key is not
    the query text alone: it also carries a fingerprint of the optimizer
    options in force (two servers over one registry may compile the same
    text differently) and the registry's {!Metadata.generation} (a plan
    compiled before a function was redefined or a source registered must
    not be served afterwards). {!purge_stale} sweeps entries left behind
    by older generations. *)

type key = {
  k_query : string;  (** The query text, or a call shape's {!Shape.key}. *)
  k_options : string;  (** {!Optimizer.options_fingerprint} in force. *)
  k_generation : int;  (** {!Metadata.generation} at compile time. *)
  k_stats : int;
      (** {!Metadata.stats_generation} at compile time: cost-based join
          methods and PP-k depths are functions of row counts, index sets
          and index NDVs, so a plan costed against since-moved statistics
          must be recompiled. A write that moves none of them keeps the
          plan. *)
}

type 'plan t

val create : capacity:int -> 'plan t

val find : ?count:bool -> 'plan t -> key -> 'plan option
(** Refreshes the entry's recency on hit. [count] (default true) says
    whether the lookup counts into {!hits} or {!misses}. *)

val add : 'plan t -> key -> 'plan -> unit
(** Inserts, evicting the least recently used entry at capacity. *)

val purge_stale : 'plan t -> generation:int -> stats:int -> unit
(** Drops every entry compiled under a different metadata generation or
    statistics generation (the invalidation sweep run after registry or
    data mutations). Does not touch hit / miss statistics. Scans only
    when the pair differs from the last purge's or an entry under
    another pair was added since, so a call between two mutations costs
    one comparison. *)

val size : 'plan t -> int
val hits : 'plan t -> int
val misses : 'plan t -> int

val evictions : 'plan t -> int
(** Capacity evictions performed by {!add} (stale purges are not
    evictions). Bookkeeping invariant, asserted by the tests: with no
    purges, [distinct keys added - evictions = size]. *)
