(** Observed-cost statistics — the paper's roadmap item implemented (§9).

    "We are starting work on an observed cost-based approach to
    optimization and tuning; the idea is to skip past 'old school'
    techniques that rely on static cost models and difficult-to-obtain
    statistics, instead instrumenting the system and basing its
    optimization decisions (such as evaluation ordering and
    parallelization) only on actually observed data characteristics and
    data source behavior."

    This module is the instrument: a per-function record of observed
    invocation latency and result cardinality, fed by the evaluator for
    every data-service call it runs. {!Optimizer.reorder_sources} reads
    the samples to reorder independent source accesses so that
    cheaper/smaller sources run first (and drive the outer side of nested
    evaluations): on them alone with the cost model off, and with it on
    for a pair of sources the statistics cannot price (services,
    procedures). The middleware's roundtrip, overlap and source-wall
    counters live here too. *)

open Aldsp_xml

type sample = {
  calls : int;
  mean_latency : float;  (** Seconds. *)
  mean_cardinality : float;  (** Items returned. *)
  total_latency : float;  (** Accumulated wall time inside this source. *)
}

type t

val create : unit -> t

val record : t -> Qname.t -> latency:float -> cardinality:int -> unit
(** Exponentially-weighted accumulation (alpha = 0.2) so behaviour shifts
    are tracked without unbounded memory. All recording is mutex-guarded:
    with the worker pool, source calls complete on many threads. *)

val record_roundtrip : t -> wall:float -> unit
(** One middleware-issued source roundtrip (e.g. a PP-k block query);
    [wall] is its measured duration, accumulated into {!source_wall}. *)

val record_overlap : t -> float -> unit
(** Seconds of source latency hidden by overlapping a roundtrip with other
    work (negative/zero contributions are dropped). *)

val roundtrips : t -> int

val overlap_saved : t -> float
val source_wall : t -> float
(** Total wall time spent inside instrumented source calls — with the pool
    this can exceed elapsed time, which is exactly the overlap win. *)

val observed : t -> Qname.t -> sample option

val cost : t -> Qname.t -> float option
(** The ordering heuristic: mean latency plus a per-item processing
    charge. [None] until the function has been observed at least once. *)

val report : t -> (Qname.t * sample) list
(** All observations, most expensive first. *)
