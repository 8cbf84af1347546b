(** A bounded worker pool: the scheduler under every asynchronous source
    roundtrip (§6's asynchronous adaptors).

    The paper's runtime hides source latency by letting adaptor calls
    proceed while the query thread continues. This pool gives that overlap
    a fixed thread budget: tasks queue, a configured number of workers
    drain them, and the queue depth / busy-worker high-water marks are
    observable so the overlap win is measurable. Consumers hold
    {!Future.t}s and decide when to block, so result ordering stays with
    the consumer even when tasks complete out of order.

    Workers are started lazily on first {!submit} and never exceed the
    configured bound. {!await} is deadlock-safe for nested submissions:
    a waiter whose future is not yet resolved helps drain the queue
    instead of blocking while work is still unscheduled. *)

type t

type stats = {
  st_workers : int;  (** Configured thread bound. *)
  st_submitted : int;
  st_completed : int;
  st_queue_depth : int;  (** Tasks queued right now. *)
  st_max_queue_depth : int;  (** High-water mark since creation/reset. *)
  st_busy : int;  (** Workers currently running a task. *)
  st_max_busy : int;  (** Never exceeds [st_workers]. *)
  st_helped : int;
      (** Tasks executed by awaiting threads (deadlock-avoidance helping)
          rather than by workers; not counted in [st_busy]/[st_max_busy]. *)
}

val create : ?workers:int -> unit -> t
(** [workers] defaults to the machine's core count
    ([Domain.recommended_domain_count ()]) and is clamped to at least 1;
    pass it explicitly to pin a size (tests, benches, the reference
    configuration). *)

val size : t -> int

val submit : t -> (unit -> 'a) -> 'a Future.t
(** Enqueues the task; a worker will resolve the returned future. The
    calling thread's ambient {!Cancel.t} token is captured and installed
    in whichever thread runs the task, so per-query deadlines follow the
    work onto the pool. *)

val await : t -> 'a Future.t -> 'a
(** Like {!Future.await} but helps execute queued tasks while the awaited
    future is unresolved, so a saturated pool cannot deadlock on nested
    [submit]/[await] chains. *)

val pipeline : t -> depth:int -> ('a -> 'b) -> 'a Seq.t -> 'b Seq.t
(** Ordered prefetching map: while the consumer holds result [n], up to
    [depth] further applications of [f] are already in flight on the pool
    (plus the one being awaited). Results are emitted strictly in input
    order regardless of completion order, and the input sequence is forced
    only on the consumer's thread. [depth <= 0] degenerates to a plain
    sequential {!Seq.map}. *)

val stats : t -> stats
val reset_stats : t -> unit
(** Clears the counters and high-water marks (not the queue). *)

val shutdown : ?wait:bool -> t -> unit
(** Asks the workers to exit once the queue drains (terminal; idempotent
    — repeated and concurrent calls are safe, including while workers are
    blocked inside a backend roundtrip: they finish the task in hand and
    exit). [~wait:true] additionally joins the worker threads before
    returning, so in-flight work is complete on return; a worker calling
    [shutdown ~wait:true] on its own pool skips joining itself. Tasks
    submitted afterwards still complete correctly — {!await} helps drain
    them on the calling thread — they just stop overlapping. Long
    fuzzing/benchmark drivers that create many pools call this so worker
    threads do not accumulate. *)

val default : unit -> t
(** The process-wide shared pool (sized from the machine's core count,
    clamped to [4, 16]), created on first use. Servers without an explicit
    pool share it. *)
