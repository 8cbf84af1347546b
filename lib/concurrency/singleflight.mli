(** Keyed single-flight coalescing: when several threads ask for the same
    (expensive, deterministic) computation at the same time, one of them
    — the leader — actually runs it and every concurrent duplicate — the
    followers — waits and shares the leader's value. Nothing is cached:
    an entry lives only while its computation is in flight, so sharing
    never serves a value computed before the caller arrived under a
    different key epoch (callers encode their freshness requirements,
    e.g. a statistics generation, into the key).

    Cancellation rules, designed for the serving layer's deadline tokens:

    - A follower waits under its own ambient {!Cancel} token. If that
      token fires, only the follower aborts (raising
      {!Cancel.Cancelled}); the shared computation and the other waiters
      are untouched.
    - The leader runs the computation under its own ambient token. If the
      leader fails — its deadline fires mid-computation, or the thunk
      raises — the failure is rebroadcast as "flight broken": followers
      do {e not} inherit the exception, they retry, and the first to
      retry becomes the new leader. Deterministic failures are expected
      to be encoded as values (e.g. [Error _] results), which are shared
      like any other value. *)

type 'v t

type 'v outcome =
  | Led of 'v  (** This caller ran the computation. *)
  | Joined of 'v  (** Served from another caller's in-flight run. *)

val create : unit -> 'v t

val run : 'v t -> string -> (unit -> 'v) -> 'v outcome
(** [run t key compute] — become the leader for [key] (running [compute])
    if no flight is up, otherwise wait for the in-flight leader. The wait
    goes through {!Cancel.wait} on the calling thread's ambient token, so
    a cancel or deadline wakes the follower at once. *)

val flights : 'v t -> int
(** Computations currently in flight (leaders running). *)

val led : 'v t -> int
(** Total computations led (one per actual execution, including broken
    ones). *)

val joined : 'v t -> int
(** Total callers served from someone else's flight — work avoided. *)

val broken : 'v t -> int
(** Leader failures rebroadcast to followers (each triggers retries). *)
