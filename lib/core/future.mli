(** Promises over system threads, backing the worker pool ({!Pool}) and the
    resilience special forms [fn-bea:async], [fn-bea:timeout] and
    [fn-bea:fail-over] (§5.4, §5.6).

    A future is a write-once cell with a condition variable. Producers are
    either {!Pool} workers (bounded concurrency — the normal case for source
    calls) or a dedicated thread via {!detach} (used where the computation
    may be abandoned, as in [fn-bea:timeout], and must not occupy a pool
    worker past its deadline). *)

type 'a t

val create : unit -> 'a t
(** An unresolved future. Resolve it with {!fulfill_with}. *)

val fulfill_with : 'a t -> (unit -> 'a) -> unit
(** Runs the thunk and stores its value (or the exception it raised). The
    first resolution wins; later ones are ignored. *)

val detach : (unit -> 'a) -> 'a t
(** Starts the computation on its own dedicated thread — unbounded, so
    reserved for work that may outlive its consumer (timeout fail-over).
    The spawning thread's ambient {!Cancel.t} token is captured and
    installed on the new thread, so session deadlines still apply. *)

val await : 'a t -> 'a
(** Blocks until completion; re-raises the computation's exception. *)

val poll : 'a t -> 'a option
(** [Some value] if completed, [None] if still running; re-raises if the
    computation failed. Never blocks. *)

val await_timeout : 'a t -> float -> 'a option
(** [await_timeout f seconds] waits at most [seconds]; [None] on timeout
    (the computation keeps running detached, its result discarded, matching
    [fn-bea:timeout]'s fail-over behaviour). Re-raises on failure within
    the window. The wait is a {!Cancel.wait} on a token carrying the
    window's deadline, woken by the shared deadline thread — no thread
    per call, no polling. *)
