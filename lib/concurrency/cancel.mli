(** Cooperative cancellation tokens carrying per-query deadlines.

    The serving layer ({!Server.submit}) creates one token per admitted
    query; the evaluator, the pool workers and the simulated-latency
    sleeps inside backend adaptors all consult the token of the query
    they are executing on behalf of, so a deadline (or an explicit
    cancel) cuts a query short wherever it happens to be: queued on the
    pool, mid-roundtrip, or sleeping inside a web-service call.

    Propagation is ambient: a token is installed for the current thread
    with {!with_token}, and {!Pool.submit} / {!Future.detach} capture the
    submitting thread's token and re-install it in whichever thread runs
    the task. Checks are time-comparisons. A thread that blocks on a
    condition variable does so through {!wait}, which returns on a signal,
    on {!cancel} or at the token's deadline: {!cancel} wakes every waiter
    registered on the token, and one lazily started deadline thread
    (shared by all tokens) sleeps until the earliest armed deadline and
    wakes its waiters. {!on_cancel} registers a one-shot hook the same
    way. A token is armed only while it has a waiter or a hook, so a
    query that never blocks costs nothing.
    Interruptible sleeps ({!sleepf}) still check the token every couple
    of milliseconds. *)

type t
(** A cancellation token: an optional absolute deadline plus a flag for
    explicit cancellation. Immutable deadline; the flag is monotonic. *)

exception Cancelled of string
(** Raised by {!check} (and anything calling it) when the token's
    deadline has passed or {!cancel} was called. The payload names the
    cause ("deadline exceeded" or "cancelled"). Not recoverable: the
    fail-over/timeout adaptors must let it propagate
    (see {!Eval.recoverable_failure}). *)

val none : t
(** The inert token: never cancelled, no deadline. Installed ambient
    state defaults to this, so code outside a session runs unchecked. *)

val make : ?deadline:float -> unit -> t
(** [deadline] is absolute ([Unix.gettimeofday]-based). *)

val with_deadline : float -> t
(** [with_deadline seconds] — a token expiring [seconds] from now. *)

val cancel : t -> unit
(** Flags the token and wakes every thread blocked in {!wait} on it; other
    threads it is installed in observe the flag at their next {!check} or
    sleep chunk. Idempotent, thread-safe. Must not be called while holding
    a mutex that a waiter on this token passed to {!wait}. *)

val cancelled : t -> bool
(** Whether the token is cancelled or past its deadline (a read, never
    raises). *)

val remaining : t -> float option
(** Seconds until the deadline ([Some 0.] if already past), [None] when
    the token has no deadline. *)

val check : t -> unit
(** Raises {!Cancelled} if the token is cancelled or past deadline. *)

val check_releasing : t -> Mutex.t -> unit
(** {!check} for a caller holding [mutex] (as around {!wait}): releases
    [mutex] before raising, so the exception escapes unlocked. *)

(** {2 Cancellable blocking} *)

val wait : t -> Mutex.t -> Condition.t -> unit
(** [wait tok mutex cond] — [Condition.wait cond mutex] that also returns
    when [tok] is cancelled or reaches its deadline. The caller holds
    [mutex] on entry and on return and re-checks its own condition (and
    the token) afterwards, exactly as after a plain condition wait;
    spurious returns are possible. Returns at once if [tok] is already
    cancelled. With {!none} this is a plain [Condition.wait]. *)

val on_cancel : t -> (unit -> unit) -> unit -> unit
(** [on_cancel tok f] runs [f] once when [tok] fires: from the thread
    calling {!cancel}, or from the deadline thread when the deadline
    passes, even if no thread is blocked on the token. Returns a function
    that unregisters [f] (a no-op once it has run). Runs [f] at once when
    [tok] has already fired, and never with {!none}. While registered,
    [f] counts in {!waiters} and arms the token's deadline like a blocked
    {!wait}. [f] must not raise or block for long, and must not take a
    lock that is held around a {!cancel} of [tok]. The streamed delivery
    of {!Server} uses it to free the admission slot of a stream nobody
    is reading. *)

val waiters : unit -> int
(** Threads currently blocked in {!wait} plus {!on_cancel} hooks still
    registered, on any token (for leak tests). *)

val armed_deadlines : unit -> int
(** Deadlines the deadline thread is currently timing: one per token
    with a deadline and a blocked waiter or registered hook (for leak
    tests). *)

(** {2 Ambient (per-thread) token} *)

val current : unit -> t
(** The token installed for the calling thread ({!none} if nothing is
    installed). *)

val check_current : unit -> unit
(** [check (current ())] — the one-liner used at evaluator call sites. *)

val with_token : t -> (unit -> 'a) -> 'a
(** Installs the token for the calling thread for the duration of the
    thunk, restoring the previous token afterwards (exception-safe).
    Nesting keeps the innermost token. *)

val sleepf : float -> unit
(** Interruptible [Unix.sleepf]: sleeps in small chunks, consulting the
    calling thread's ambient token between chunks; raises {!Cancelled}
    promptly (within one chunk) when the token fires mid-sleep. With the
    inert token this is just a sleep. *)
