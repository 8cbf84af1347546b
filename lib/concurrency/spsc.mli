(** Bounded single-producer/single-consumer hand-off queue.

    The streaming serving layer's delivery buffer: the producer blocks
    once [capacity] elements are buffered (backpressure), the consumer
    blocks while the queue is empty. Termination is explicit — the
    producer {!close}s or {!fail}s, the consumer may {!abort} to release
    the producer mid-stream. *)

type 'a t

(** [create ~capacity] makes an empty queue holding elements of total
    weight at most [max 1 capacity] (each element weighs 1 unless pushed
    with [~weight]). *)
val create : capacity:int -> 'a t

val capacity : 'a t -> int

(** High-water total weight since creation. Never exceeds {!capacity}
    while every element weighs at most {!capacity} — this is the
    bounded-buffer guarantee the tests pin. *)
val peak_occupancy : 'a t -> int

(** Producer: enqueue one element of the given [weight] (default 1),
    blocking while it does not fit; an empty queue accepts any weight.
    Returns [false] once the consumer has {!abort}ed (the element is
    dropped and the producer should stop). A producer blocked here waits
    through {!Cancel.wait} on its ambient token and lets
    {!Cancel.Cancelled} escape when the token fires, so a session
    deadline or cancel aborts a producer stuck behind a stalled consumer;
    the producer's cleanup should then {!fail} the queue. *)
val push : ?weight:int -> 'a t -> 'a -> bool

(** Producer: clean end-of-stream. Buffered elements remain readable. *)
val close : 'a t -> unit

(** Producer: abort the stream with an error. Buffered elements drain
    first, then the consumer sees [`Failed]. The first failure wins. *)
val fail : 'a t -> string -> unit

(** Consumer: dequeue the next element, blocking while the queue is
    empty and the producer is still live. *)
val pop : 'a t -> [ `Item of 'a | `Closed | `Failed of string ]

(** Consumer: stop consuming; drops buffered elements and releases a
    blocked producer, whose next {!push} returns [false]. *)
val abort : 'a t -> unit
