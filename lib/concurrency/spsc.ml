(* Bounded single-producer/single-consumer hand-off queue.

   The streaming serving layer pushes result tokens through one of these,
   in chunks: the producer (the session's evaluation thread) blocks
   whenever the consumer lags [capacity] tokens behind — that blocking
   *is* the backpressure that keeps a slow client from ballooning server
   memory — and the consumer blocks while the queue is empty.

   Termination is explicit and one-way: the producer [close]s on a clean
   end-of-stream or [fail]s with the error that aborted it; the consumer
   [abort]s to release a producer mid-stream (the next [push] returns
   false). A producer blocked in [push] waits through {!Cancel.wait} on
   its ambient token, so a session deadline or explicit cancel wakes and
   aborts the producer even while the consumer never drains another
   element. *)

type 'a t = {
  capacity : int;
  q : ('a * int) Queue.t;  (* element, weight *)
  mu : Mutex.t;
  not_full : Condition.t;
  not_empty : Condition.t;
  mutable load : int;  (* summed weight of the buffered elements *)
  mutable closed : bool;  (* producer finished cleanly *)
  mutable failed : string option;  (* producer aborted with an error *)
  mutable aborted : bool;  (* consumer walked away *)
  mutable peak : int;  (* high-water load, for the bounded-buffer pin *)
}

let create ~capacity =
  { capacity = max 1 capacity;
    q = Queue.create ();
    mu = Mutex.create ();
    not_full = Condition.create ();
    not_empty = Condition.create ();
    load = 0;
    closed = false;
    failed = None;
    aborted = false;
    peak = 0 }

let capacity t = t.capacity

let peak_occupancy t =
  Mutex.lock t.mu;
  let p = t.peak in
  Mutex.unlock t.mu;
  p

(* Producer side. Blocks while the element does not fit; an empty queue
   always accepts, so an element heavier than the capacity cannot wedge
   the stream. *)
let push ?(weight = 1) t x =
  Mutex.lock t.mu;
  let rec wait () =
    if t.aborted then false
    else if t.load = 0 || t.load + weight <= t.capacity then true
    else begin
      let tok = Cancel.current () in
      (* on a fired token the producer's cleanup is expected to [fail]
         the queue so the consumer unblocks *)
      Cancel.check_releasing tok t.mu;
      Cancel.wait tok t.mu t.not_full;
      wait ()
    end
  in
  let accepted = wait () in
  if accepted then begin
    Queue.push (x, weight) t.q;
    t.load <- t.load + weight;
    if t.load > t.peak then t.peak <- t.load;
    Condition.signal t.not_empty
  end;
  Mutex.unlock t.mu;
  accepted

let close t =
  Mutex.lock t.mu;
  t.closed <- true;
  Condition.broadcast t.not_empty;
  Mutex.unlock t.mu

let fail t msg =
  Mutex.lock t.mu;
  if t.failed = None then t.failed <- Some msg;
  t.closed <- true;
  Condition.broadcast t.not_empty;
  Mutex.unlock t.mu

(* Consumer side. Buffered elements drain before a failure is reported:
   the producer pushed them before it died, but a streaming consumer has
   typically forwarded earlier tokens already, so late losers are the
   protocol either way — the oracle only pins successful runs. *)
let pop t =
  Mutex.lock t.mu;
  let rec wait () =
    match Queue.take_opt t.q with
    | Some (x, weight) ->
      t.load <- t.load - weight;
      Condition.signal t.not_full;
      `Item x
    | None -> (
      match t.failed with
      | Some msg -> `Failed msg
      | None ->
        if t.closed then `Closed
        else begin
          Condition.wait t.not_empty t.mu;
          wait ()
        end)
  in
  let r = wait () in
  Mutex.unlock t.mu;
  r

let abort t =
  Mutex.lock t.mu;
  t.aborted <- true;
  Queue.clear t.q;
  t.load <- 0;
  Condition.broadcast t.not_full;
  Mutex.unlock t.mu
