(* Each task carries the cancellation token that was ambient on the
   submitting thread: whichever thread ends up running it (worker or
   help-draining awaiter) re-installs that token for the task's duration,
   so deadlines follow the query across threads. *)
type task = Task : 'a Future.t * Cancel.t * (unit -> 'a) -> task

type t = {
  workers : int;
  queue : task Queue.t;
  mutex : Mutex.t;
  work_ready : Condition.t;
  mutable threads : Thread.t list;  (* join handles for [shutdown ~wait] *)
  mutable started : bool;
  mutable stopping : bool;
  mutable submitted : int;
  mutable completed : int;
  mutable busy : int;
  mutable max_busy : int;
  mutable helped : int;
  mutable max_queue_depth : int;
}

type stats = {
  st_workers : int;
  st_submitted : int;
  st_completed : int;
  st_queue_depth : int;
  st_max_queue_depth : int;
  st_busy : int;
  st_max_busy : int;
  st_helped : int;
}

let create ?(workers = Domain.recommended_domain_count ()) () =
  { workers = max 1 workers;
    queue = Queue.create ();
    mutex = Mutex.create ();
    work_ready = Condition.create ();
    threads = [];
    started = false;
    stopping = false;
    submitted = 0;
    completed = 0;
    busy = 0;
    max_busy = 0;
    helped = 0;
    max_queue_depth = 0 }

let size t = t.workers

(* [helper] marks execution by an awaiting thread rather than a worker:
   it is tallied separately so [st_max_busy] counts pool threads only and
   stays within the configured bound *)
let run_task ?(helper = false) t (Task (fut, token, f)) =
  if helper then t.helped <- t.helped + 1
  else begin
    t.busy <- t.busy + 1;
    if t.busy > t.max_busy then t.max_busy <- t.busy
  end;
  Mutex.unlock t.mutex;
  Future.fulfill_with fut (fun () -> Cancel.with_token token f);
  Mutex.lock t.mutex;
  if not helper then t.busy <- t.busy - 1;
  t.completed <- t.completed + 1

let worker_loop t () =
  Mutex.lock t.mutex;
  let running = ref true in
  while !running do
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.work_ready t.mutex
    done;
    match Queue.take_opt t.queue with
    | Some task -> run_task t task
    | None -> running := false  (* stopping with a drained queue *)
  done;
  Mutex.unlock t.mutex

(* workers start on first submission, so pools created for configuration
   only (or never used) cost nothing *)
let ensure_started t =
  if not t.started then begin
    t.started <- true;
    for _ = 1 to t.workers do
      t.threads <- Thread.create (worker_loop t) () :: t.threads
    done
  end

let submit t f =
  let fut = Future.create () in
  let token = Cancel.current () in
  Mutex.lock t.mutex;
  ensure_started t;
  t.submitted <- t.submitted + 1;
  Queue.push (Task (fut, token, f)) t.queue;
  let depth = Queue.length t.queue in
  if depth > t.max_queue_depth then t.max_queue_depth <- depth;
  Condition.signal t.work_ready;
  Mutex.unlock t.mutex;
  fut

(* Awaiting inside the pool must not deadlock when every worker is blocked
   on a not-yet-scheduled task: while the future is unresolved, the waiter
   (worker or client thread alike) drains queued tasks itself. *)
let await t fut =
  let rec help () =
    match Future.poll fut with
    | Some v -> v
    | None ->
      Mutex.lock t.mutex;
      (match Queue.take_opt t.queue with
      | Some task ->
        run_task ~helper:true t task;
        Mutex.unlock t.mutex;
        help ()
      | None ->
        Mutex.unlock t.mutex;
        Future.await fut)
  in
  help ()

(* Ordered pipelining: map [f] over [seq] keeping up to [depth] + 1
   applications in flight (the one being awaited plus [depth] prefetched
   ahead). Elements are pulled from [seq] and results emitted strictly in
   order — tasks may complete out of order but consumers never observe
   that. Forcing of [seq] happens on the consumer's thread, so effectful
   sources need no synchronization of their own. *)
let pipeline t ~depth f seq =
  if depth <= 0 then Seq.map f seq
  else
    let rec fill pending n seq =
      if n = 0 then (pending, seq)
      else
        match seq () with
        | Seq.Nil -> (pending, Seq.empty)
        | Seq.Cons (x, rest) ->
          fill (pending @ [ submit t (fun () -> f x) ]) (n - 1) rest
    in
    let rec go pending seq () =
      let pending, seq = fill pending (depth + 1 - List.length pending) seq in
      match pending with
      | [] -> Seq.Nil
      | fut :: pending -> Seq.Cons (await t fut, go pending seq)
    in
    go [] seq

let stats t =
  Mutex.lock t.mutex;
  let s =
    { st_workers = t.workers;
      st_submitted = t.submitted;
      st_completed = t.completed;
      st_queue_depth = Queue.length t.queue;
      st_max_queue_depth = t.max_queue_depth;
      st_busy = t.busy;
      st_max_busy = t.max_busy;
      st_helped = t.helped }
  in
  Mutex.unlock t.mutex;
  s

let reset_stats t =
  Mutex.lock t.mutex;
  t.submitted <- 0;
  t.completed <- 0;
  t.max_busy <- 0;
  t.helped <- 0;
  t.max_queue_depth <- 0;
  Mutex.unlock t.mutex

(* Terminal: workers exit once the queue drains. Tasks submitted after
   shutdown still complete — awaiting threads help-drain the queue — they
   just no longer overlap. Idempotent: the flag is monotonic and joining
   an already-terminated thread returns immediately, so concurrent or
   repeated shutdowns (with or without [wait]) are all safe, including
   while workers sit inside a backend roundtrip — they finish the task in
   hand, observe [stopping], and exit. *)
let shutdown ?(wait = false) t =
  Mutex.lock t.mutex;
  t.stopping <- true;
  Condition.broadcast t.work_ready;
  let threads = t.threads in
  Mutex.unlock t.mutex;
  if wait then begin
    (* Never join from inside the pool — a worker calling [shutdown ~wait]
       would wait for itself. It still flags the stop; someone outside the
       pool does the joining. *)
    let self = Thread.id (Thread.self ()) in
    List.iter
      (fun th -> if Thread.id th <> self then Thread.join th)
      threads
  end

let default_pool = ref None
let default_mutex = Mutex.create ()

let default () =
  Mutex.lock default_mutex;
  let p =
    match !default_pool with
    | Some p -> p
    | None ->
      let workers = min 16 (max 4 (Domain.recommended_domain_count ())) in
      let p = create ~workers () in
      default_pool := Some p;
      p
  in
  Mutex.unlock default_mutex;
  p
