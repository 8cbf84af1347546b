(* A registered waiter: what [cancel] or the deadline thread runs when
   the token fires. A thread blocked in [wait] registers a broadcast of
   its condvar; [on_cancel] registers the caller's hook. One-shot: firing
   unregisters every waiter of the token before running them. *)
type waiter = { wake : unit -> unit }

type t = {
  deadline : float option;  (* absolute, Unix.gettimeofday-based *)
  mutable flagged : bool;
  mutable waiters : waiter list;  (* guarded by [registry] *)
  mutable armed : int;  (* deadline-heap key while armed, 0 otherwise *)
}

exception Cancelled of string

let none = { deadline = None; flagged = false; waiters = []; armed = 0 }

let make ?deadline () = { deadline; flagged = false; waiters = []; armed = 0 }

let with_deadline seconds =
  make ~deadline:(Unix.gettimeofday () +. seconds) ()

let past_deadline t =
  match t.deadline with
  | None -> false
  | Some d -> Unix.gettimeofday () >= d

let cancelled t = t.flagged || past_deadline t

let remaining t =
  match t.deadline with
  | None -> None
  | Some d -> Some (Float.max 0. (d -. Unix.gettimeofday ()))

let check t =
  if t.flagged then raise (Cancelled "cancelled")
  else if past_deadline t then raise (Cancelled "deadline exceeded")

let check_releasing t mutex =
  match check t with
  | () -> ()
  | exception e ->
    Mutex.unlock mutex;
    raise e

(* ------------------------------------------------------------------ *)
(* Waiter registry and the deadline thread                             *)

(* Armed deadlines ordered by (deadline, arming sequence number): the
   minimum is the next one to fire, and a token is removed in O(log n)
   when its last waiter leaves. *)
module Heap = Map.Make (struct
  type t = float * int

  let compare (d1, k1) (d2, k2) =
    match Float.compare d1 d2 with 0 -> Int.compare k1 k2 | c -> c
end)

(* One lock for every token's waiter list and for the heap. Lock order:
   a waiter's own mutex, then [registry]. Nothing takes a waiter's mutex
   while holding [registry]: wakers snapshot the list and release it
   first. *)
let registry = Mutex.create ()
let heap : t Heap.t ref = ref Heap.empty
let next_key = ref 0
let registered = ref 0

(* Deadline-thread state. [sleeping_until] is the deadline the thread is
   blocked in [select] for ([neg_infinity] while it runs or parks), so
   arming an earlier one knows to poke the self-pipe. *)
let timer_idle = Condition.create ()
let timer_pipe : (Unix.file_descr * Unix.file_descr) option ref = ref None
let sleeping_until = ref neg_infinity

let disarm t =
  (match t.deadline with
  | Some d -> heap := Heap.remove (d, t.armed) !heap
  | None -> ());
  t.armed <- 0

(* Called with [registry] held: unregisters every waiter of a token that
   fired and returns them, to be woken once [registry] is released. *)
let take_waiters t =
  let ws = t.waiters in
  t.waiters <- [];
  registered := !registered - List.length ws;
  if t.armed <> 0 then disarm t;
  ws

let wake_all ws = List.iter (fun w -> w.wake ()) ws

let drain_pipe fd =
  let buf = Bytes.create 64 in
  try
    while Unix.read fd buf 0 64 > 0 do
      ()
    done
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

(* Pops every expired deadline and wakes its waiters; otherwise parks
   (empty heap) or sleeps exactly until the earliest deadline. Never
   wakes on a fixed interval. *)
let timer_loop rfd =
  Mutex.lock registry;
  while true do
    match Heap.min_binding_opt !heap with
    | None -> Condition.wait timer_idle registry
    | Some ((d, _), _) ->
      let now = Unix.gettimeofday () in
      if d <= now then begin
        let rec expired acc =
          match Heap.min_binding_opt !heap with
          | Some ((d, _), tok) when d <= now ->
            expired (List.rev_append (take_waiters tok) acc)
          | _ -> acc
        in
        let ws = expired [] in
        Mutex.unlock registry;
        wake_all ws;
        Mutex.lock registry
      end
      else begin
        sleeping_until := d;
        Mutex.unlock registry;
        (match Unix.select [ rfd ] [] [] (d -. now) with
        | [], _, _ -> ()
        | _ -> drain_pipe rfd
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        Mutex.lock registry;
        sleeping_until := neg_infinity
      end
  done

(* Called with [registry] held. *)
let arm t d =
  if t.armed = 0 then begin
    let wfd =
      match !timer_pipe with
      | Some (_, w) -> w
      | None ->
        let r, w = Unix.pipe ~cloexec:true () in
        Unix.set_nonblock r;
        Unix.set_nonblock w;
        timer_pipe := Some (r, w);
        ignore (Thread.create timer_loop r);
        w
    in
    incr next_key;
    t.armed <- !next_key;
    heap := Heap.add (d, t.armed) t !heap;
    Condition.signal timer_idle;
    if d < !sleeping_until then
      try ignore (Unix.single_write wfd (Bytes.make 1 '!') 0 1)
      with Unix.Unix_error _ -> (* pipe full: a wake-up is already pending *) ()
  end

(* The flag is monotonic and read without a lock (a stale read only
   delays a check); the wake-up goes through [registry], so no waiter
   that registered before the flag was set can miss it. *)
let cancel t =
  if t != none && not t.flagged then begin
    t.flagged <- true;
    Mutex.lock registry;
    let ws = take_waiters t in
    Mutex.unlock registry;
    wake_all ws
  end

(* Adds [w] to a live token and arms its deadline; [false] when the token
   has already fired. Checked under [registry]: a [cancel] that ran
   before this point set the flag before taking the waiter list, so it is
   seen here; one that runs after takes [w]. *)
let register t w =
  Mutex.lock registry;
  let live = not (cancelled t) in
  if live then begin
    t.waiters <- w :: t.waiters;
    incr registered;
    Option.iter (arm t) t.deadline
  end;
  Mutex.unlock registry;
  live

(* A no-op when the token fired in the meantime (firing unregistered [w]). *)
let unregister t w =
  Mutex.lock registry;
  if List.memq w t.waiters then begin
    t.waiters <- List.filter (fun x -> x != w) t.waiters;
    decr registered;
    if t.waiters = [] && t.armed <> 0 then disarm t
  end;
  Mutex.unlock registry

let wait t mutex cond =
  if t == none then Condition.wait cond mutex
  else begin
    let wake () =
      Mutex.lock mutex;
      Condition.broadcast cond;
      Mutex.unlock mutex
    in
    let w = { wake } in
    if register t w then begin
      Condition.wait cond mutex;
      unregister t w
    end
  end

let on_cancel t f =
  if t == none then ignore
  else
    let w = { wake = f } in
    if register t w then fun () -> unregister t w
    else begin
      f ();
      ignore
    end

let locked f =
  Mutex.lock registry;
  let n = f () in
  Mutex.unlock registry;
  n

let waiters () = locked (fun () -> !registered)
let armed_deadlines () = locked (fun () -> Heap.cardinal !heap)

(* ------------------------------------------------------------------ *)
(* Ambient per-thread token                                            *)

(* A table keyed by Thread.id. Entries exist only while a [with_token]
   scope is live, so the table stays small (one entry per active
   session/worker). *)
let ambient : (int, t) Hashtbl.t = Hashtbl.create 32
let ambient_mutex = Mutex.create ()

let current () =
  Mutex.lock ambient_mutex;
  let tok =
    match Hashtbl.find_opt ambient (Thread.id (Thread.self ())) with
    | Some tok -> tok
    | None -> none
  in
  Mutex.unlock ambient_mutex;
  tok

let check_current () = check (current ())

let with_token tok f =
  let id = Thread.id (Thread.self ()) in
  Mutex.lock ambient_mutex;
  let previous = Hashtbl.find_opt ambient id in
  Hashtbl.replace ambient id tok;
  Mutex.unlock ambient_mutex;
  Fun.protect f ~finally:(fun () ->
      Mutex.lock ambient_mutex;
      (match previous with
      | Some prev -> Hashtbl.replace ambient id prev
      | None -> Hashtbl.remove ambient id);
      Mutex.unlock ambient_mutex)

(* Chunked interruptible sleep. 2ms chunks bound cancellation latency
   while costing nothing measurable against the multi-ms simulated
   backend latencies they interrupt. *)
let chunk = 0.002

let sleepf seconds =
  let tok = current () in
  if tok == none then Unix.sleepf seconds
  else begin
    check tok;
    let until = Unix.gettimeofday () +. seconds in
    let rec go () =
      let left = until -. Unix.gettimeofday () in
      if left > 0. then begin
        Unix.sleepf (Float.min chunk left);
        check tok;
        go ()
      end
    in
    go ()
  end
