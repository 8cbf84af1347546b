(* Keyed single-flight coalescing. One mutex + condvar for the whole
   registry: flights are short (a backend roundtrip), contention is on
   the order of the session count, and a single condvar broadcast on
   completion keeps the state machine simple. *)

type state = Pending | Landed | Broken

type 'v entry = {
  mutable st : state;
  mutable value : 'v option;  (* Some iff st = Landed *)
}

type 'v t = {
  mutex : Mutex.t;
  done_ : Condition.t;
  table : (string, 'v entry) Hashtbl.t;
  mutable led_count : int;
  mutable joined_count : int;
  mutable broken_count : int;
}

type 'v outcome = Led of 'v | Joined of 'v

let create () =
  { mutex = Mutex.create ();
    done_ = Condition.create ();
    table = Hashtbl.create 32;
    led_count = 0;
    joined_count = 0;
    broken_count = 0 }

(* Waits (lock held on entry and exit) until [e] leaves Pending, through
   {!Cancel.wait} on the caller's ambient token. A fired token raises
   Cancelled with the lock released: that aborts only this waiter, the
   flight and the other waiters are untouched. *)
let wait_entry t e =
  let tok = Cancel.current () in
  while e.st = Pending do
    Cancel.check_releasing tok t.mutex;
    Cancel.wait tok t.mutex t.done_
  done

let run t key compute =
  Mutex.lock t.mutex;
  let rec attempt () =
    match Hashtbl.find_opt t.table key with
    | None ->
      (* lead: compute outside the lock under the caller's own token *)
      let e = { st = Pending; value = None } in
      Hashtbl.replace t.table key e;
      t.led_count <- t.led_count + 1;
      Mutex.unlock t.mutex;
      (match compute () with
      | v ->
        Mutex.lock t.mutex;
        e.st <- Landed;
        e.value <- Some v;
        Hashtbl.remove t.table key;
        Condition.broadcast t.done_;
        Mutex.unlock t.mutex;
        Led v
      | exception exn ->
        (* rebroadcast the failure: followers holding this entry retry
           (one becomes the new leader) instead of inheriting [exn] *)
        Mutex.lock t.mutex;
        e.st <- Broken;
        t.broken_count <- t.broken_count + 1;
        Hashtbl.remove t.table key;
        Condition.broadcast t.done_;
        Mutex.unlock t.mutex;
        raise exn)
    | Some e -> (
      wait_entry t e;
      match e.st with
      | Landed ->
        let v = Option.get e.value in
        t.joined_count <- t.joined_count + 1;
        Mutex.unlock t.mutex;
        Joined v
      | Broken | Pending -> attempt ())
  in
  attempt ()

let locked t f =
  Mutex.lock t.mutex;
  let r = f () in
  Mutex.unlock t.mutex;
  r

let flights t = locked t (fun () -> Hashtbl.length t.table)
let led t = locked t (fun () -> t.led_count)
let joined t = locked t (fun () -> t.joined_count)
let broken t = locked t (fun () -> t.broken_count)
