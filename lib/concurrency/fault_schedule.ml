type fault = Proceed | Delay of float | Fail | Fail_after of float

type t = { mutable script : fault list; lock : Mutex.t }

let create () = { script = []; lock = Mutex.create () }

let locked t f =
  Mutex.lock t.lock;
  let r = f () in
  Mutex.unlock t.lock;
  r

let set t faults = locked t (fun () -> t.script <- faults)

let remaining t = locked t (fun () -> List.length t.script)

let take t =
  locked t (fun () ->
      match t.script with
      | [] -> Proceed
      | f :: rest ->
        t.script <- rest;
        f)

let stall d = if d > 0. then Cancel.sleepf d

let next_fails t =
  match take t with
  | Proceed -> false
  | Delay d ->
    stall d;
    false
  | Fail -> true
  | Fail_after d ->
    stall d;
    true
