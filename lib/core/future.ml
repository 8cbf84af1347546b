type 'a outcome = Value of 'a | Raised of exn

type 'a t = {
  mutable result : 'a outcome option;
  mutex : Mutex.t;
  done_ : Condition.t;
}

let create () =
  { result = None; mutex = Mutex.create (); done_ = Condition.create () }

let resolve fut outcome =
  Mutex.lock fut.mutex;
  (* first writer wins; late timers/duplicate fulfills are ignored *)
  if fut.result = None then begin
    fut.result <- Some outcome;
    Condition.broadcast fut.done_
  end;
  Mutex.unlock fut.mutex

let fulfill_with fut f =
  let outcome = try Value (f ()) with e -> Raised e in
  resolve fut outcome

let detach f =
  let fut = create () in
  (* carry the spawning thread's cancellation token onto the detached
     thread, so a session deadline also bounds fn-bea:timeout bodies *)
  let token = Cancel.current () in
  ignore
    (Thread.create
       (fun () -> fulfill_with fut (fun () -> Cancel.with_token token f))
       ());
  fut

let peek fut =
  Mutex.lock fut.mutex;
  let result = fut.result in
  Mutex.unlock fut.mutex;
  result

let poll fut =
  match peek fut with
  | Some (Value v) -> Some v
  | Some (Raised e) -> raise e
  | None -> None

let await fut =
  Mutex.lock fut.mutex;
  while fut.result = None do
    Condition.wait fut.done_ fut.mutex
  done;
  let result = fut.result in
  Mutex.unlock fut.mutex;
  match result with
  | Some (Value v) -> v
  | Some (Raised e) -> raise e
  | None -> assert false

(* [Condition] has no timed wait in the stdlib: the window is a private
   cancellation token whose deadline the shared deadline thread fires,
   waking the waiter through {!Cancel.wait} (no thread per await, no
   polling). *)
let await_timeout fut seconds =
  let window = Cancel.with_deadline seconds in
  Mutex.lock fut.mutex;
  while fut.result = None && not (Cancel.cancelled window) do
    Cancel.wait window fut.mutex fut.done_
  done;
  let result = fut.result in
  Mutex.unlock fut.mutex;
  match result with
  | Some (Value v) -> Some v
  | Some (Raised e) -> raise e
  | None -> None
