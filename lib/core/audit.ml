type level = Off | Summary | Detailed

type event = {
  category : string;
  summary : string;
  detail : string option;
}

(* events arrive from worker-pool threads too; the cons onto [log] is a
   read-modify-write that needs the lock *)
type t = { lvl : level; mutable log : event list; lock : Mutex.t }

let create ?(level = Off) () = { lvl = level; log = []; lock = Mutex.create () }
let level t = t.lvl

let locked t f =
  Mutex.lock t.lock;
  let r = f () in
  Mutex.unlock t.lock;
  r

let record t ~category ?detail summary =
  match t.lvl with
  | Off -> ()
  | Summary ->
    locked t (fun () -> t.log <- { category; summary; detail = None } :: t.log)
  | Detailed ->
    locked t (fun () -> t.log <- { category; summary; detail } :: t.log)

let events t = List.rev (locked t (fun () -> t.log))
