type t = { phase : string; message : string }

type mode = Fail_fast | Recover

exception Compile_error of t

type collector = { coll_mode : mode; mutable items : t list }

let collector coll_mode = { coll_mode; items = [] }

let error c ~phase fmt =
  Printf.ksprintf
    (fun message ->
      let d = { phase; message } in
      match c.coll_mode with
      | Fail_fast -> raise (Compile_error d)
      | Recover -> c.items <- d :: c.items)
    fmt

let diagnostics c = List.rev c.items

let has_errors c = c.items <> []

let to_string d = Printf.sprintf "[error] %s: %s" d.phase d.message
