type t = { uri : string; local : string }

let make ?(uri = "") local = { uri; local }
let local local = { uri = ""; local }
let equal a b = String.equal a.uri b.uri && String.equal a.local b.local
let compare a b =
  match String.compare a.uri b.uri with
  | 0 -> String.compare a.local b.local
  | c -> c

let to_string t =
  if t.uri = "" then t.local else Printf.sprintf "{%s}%s" t.uri t.local

let of_string s =
  if String.length s > 0 && s.[0] = '{' then
    match String.index_opt s '}' with
    | Some i ->
      { uri = String.sub s 1 (i - 1);
        local = String.sub s (i + 1) (String.length s - i - 1) }
    | None -> { uri = ""; local = s }
  else { uri = ""; local = s }

let pp ppf t = Format.pp_print_string ppf (to_string t)
