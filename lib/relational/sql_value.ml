open Aldsp_xml

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Timestamp of float

type truth = True | False | Unknown

let is_null = function Null -> true | _ -> false

let as_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Timestamp f -> Some f
  | Null | Str _ | Bool _ -> None

(* [compare_sql] without the option: [incomparable] stands for [None] (no
   comparison below returns it), so a per-row comparison allocates
   nothing. *)
let incomparable = min_int

let compare_raw a b =
  match (a, b) with
  | Null, _ | _, Null -> incomparable
  | Int x, Int y -> compare x y
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> compare x y
  | Timestamp x, Timestamp y -> Float.compare x y
  | _ -> (
    match (as_float a, as_float b) with
    | Some x, Some y -> Float.compare x y
    | _ -> incomparable)

let compare_sql a b =
  let c = compare_raw a b in
  if c = incomparable then None else Some c

let equal a b =
  match (a, b) with
  | Null, Null -> true
  | _ -> compare_raw a b = 0

let truth_of_comparison pred a b =
  let c = compare_raw a b in
  if c = incomparable then Unknown else if pred c then True else False

let and_ a b =
  match (a, b) with
  | False, _ | _, False -> False
  | True, True -> True
  | _ -> Unknown

let or_ a b =
  match (a, b) with
  | True, _ | _, True -> True
  | False, False -> False
  | _ -> Unknown

let not_ = function True -> False | False -> True | Unknown -> Unknown

let to_atomic = function
  | Null -> None
  | Int i -> Some (Atomic.Integer i)
  | Float f -> Some (Atomic.Decimal f)
  | Str s -> Some (Atomic.String s)
  | Bool b -> Some (Atomic.Boolean b)
  | Timestamp f -> Some (Atomic.Date_time f)

let of_atomic = function
  | Atomic.Integer i -> Int i
  | Atomic.Decimal f | Atomic.Double f -> Float f
  | Atomic.String s | Atomic.Untyped s -> Str s
  | Atomic.Boolean b -> Bool b
  | Atomic.Date d -> Timestamp (Atomic.epoch_of_date d)
  | Atomic.Date_time f -> Timestamp f

let to_string = function
  | Null -> "NULL"
  | Int i -> string_of_int i
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else Printf.sprintf "%g" f
  | Str s ->
    let escaped = String.concat "''" (String.split_on_char '\'' s) in
    Printf.sprintf "'%s'" escaped
  | Bool b -> if b then "TRUE" else "FALSE"
  | Timestamp f -> Printf.sprintf "TIMESTAMP '%s'" (Atomic.date_time_to_string f)
