type atomic_type =
  | T_string
  | T_integer
  | T_decimal
  | T_double
  | T_boolean
  | T_date
  | T_date_time
  | T_untyped

type date = { year : int; month : int; day : int }

type t =
  | String of string
  | Integer of int
  | Decimal of float
  | Double of float
  | Boolean of bool
  | Date of date
  | Date_time of float
  | Untyped of string

let type_of = function
  | String _ -> T_string
  | Integer _ -> T_integer
  | Decimal _ -> T_decimal
  | Double _ -> T_double
  | Boolean _ -> T_boolean
  | Date _ -> T_date
  | Date_time _ -> T_date_time
  | Untyped _ -> T_untyped

let type_name = function
  | T_string -> "xs:string"
  | T_integer -> "xs:integer"
  | T_decimal -> "xs:decimal"
  | T_double -> "xs:double"
  | T_boolean -> "xs:boolean"
  | T_date -> "xs:date"
  | T_date_time -> "xs:dateTime"
  | T_untyped -> "xs:untypedAtomic"

let type_of_name s =
  let s =
    if String.length s > 3 && String.sub s 0 3 = "xs:" then
      String.sub s 3 (String.length s - 3)
    else s
  in
  match s with
  | "string" -> Some T_string
  | "integer" | "int" | "long" | "short" | "byte" -> Some T_integer
  | "decimal" -> Some T_decimal
  | "double" | "float" -> Some T_double
  | "boolean" -> Some T_boolean
  | "date" -> Some T_date
  | "dateTime" -> Some T_date_time
  | "untypedAtomic" | "anyAtomicType" -> Some T_untyped
  | _ -> None

let is_numeric_type = function
  | T_integer | T_decimal | T_double -> true
  | T_string | T_boolean | T_date | T_date_time | T_untyped -> false

let subtype a b =
  a = b
  ||
  match (a, b) with
  | T_integer, (T_decimal | T_double) -> true
  | T_decimal, T_double -> true
  | T_date, T_date_time -> false
  | _ -> false

(* Civil-calendar <-> epoch-day conversions (Howard Hinnant's algorithms).
   Exact over the proleptic Gregorian calendar; no timezone handling — the
   engine works in UTC throughout. *)
let days_from_civil { year = y; month = m; day = d } =
  let y = if m <= 2 then y - 1 else y in
  let era = (if y >= 0 then y else y - 399) / 400 in
  let yoe = y - era * 400 in
  let mp = (m + 9) mod 12 in
  let doy = ((153 * mp + 2) / 5) + d - 1 in
  let doe = (yoe * 365) + (yoe / 4) - (yoe / 100) + doy in
  (era * 146097) + doe - 719468

let civil_from_days z =
  let z = z + 719468 in
  let era = (if z >= 0 then z else z - 146096) / 146097 in
  let doe = z - (era * 146097) in
  let yoe = (doe - (doe / 1460) + (doe / 36524) - (doe / 146096)) / 365 in
  let y = yoe + (era * 400) in
  let doy = doe - ((365 * yoe) + (yoe / 4) - (yoe / 100)) in
  let mp = ((5 * doy) + 2) / 153 in
  let d = doy - (((153 * mp) + 2) / 5) + 1 in
  let m = if mp < 10 then mp + 3 else mp - 9 in
  { year = (if m <= 2 then y + 1 else y); month = m; day = d }

let epoch_of_date date = float_of_int (days_from_civil date * 86400)

let date_of_epoch secs =
  let day = int_of_float (Float.round (floor (secs /. 86400.))) in
  civil_from_days day

let date_to_string { year; month; day } =
  Printf.sprintf "%04d-%02d-%02d" year month day

let date_time_to_string secs =
  let date = date_of_epoch secs in
  let rem = secs -. epoch_of_date date in
  let rem = int_of_float (Float.round rem) in
  Printf.sprintf "%sT%02d:%02d:%02dZ" (date_to_string date) (rem / 3600)
    (rem mod 3600 / 60) (rem mod 60)

let float_to_lexical f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let to_string = function
  | String s | Untyped s -> s
  | Integer i -> string_of_int i
  | Decimal f | Double f -> float_to_lexical f
  | Boolean b -> if b then "true" else "false"
  | Date d -> date_to_string d
  | Date_time s -> date_time_to_string s

let pp ppf v = Format.pp_print_string ppf (to_string v)

let parse_date s =
  try
    Scanf.sscanf s "%d-%d-%d" (fun year month day ->
        Ok (Date { year; month; day }))
  with Scanf.Scan_failure _ | Failure _ | End_of_file ->
    Error (Printf.sprintf "invalid xs:date literal %S" s)

let date_time_of_string s =
  try
    Scanf.sscanf s "%d-%d-%dT%d:%d:%d" (fun year month day h m sec ->
        Ok
          (epoch_of_date { year; month; day }
          +. float_of_int ((h * 3600) + (m * 60) + sec)))
  with Scanf.Scan_failure _ | Failure _ | End_of_file ->
    Error (Printf.sprintf "invalid xs:dateTime literal %S" s)

let parse ty s =
  let bad () = Error (Printf.sprintf "cannot parse %S as %s" s (type_name ty)) in
  match ty with
  | T_string -> Ok (String s)
  | T_untyped -> Ok (Untyped s)
  | T_integer -> (
    match int_of_string_opt (String.trim s) with
    | Some i -> Ok (Integer i)
    | None -> bad ())
  | T_decimal -> (
    match float_of_string_opt (String.trim s) with
    | Some f -> Ok (Decimal f)
    | None -> bad ())
  | T_double -> (
    match float_of_string_opt (String.trim s) with
    | Some f -> Ok (Double f)
    | None -> bad ())
  | T_boolean -> (
    match String.trim s with
    | "true" | "1" -> Ok (Boolean true)
    | "false" | "0" -> Ok (Boolean false)
    | _ -> bad ())
  | T_date -> parse_date (String.trim s)
  | T_date_time -> (
    match date_time_of_string (String.trim s) with
    | Ok f -> Ok (Date_time f)
    | Error e -> Error e)

let cast ty v =
  if type_of v = ty then Ok v
  else
    match (ty, v) with
    | _, (String s | Untyped s) -> parse ty s
    | T_string, v -> Ok (String (to_string v))
    | T_untyped, v -> Ok (Untyped (to_string v))
    | T_integer, Decimal f | T_integer, Double f ->
      Ok (Integer (int_of_float f))
    | T_integer, Boolean b -> Ok (Integer (if b then 1 else 0))
    | T_integer, Date_time s -> Ok (Integer (int_of_float s))
    | T_decimal, Integer i -> Ok (Decimal (float_of_int i))
    | T_decimal, Double f -> Ok (Decimal f)
    | T_double, Integer i -> Ok (Double (float_of_int i))
    | T_double, Decimal f -> Ok (Double f)
    | T_boolean, Integer i -> Ok (Boolean (i <> 0))
    | T_boolean, (Decimal f | Double f) -> Ok (Boolean (f <> 0.))
    | T_date, Date_time s -> Ok (Date (date_of_epoch s))
    | T_date_time, Date d -> Ok (Date_time (epoch_of_date d))
    | T_date_time, Integer i -> Ok (Date_time (float_of_int i))
    | _ ->
      Error
        (Printf.sprintf "cannot cast %s %S to %s"
           (type_name (type_of v))
           (to_string v) (type_name ty))

let as_double = function
  | Integer i -> Some (float_of_int i)
  | Decimal f | Double f -> Some f
  | Untyped s -> float_of_string_opt s
  | String _ | Boolean _ | Date _ | Date_time _ -> None

let compare_values a b =
  let err () =
    Error
      (Printf.sprintf "cannot compare %s with %s"
         (type_name (type_of a))
         (type_name (type_of b)))
  in
  match (a, b) with
  | Integer x, Integer y -> Ok (compare x y)
  | Boolean x, Boolean y -> Ok (compare x y)
  | (String x | Untyped x), (String y | Untyped y) -> Ok (String.compare x y)
  | Date x, Date y -> Ok (compare (days_from_civil x) (days_from_civil y))
  | Date_time x, Date_time y -> Ok (Float.compare x y)
  | Date x, Date_time y -> Ok (Float.compare (epoch_of_date x) y)
  | Date_time x, Date y -> Ok (Float.compare x (epoch_of_date y))
  | (Untyped s, (Date _ | Date_time _)) -> (
    match parse (type_of b) s with
    | Ok a' -> (
      match (a', b) with
      | Date x, Date y -> Ok (compare x y)
      | Date_time x, Date_time y -> Ok (Float.compare x y)
      | _ -> err ())
    | Error e -> Error e)
  | ((Date _ | Date_time _), Untyped s) -> (
    match parse (type_of a) s with
    | Ok b' -> (
      match (a, b') with
      | Date x, Date y -> Ok (compare x y)
      | Date_time x, Date_time y -> Ok (Float.compare x y)
      | _ -> err ())
    | Error e -> Error e)
  | _ -> (
    match (as_double a, as_double b) with
    | Some x, Some y -> Ok (Float.compare x y)
    | _ -> err ())

let equal a b = type_of a = type_of b && compare_values a b = Ok 0

let general_equal a b =
  match compare_values a b with Ok 0 -> true | Ok _ | Error _ -> false

(* Arithmetic follows XQuery numeric promotion: integer op integer stays
   integer (except div), anything involving a double yields a double, and
   decimals otherwise. *)
let arith name int_op float_op a b =
  let err () =
    Error
      (Printf.sprintf "operator %s not defined on %s, %s" name
         (type_name (type_of a))
         (type_name (type_of b)))
  in
  match (a, b) with
  | Integer x, Integer y -> (
    match int_op with
    | Some f -> Ok (Integer (f x y))
    | None -> Ok (Decimal (float_op (float_of_int x) (float_of_int y))))
  | _ -> (
    match (as_double a, as_double b) with
    | Some x, Some y ->
      let r = float_op x y in
      if type_of a = T_double || type_of b = T_double || type_of a = T_untyped
         || type_of b = T_untyped
      then Ok (Double r)
      else Ok (Decimal r)
    | _ -> err ())

let add a b =
  match (a, b) with
  | Date_time t, Integer i | Integer i, Date_time t ->
    Ok (Date_time (t +. float_of_int i))
  | _ -> arith "+" (Some ( + )) ( +. ) a b

let sub a b =
  match (a, b) with
  | Date_time t, Integer i -> Ok (Date_time (t -. float_of_int i))
  | Date_time t1, Date_time t2 -> Ok (Integer (int_of_float (t1 -. t2)))
  | _ -> arith "-" (Some ( - )) ( -. ) a b

let mul a b = arith "*" (Some ( * )) ( *. ) a b

let div a b =
  match b with
  | Integer 0 | Decimal 0. -> Error "division by zero"
  | _ -> arith "div" None ( /. ) a b

let idiv a b =
  match (a, b) with
  | _, Integer 0 -> Error "integer division by zero"
  | Integer x, Integer y -> Ok (Integer (x / y))
  | _ -> (
    match (as_double a, as_double b) with
    | Some x, Some y when y <> 0. -> Ok (Integer (int_of_float (x /. y)))
    | Some _, Some _ -> Error "integer division by zero"
    | _ -> Error "idiv requires numeric operands")

let modulo a b =
  match (a, b) with
  | _, Integer 0 -> Error "modulo by zero"
  | Integer x, Integer y -> Ok (Integer (x mod y))
  | _ -> (
    match (as_double a, as_double b) with
    | Some x, Some y when y <> 0. -> Ok (Double (Float.rem x y))
    | Some _, Some _ -> Error "modulo by zero"
    | _ -> Error "mod requires numeric operands")

let ebv = function
  | Boolean b -> Ok b
  | String s | Untyped s -> Ok (s <> "")
  | Integer i -> Ok (i <> 0)
  | Decimal f | Double f -> Ok (f <> 0. && not (Float.is_nan f))
  | (Date _ | Date_time _) as v ->
    Error
      (Printf.sprintf "no effective boolean value for %s"
         (type_name (type_of v)))
