type cmp = Eq | Ne | Lt | Le | Gt | Ge

type pred =
  | P_true
  | P_str of string * cmp * string
  | P_since of cmp * int
  | P_some_order
  | P_exists_order
  | P_and of pred * pred
  | P_or of pred * pred

type adaptor = A_plain | A_failover | A_timeout

type ret =
  | R_last_name
  | R_cid
  | R_pair
  | R_orders
  | R_count
  | R_attrs
  | R_optional
  | R_rating of adaptor

type order = O_none | O_cid | O_last_desc | O_since_desc

type query =
  | Scan of { pred : pred; order : order; ret : ret }
  | Join_orders of { field : string; cmp : cmp; lit : string }
  | Join_cards of { limit_filter : bool; whole_card : bool }
  | Group_by of { key : string }
  | View_filter of { field : string; cmp : cmp; lit : string }
  | Subseq of { order : order; start : int; len : int }
  | Aggregate of { pred : pred }
  | Region_scan of { min_pop : int }
  | Async_lets of { n : int }
  | By_id of { lit : string }

let minimal = Scan { pred = P_true; order = O_none; ret = R_cid }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let cmp_to_string = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let rec pred_to_string = function
  | P_true -> "fn:true()"
  | P_str (field, c, lit) ->
    Printf.sprintf "$c/%s %s \"%s\"" field (cmp_to_string c) lit
  | P_since (c, n) -> Printf.sprintf "$c/SINCE %s %d" (cmp_to_string c) n
  | P_some_order -> "some $q in ORDER_T() satisfies $q/CID eq $c/CID"
  | P_exists_order ->
    "fn:exists(for $q in ORDER_T() where $q/CID eq $c/CID return $q)"
  (* operands parenthesized: a quantified expression is an ExprSingle and
     cannot appear bare as an and/or operand *)
  | P_and (a, b) ->
    Printf.sprintf "(%s) and (%s)" (pred_to_string a) (pred_to_string b)
  | P_or (a, b) ->
    Printf.sprintf "(%s) or (%s)" (pred_to_string a) (pred_to_string b)

let rating_call ~lname ~ssn =
  Printf.sprintf
    "getRating(<getRating><lName>{%s}</lName><ssn>{%s}</ssn></getRating>)"
    lname ssn

(* the per-row rating expression: latency is zero and the service is a
   pure function of the request, so fail-over keeps the primary and the
   60s timeout budget never trips — both configurations see the primary *)
let ret_to_string = function
  | R_last_name -> "$c/LAST_NAME"
  | R_cid -> "fn:data($c/CID)"
  | R_pair -> "<R>{$c/CID, $c/LAST_NAME}</R>"
  | R_orders ->
    "<R>{$c/CID, for $o in ORDER_T() where $o/CID eq $c/CID return $o/OID}</R>"
  | R_count ->
    "<R>{$c/CID, <N>{count(for $o in ORDER_T() where $o/CID eq $c/CID \
     return $o)}</N>}</R>"
  | R_attrs ->
    "<R id=\"{$c/CID}\" n=\"{$c/LAST_NAME, $c/SINCE}\" \
     f?=\"{$c/FIRST_NAME}\">{$c/LAST_NAME}</R>"
  | R_optional -> "<R>{$c/CID}<F?>{$c/FIRST_NAME}</F></R>"
  | R_rating a ->
    let call =
      Printf.sprintf "fn:data(%s/getRatingResult)"
        (rating_call ~lname:"fn:data($c/LAST_NAME)" ~ssn:"fn:data($c/SSN)")
    in
    let wrapped =
      match a with
      | A_plain -> call
      | A_failover -> Printf.sprintf "fn-bea:fail-over(%s, -1)" call
      | A_timeout -> Printf.sprintf "fn-bea:timeout(%s, 60000, -1)" call
    in
    Printf.sprintf "<R>{$c/CID, <RT>{%s}</RT>}</R>" wrapped

let order_to_string = function
  | O_none -> ""
  | O_cid -> " order by $c/CID"
  | O_last_desc -> " order by $c/LAST_NAME descending"
  | O_since_desc -> " order by $c/SINCE descending"

let where_to_string = function
  | P_true -> ""
  | p -> Printf.sprintf " where %s" (pred_to_string p)

let render = function
  | Scan { pred; order; ret } ->
    Printf.sprintf "for $c in CUSTOMER()%s%s return %s" (where_to_string pred)
      (order_to_string order) (ret_to_string ret)
  | Join_orders { field; cmp; lit } ->
    Printf.sprintf
      "for $c in CUSTOMER(), $o in ORDER_T() where $c/CID eq $o/CID and \
       $o/%s %s %s return <J>{$c/CID, $o/OID}</J>"
      field (cmp_to_string cmp) lit
  | Join_cards { limit_filter; whole_card } ->
    Printf.sprintf
      "for $c in CUSTOMER(), $k in CREDIT_CARD() where $c/CID eq $k/CID%s \
       return <K>{$c/CID, %s}</K>"
      (if limit_filter then " and $k/LIMIT_ gt 500.0" else "")
      (if whole_card then "$k" else "$k/NUM")
  | Group_by { key } ->
    Printf.sprintf
      "for $c in CUSTOMER() group $c as $g by $c/%s as $key order by $key \
       return <G>{$key, count($g)}</G>"
      key
  | View_filter { field; cmp; lit } ->
    Printf.sprintf "for $p in getSummary() where $p/%s %s \"%s\" return $p/CID"
      field (cmp_to_string cmp) lit
  | Subseq { order; start; len } ->
    Printf.sprintf
      "fn:subsequence(for $c in CUSTOMER()%s return fn:data($c/CID), %d, %d)"
      (order_to_string order) start len
  | Aggregate { pred } ->
    Printf.sprintf
      "for $c in CUSTOMER()%s return <A>{$c/CID, <T>{sum(for $o in ORDER_T() \
       where $o/CID eq $c/CID return $o/AMOUNT)}</T>}</A>"
      (where_to_string pred)
  | Region_scan { min_pop } ->
    Printf.sprintf
      "for $r in REGION() where $r/POP gt %d order by $r/CODE return \
       <Z>{$r/CODE, $r/NAME}</Z>"
      min_pop
  | Async_lets { n } ->
    let n = max 1 n in
    let lets =
      List.init n (fun i ->
          Printf.sprintf "let $v%d := fn-bea:async(%s)" i
            (rating_call
               ~lname:(Printf.sprintf "\"L%d\"" i)
               ~ssn:(Printf.sprintf "\"%d\"" (100 + i))))
    in
    let uses =
      List.init n (fun i -> Printf.sprintf "$v%d/getRatingResult" i)
    in
    Printf.sprintf "%s return <R>{%s}</R>" (String.concat " " lets)
      (String.concat ", " uses)
  | By_id { lit } -> Printf.sprintf "getSummaryByID(\"%s\")" lit

let size q = String.length (render q)

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)

let pick st xs = xs.(Random.State.int st (Array.length xs))

let cmps = [| Eq; Ne; Lt; Le; Gt; Ge |]
let string_fields = [| "CID"; "LAST_NAME"; "SSN" |]
let string_lits = [| "CUST0001"; "CUST0003"; "Jones"; "Smith"; "zzz" |]

(* the next literal along, so the swap always changes the text *)
let swap_literal = function
  | By_id { lit } ->
    let n = Array.length string_lits in
    let i =
      match Array.find_index (String.equal lit) string_lits with
      | Some i -> i
      | None -> n - 1
    in
    Some (By_id { lit = string_lits.((i + 1) mod n) })
  | _ -> None

let rec gen_pred st depth =
  let base () =
    match Random.State.int st 4 with
    | 0 -> P_str (pick st string_fields, pick st cmps, pick st string_lits)
    | 1 -> P_since (pick st cmps, pick st [| 0; 250000; 500000; 999999 |])
    | 2 -> P_some_order
    | _ -> P_exists_order
  in
  if depth = 0 then base ()
  else
    match Random.State.int st 4 with
    | 0 -> P_and (gen_pred st (depth - 1), gen_pred st (depth - 1))
    | 1 -> P_or (gen_pred st (depth - 1), gen_pred st (depth - 1))
    | _ -> base ()

let gen_ret st =
  match Random.State.int st 10 with
  | 0 -> R_last_name
  | 1 -> R_cid
  | 2 -> R_pair
  | 3 -> R_orders
  | 4 -> R_count
  | 5 -> R_attrs
  | 6 -> R_optional
  | 7 -> R_rating A_plain
  | 8 -> R_rating A_failover
  | _ -> R_rating A_timeout

let gen_order st = pick st [| O_none; O_cid; O_last_desc; O_since_desc |]

let generate st =
  match Random.State.int st 10 with
  | 0 ->
    Scan { pred = gen_pred st 1; order = gen_order st; ret = gen_ret st }
  | 1 ->
    Join_orders
      { field = pick st [| "OID"; "AMOUNT" |];
        cmp = pick st cmps;
        lit = pick st [| "1002"; "30.0"; "0"; "99999" |] }
  | 2 ->
    let limit_filter = Random.State.bool st in
    Join_cards { limit_filter; whole_card = Random.State.bool st }
  | 3 -> Group_by { key = pick st [| "LAST_NAME"; "FIRST_NAME" |] }
  | 4 ->
    View_filter
      { field = pick st [| "CID"; "LAST_NAME" |];
        cmp = pick st cmps;
        lit = pick st string_lits }
  | 5 ->
    Subseq
      { order = gen_order st;
        start = 1 + Random.State.int st 4;
        len = 1 + Random.State.int st 5 }
  | 6 -> Aggregate { pred = gen_pred st 0 }
  | 7 -> Region_scan { min_pop = Random.State.int st 50000 }
  | 8 -> Async_lets { n = 1 + Random.State.int st 3 }
  | _ -> By_id { lit = pick st string_lits }

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)

let rec shrink_pred = function
  | P_true -> []
  | P_and (a, b) | P_or (a, b) ->
    (a :: b :: List.map (fun a' -> P_and (a', b)) (shrink_pred a))
    @ [ P_true ]
  | _ -> [ P_true ]

let shrink_ret = function R_cid -> [] | _ -> [ R_cid ]
let shrink_order = function O_none -> [] | _ -> [ O_none ]

(* candidates may change the query's shape entirely (a join shrinks
   toward a plain scan): the shrinker keeps only candidates that still
   fail, and [size] strictly decreasing guarantees termination *)
let shrink_candidates q =
  let candidates =
    match q with
    | Scan { pred; order; ret } ->
      List.map (fun p -> Scan { pred = p; order; ret }) (shrink_pred pred)
      @ List.map (fun o -> Scan { pred; order = o; ret }) (shrink_order order)
      @ List.map (fun r -> Scan { pred; order; ret = r }) (shrink_ret ret)
    | Join_orders _ | Join_cards _ | Group_by _ | View_filter _
    | Region_scan _ | By_id _ ->
      [ minimal ]
    | Subseq { order; start; len } ->
      [ minimal ]
      @ List.map (fun o -> Subseq { order = o; start; len })
          (shrink_order order)
      @ (if start > 1 then [ Subseq { order; start = 1; len } ] else [])
      @ if len > 1 then [ Subseq { order; start; len = 1 } ] else []
    | Aggregate { pred } ->
      (minimal :: List.map (fun p -> Aggregate { pred = p }) (shrink_pred pred))
      @ [ Scan { pred; order = O_none; ret = R_cid } ]
    | Async_lets { n } ->
      if n > 1 then [ Async_lets { n = n - 1 } ] else [ minimal ]
  in
  let sz = size q in
  List.filter (fun c -> size c < sz) candidates
