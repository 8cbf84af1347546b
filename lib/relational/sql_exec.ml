open Sql_ast
module V = Sql_value

type result_set = {
  columns : string list;
  rows : V.t array list;
}

exception Sql_error of string

let error fmt = Printf.ksprintf (fun msg -> raise (Sql_error msg)) fmt

(* ------------------------------------------------------------------ *)
(* Compiled statements.

   Each execution of a statement compiles every expression it evaluates
   once, against the sources the expression sees, into a closure over
   the row. A row holds one value array per source bound so far: FROM
   first, then each join in order. A column reference resolves at compile
   time to its (source, column) slot or, in a correlated subquery, to the
   value of the enclosing row: a subquery is compiled each time it is
   evaluated, for the row it is evaluated on. Compiling raises nothing. A
   name that resolves nowhere, or an unbound parameter, compiles to a
   closure that raises when a row is evaluated: a statement over no rows
   raises no such error. *)

type row = V.t array array

(* One statement execution: its database, its bound parameters and its
   access-path log, newest first. *)
type stmt = { db : Database.t; params : V.t array; decisions : string list ref }

(* What an expression is compiled against: its select's sources bound at
   that point, by slot (alias and column names), and for a subquery the
   enclosing scope with the row it is evaluated on. *)
type scope = {
  st : stmt;
  locals : (string * string array) array;
  outer : (scope * row) option;
}

(* A compiled expression: its value on a row, given the members of the
   row's group (read only by the aggregates of a grouped clause). *)
type compiled = row -> row list -> V.t

(* How a clause sees aggregates: not at all (WHERE, ON, GROUP BY keys,
   aggregate arguments, DML), over its row alone (the clauses of a select
   that does not group), or over the members of its group. *)
type grouping = Ungrouped | Single | Grouped

(* A statement-constant IN list hashed once per execution: the non-NULL
   items bucketed by the hash of their key part ({!Index.hash_value}:
   numerics by float image), each bucket confirmed with the SQL
   comparison, so Int 2^53 and 2^53+1 share a bucket and still compare
   unequal. *)
type in_set = { buckets : V.t list array; has_null : bool }

let decide st fmt =
  Printf.ksprintf (fun line -> st.decisions := line :: !(st.decisions)) fmt

let alias_of = function Table { alias; _ } | Derived { alias; _ } -> alias

let column_names t =
  Array.of_list (List.map (fun c -> c.Table.col_name) t.Table.columns)

let position cols name = Array.find_index (String.equal name) cols

(* The slot and column a name reads among [locals]: the latest-joined
   source first, as a joined row binds them; a qualified name skips the
   sources of other aliases and those of its alias that lack the
   column. *)
let resolve locals alias name =
  let rec go slot =
    if slot < 0 then None
    else
      let a, cols = locals.(slot) in
      let here =
        match alias with
        | Some a' when not (String.equal a a') -> None
        | _ -> position cols name
      in
      match here with Some i -> Some (slot, i) | None -> go (slot - 1)
  in
  go (Array.length locals - 1)

(* A name read from the enclosing selects, innermost first. *)
let rec outer_value sc alias name =
  match sc.outer with
  | None -> None
  | Some (up, row) -> (
    match resolve up.locals alias name with
    | Some (slot, i) -> Some row.(slot).(i)
    | None -> outer_value up alias name)

(* A row extended by one more source. *)
let extend (row : row) values =
  let n = Array.length row in
  let r = Array.make (n + 1) values in
  Array.blit row 0 r 0 n;
  r

let truth_to_value = function
  | V.True -> V.Bool true
  | V.False -> V.Bool false
  | V.Unknown -> V.Null

let value_to_truth = function
  | V.Null -> V.Unknown
  | V.Bool true -> V.True
  | V.Bool false -> V.False
  | V.Int 0 -> V.False
  | V.Int _ -> V.True
  | v -> error "expected a boolean, got %s" (V.to_string v)

let numeric_binop op a b =
  match (a, b) with
  | V.Null, _ | _, V.Null -> V.Null
  | V.Int x, V.Int y -> (
    match op with
    | Add -> V.Int (x + y)
    | Sub -> V.Int (x - y)
    | Mul -> V.Int (x * y)
    | Div -> if y = 0 then error "division by zero" else V.Int (x / y)
    | _ -> assert false)
  | _ ->
    let as_f = function
      | V.Int i -> float_of_int i
      | V.Float f -> f
      | V.Timestamp f -> f
      | v -> error "arithmetic on non-numeric %s" (V.to_string v)
    in
    let x = as_f a and y = as_f b in
    let r =
      match op with
      | Add -> x +. y
      | Sub -> x -. y
      | Mul -> x *. y
      | Div -> if y = 0. then error "division by zero" else x /. y
      | _ -> assert false
    in
    V.Float r

let like_match pattern text =
  (* SQL LIKE: '%' = any run, '_' = any single char. *)
  let np = String.length pattern and nt = String.length text in
  let rec go pi ti =
    if pi = np then ti = nt
    else
      match pattern.[pi] with
      | '%' ->
        let rec try_from t = t <= nt && (go (pi + 1) t || try_from (t + 1)) in
        try_from ti
      | '_' -> ti < nt && go (pi + 1) (ti + 1)
      | c -> ti < nt && text.[ti] = c && go (pi + 1) (ti + 1)
  in
  go 0 0

(* ------------------------------------------------------------------ *)
(* Access-path analysis.

   The executor may replace a scan by an index probe, or a nested-loop
   join by a hash/index join, only when the substitution is
   undetectable: identical result rows in identical order AND identical
   error behaviour. The differential oracle (lib/check) compares indexed
   vs scan execution byte-for-byte including error strings, so the
   analysis below is deliberately conservative — an expression whose
   evaluation could raise on rows the fast path would skip ("not total")
   disqualifies the optimization. Outer references are constant for the
   whole select, so they are checked against the enclosing rows. *)

(* One FROM/JOIN source as the analysis sees it. *)
type src = {
  s_alias : string;
  s_cols : string list;
  s_table : Table.t option;  (* None for derived tables *)
}

type colclass =
  | C_local of src  (* resolves to this source's column *)
  | C_ambiguous  (* unqualified name matching several sources *)
  | C_missing  (* qualified by a local alias, column absent: errors *)
  | C_outer  (* resolves (or fails) in an enclosing scope *)

let table_src alias t =
  { s_alias = alias;
    s_cols = List.map (fun c -> c.Table.col_name) t.Table.columns;
    s_table = Some t }

(* The select's sources in order (FROM first, then joins), or [None] when
   analysis cannot be trusted: unknown table, duplicate aliases, or a
   derived table whose projection list still contains a star. *)
let sources_of st s =
  let of_ref = function
    | Table { table; alias } -> (
      match Database.find_table st.db table with
      | Ok t -> Some (table_src alias t)
      | Error _ -> None)
    | Derived { query; alias } ->
      let cols = List.map snd query.projections in
      if List.mem "*" cols then None
      else Some { s_alias = alias; s_cols = cols; s_table = None }
  in
  let rec build acc = function
    | [] -> Some (List.rev acc)
    | r :: rest -> (
      match of_ref r with Some s -> build (s :: acc) rest | None -> None)
  in
  match build [] (s.from :: List.map (fun j -> j.jtable) s.joins) with
  | None -> None
  | Some srcs ->
    let aliases = List.map (fun s -> s.s_alias) srcs in
    if List.length (List.sort_uniq String.compare aliases) <> List.length aliases
    then None
    else Some srcs

let classify srcs alias name =
  match alias with
  | Some a -> (
    match List.find_opt (fun s -> String.equal s.s_alias a) srcs with
    | Some src -> if List.mem name src.s_cols then C_local src else C_missing
    | None -> C_outer)
  | None -> (
    match List.filter (fun s -> List.mem name s.s_cols) srcs with
    | [ src ] -> C_local src
    | [] -> C_outer
    | _ -> C_ambiguous)

(* [total_value]: evaluation cannot raise, in value position. Everything
   not listed (arithmetic, LIKE, functions, CASE, subqueries, aggregates)
   is treated as potentially raising. *)
let rec total_value sc srcs e =
  match e with
  | Lit _ -> true
  | Param i -> i >= 1 && i <= Array.length sc.st.params
  | Col (alias, name) -> (
    match classify srcs alias name with
    | C_local _ | C_ambiguous -> true
    | C_missing -> false
    | C_outer -> outer_value sc alias name <> None)
  | Binop ((Eq | Neq | Lt | Le | Gt | Ge | Concat), a, b) ->
    total_value sc srcs a && total_value sc srcs b
  | Binop ((And | Or), a, b) -> total_truth sc srcs a && total_truth sc srcs b
  | Not a -> total_truth sc srcs a
  | Is_null a | Is_not_null a -> total_value sc srcs a
  | In_list (a, items) ->
    total_value sc srcs a && List.for_all (total_value sc srcs) items
  | _ -> false

(* [total_truth]: additionally, [value_to_truth] of the result cannot
   raise — the value is known to be boolean-ish (Bool/Int/Null). *)
and total_truth sc srcs e =
  match e with
  | Binop ((Eq | Neq | Lt | Le | Gt | Ge | And | Or), _, _)
  | Not _ | Is_null _ | Is_not_null _ | In_list _ ->
    total_value sc srcs e
  | Lit (V.Bool _ | V.Null | V.Int _) -> true
  | Col (alias, name) -> (
    match classify srcs alias name with
    | C_local { s_table = Some t; _ } -> (
      match Table.column_type t name with
      | Some (Table.T_boolean | Table.T_int) -> true
      | _ -> false)
    | C_local _ | C_ambiguous | C_missing -> false
    | C_outer -> (
      match outer_value sc alias name with
      | Some (V.Null | V.Bool _ | V.Int _) -> true
      | _ -> false))
  | Param i ->
    i >= 1
    && i <= Array.length sc.st.params
    && (match sc.st.params.(i - 1) with
       | V.Null | V.Bool _ | V.Int _ -> true
       | _ -> false)
  | _ -> false

(* A probe key expression: total and constant across the scanned rows
   (no reference to any of this select's own sources). Covers the PP-k
   parameter shape (literals/params) and outer-correlated columns. *)
let probe_value_ok sc srcs e =
  match e with
  | Lit _ -> true
  | Param i -> i >= 1 && i <= Array.length sc.st.params
  | Col (alias, name) -> (
    match classify srcs alias name with
    | C_outer -> outer_value sc alias name <> None
    | _ -> false)
  | _ -> false

(* A probe key's value, where [probe_value_ok] holds: it cannot raise. *)
let probe_value sc = function
  | Lit v -> v
  | Param i -> sc.st.params.(i - 1)
  | Col (alias, name) -> Option.get (outer_value sc alias name)
  | _ -> assert false

let rec conjuncts e =
  match e with Binop (And, a, b) -> conjuncts a @ conjuncts b | e -> [ e ]

let rec disjuncts e =
  match e with Binop (Or, a, b) -> disjuncts a @ disjuncts b | e -> [ e ]

let base_col srcs base e =
  match e with
  | Col (alias, name) -> (
    match classify srcs alias name with
    | C_local src when src == base -> Some name
    | _ -> None)
  | _ -> None

(* The (column, value) pairs of [e]'s [column = value] conjuncts whose
   column is [base]'s and whose value [value_ok] accepts. *)
let eq_pairs srcs base value_ok e =
  List.filter_map
    (function
      | Binop (Eq, a, b) -> (
        match base_col srcs base a with
        | Some n when value_ok b -> Some (n, b)
        | _ -> (
          match base_col srcs base b with
          | Some n when value_ok a -> Some (n, a)
          | _ -> None))
      | _ -> None)
    (conjuncts e)

(* The index of [t] that equalities on [cols] probe: of those whose
   columns are all in [cols], the one with most columns, a unique one on
   a tie. *)
let best_index t cols =
  let len i = List.length (Index.columns i) in
  let better idx b =
    len idx > len b
    || (len idx = len b && Index.unique idx && not (Index.unique b))
  in
  List.fold_left
    (fun acc idx ->
      if not (List.for_all (fun c -> List.mem c cols) (Index.columns idx))
      then acc
      else match acc with Some b when not (better idx b) -> acc | _ -> Some idx)
    None (Table.indexes t)

(* One OR-arm of a probe conjunct reduced to equality alternatives: the
   arm can only be True when, for some alternative, all its (column =
   value) equalities hold. IN-lists expand to one alternative per item;
   a conjunctive arm contributes its equality conjuncts. *)
let arm_alternatives sc srcs base arm =
  match arm with
  | In_list (col, items)
    when base_col srcs base col <> None
         && List.for_all (probe_value_ok sc srcs) items ->
    let name = Option.get (base_col srcs base col) in
    Some (List.map (fun item -> [ (name, item) ]) items)
  | _ ->
    let pairs = eq_pairs srcs base (probe_value_ok sc srcs) arm in
    if pairs = [] then None else Some [ pairs ]

(* The index and the probe keys' values implied by [where] for the base
   table, if some top-level conjunct is a disjunction of equality
   alternatives covering an index. Soundness: every row on which [where]
   could evaluate to True carries one of the returned keys. *)
let probe_plan sc srcs base where =
  match base.s_table with
  | None -> None
  | Some table ->
    if Table.indexes table = [] then None
    else
      let try_conjunct conj =
        let arms = List.map (arm_alternatives sc srcs base) (disjuncts conj) in
        if List.exists Option.is_none arms then None
        else
          let alts = List.concat_map Option.get arms in
          if alts = [] || List.length alts > 4096 then None
          else
            let common =
              match alts with
              | [] -> []
              | first :: rest ->
                List.filter_map
                  (fun (n, _) ->
                    if List.for_all (fun alt -> List.mem_assoc n alt) rest
                    then Some n
                    else None)
                  first
            in
            match best_index table common with
            | None -> None
            | Some idx ->
              let cols = Array.of_list (Index.columns idx) in
              Some
                ( idx,
                  List.map
                    (fun alt ->
                      Array.map (fun c -> probe_value sc (List.assoc c alt)) cols)
                    alts )
      in
      List.find_map try_conjunct (conjuncts where)

let take n xs =
  let rec go n = function
    | x :: rest when n > 0 -> x :: go (n - 1) rest
    | _ -> []
  in
  go n xs

let param st i =
  if i < 1 || i > Array.length st.params then
    error "parameter ?%d not bound" i
  else st.params.(i - 1)

let in_bucket buckets v = Index.hash_value v mod Array.length buckets

(* The set of a statement-constant IN list, built on the first non-NULL
   probe value, so a NULL probe still evaluates no item and an unbound
   parameter raises where the linear evaluation would. *)
let in_set st items =
  lazy
    (let vs =
       List.map
         (function Param i -> param st i | Lit v -> v | _ -> assert false)
         items
     in
     let buckets = Array.make (2 * List.length vs + 1) [] in
     List.iter
       (fun v ->
         if not (V.is_null v) then
           let b = in_bucket buckets v in
           buckets.(b) <- v :: buckets.(b))
       vs;
     { buckets; has_null = List.exists V.is_null vs })

(* [v] is not NULL, so [V.equal] is the SQL comparison's True. *)
let rec in_bucket_mem v = function
  | [] -> false
  | x :: rest -> V.equal v x || in_bucket_mem v rest

let in_set_mem set v =
  if in_bucket_mem v set.buckets.(in_bucket set.buckets v) then V.Bool true
  else if set.has_null then V.Null
  else V.Bool false

let in_values v vs =
  if List.exists (fun x -> V.truth_of_comparison (( = ) 0) v x = V.True) vs
  then V.Bool true
  else if List.exists V.is_null vs then V.Null
  else V.Bool false

let eval_func f args =
  if f <> Coalesce && List.exists V.is_null args then V.Null
  else
    match (f, args) with
    | Upper, [ V.Str s ] -> V.Str (String.uppercase_ascii s)
    | Lower, [ V.Str s ] -> V.Str (String.lowercase_ascii s)
    | Substr, [ V.Str s; V.Int start ] ->
      let start = max 1 start in
      if start > String.length s then V.Str ""
      else V.Str (String.sub s (start - 1) (String.length s - start + 1))
    | Substr, [ V.Str s; V.Int start; V.Int len ] ->
      let start = max 1 start in
      if start > String.length s || len <= 0 then V.Str ""
      else
        let len = min len (String.length s - start + 1) in
        V.Str (String.sub s (start - 1) len)
    | Char_length, [ V.Str s ] -> V.Int (String.length s)
    | Abs, [ V.Int i ] -> V.Int (abs i)
    | Abs, [ V.Float f ] -> V.Float (Float.abs f)
    | Coalesce, args -> (
      match List.find_opt (fun v -> not (V.is_null v)) args with
      | Some v -> v
      | None -> V.Null)
    | Trim, [ V.Str s ] -> V.Str (String.trim s)
    | Modulo, [ V.Int x; V.Int y ] ->
      if y = 0 then error "modulo by zero" else V.Int (x mod y)
    | _ -> error "bad arguments to SQL function"

(* The value stored with the first entry of [tbl] whose values equal
   [values], column by column under [V.equal]; when there is none,
   [values] is added with [fresh ()] and the result is [None]. Equal
   values share a key image ({!Index.key_of_values}), but so may values
   that differ (2^53 and 2^53 + 1), so a bucket keeps its entries in the
   order they were added and re-checks each. [V.equal] is not transitive
   across Int and Float, so the first match wins. *)
let find_or_add tbl values fresh =
  let key = Index.key_of_values values in
  let bucket = Option.value (Index.Key_tbl.find_opt tbl key) ~default:[] in
  match
    List.find_opt (fun (vs, _) -> Array.for_all2 V.equal vs values) bucket
  with
  | Some (_, x) -> Some x
  | None ->
    Index.Key_tbl.replace tbl key (bucket @ [ (values, fresh ()) ]);
    None

(* An aggregate over the non-NULL values of its argument. *)
let aggregate kind quantifier values =
  let values =
    match quantifier with
    | All -> values
    | Distinct_agg ->
      let seen = Index.Key_tbl.create 16 in
      List.filter (fun v -> find_or_add seen [| v |] ignore = None) values
  in
  match kind with
  | Count -> V.Int (List.length values)
  | Min ->
    List.fold_left
      (fun acc v ->
        match acc with
        | V.Null -> v
        | _ -> if V.compare_sql v acc = Some (-1) then v else acc)
      V.Null values
  | Max ->
    List.fold_left
      (fun acc v ->
        match acc with
        | V.Null -> v
        | _ -> if V.compare_sql v acc = Some 1 then v else acc)
      V.Null values
  | Sum | Avg -> (
    if values = [] then V.Null
    else
      let total =
        List.fold_left (fun acc v -> numeric_binop Add acc v) (V.Int 0) values
      in
      match kind with
      | Sum -> total
      | Avg -> numeric_binop Div total (V.Float (float_of_int (List.length values)))
      | _ -> assert false)

let comparison = function
  | Eq -> fun c -> c = 0
  | Neq -> fun c -> c <> 0
  | Lt -> fun c -> c < 0
  | Le -> fun c -> c <= 0
  | Gt -> fun c -> c > 0
  | Ge -> fun c -> c >= 0
  | _ -> assert false

let fails msg : compiled = fun _ _ -> raise (Sql_error msg)
let const v : compiled = fun _ _ -> v

(* The columns [SELECT *] expands a source to: a table's schema, a
   derived table's projection names, its own star expanded. *)
let rec declared_columns st = function
  | Table { table; _ } -> (
    match Database.find_table st.db table with
    | Error msg -> error "%s" msg
    | Ok t -> Array.to_list (column_names t))
  | Derived { query; _ } -> List.map snd (expand_star st query).projections

(* [SELECT *] expansion: replace a star projection with one column per
   column of every FROM/JOIN source, qualified by alias. *)
and expand_star st s =
  let is_star = function Col (None, "*"), _ -> true | _ -> false in
  if not (List.exists is_star s.projections) then s
  else
    let refs = s.from :: List.map (fun j -> j.jtable) s.joins in
    let expanded =
      List.concat_map
        (fun ref_ ->
          let alias = alias_of ref_ in
          List.map (fun c -> (Col (Some alias, c), c)) (declared_columns st ref_))
        refs
    in
    let projections =
      List.concat_map
        (fun p -> if is_star p then expanded else [ p ])
        s.projections
    in
    { s with projections }

let rec has_agg = function
  | Count_star | Agg _ -> true
  | Binop (_, a, b) -> has_agg a || has_agg b
  | Not e | Is_null e | Is_not_null e -> has_agg e
  | Case (branches, default) ->
    List.exists (fun (c, v) -> has_agg c || has_agg v) branches
    || Option.fold ~none:false ~some:has_agg default
  | Func (_, args) -> List.exists has_agg args
  | In_list (e, es) -> has_agg e || List.exists has_agg es
  | Col _ | Lit _ | Param _ | In_select _ | Exists _ | Not_exists _
  | Scalar_select _ ->
    false

(* A base table's rows, accounted and logged as one full scan. *)
let scan_table st t alias =
  let ids, rows = Table.scan t in
  Database.record_operator st.db (fun stats ->
      stats.Database.full_scans <- stats.Database.full_scans + 1;
      stats.Database.rows_scanned <-
        stats.Database.rows_scanned + Array.length rows);
  decide st "scan %s as %s (%d rows)" t.Table.table_name alias
    (Array.length rows);
  (ids, rows)

(* The rows of base table [t] that [where] may select, with their ids,
   ascending: the candidates of an index probe when [where] implies one,
   otherwise the counted full scan. The caller still filters them with
   [where]. A probe needs the WHERE and every join's ON condition to be
   total: the rows it skips could otherwise change the error behaviour.
   [srcs] are the statement's sources, [t] first; [sc] is its scope
   before any source is bound. SELECT reads its FROM table through this,
   and UPDATE and DELETE their target. *)
let table_rows sc srcs t alias where joins =
  let probe =
    match (srcs, where) with
    | Some (base :: _ as srcs), Some where
      when total_truth sc srcs where
           && List.for_all2
                (* join ON conditions see only the sources bound so far *)
                (fun j n -> total_truth sc (take (n + 2) srcs) j.on_condition)
                joins
                (List.mapi (fun i _ -> i) joins) ->
      probe_plan sc srcs base where
    | _ -> None
  in
  match probe with
  | None -> scan_table sc.st t alias
  | Some (idx, key_values) ->
    let keys = List.length key_values in
    let ids, rows = Table.probe_rows t idx key_values in
    Database.record_operator sc.st.db (fun stats ->
        stats.Database.index_lookups <- stats.Database.index_lookups + keys;
        stats.Database.index_rows <-
          stats.Database.index_rows + Array.length ids);
    decide sc.st "index probe %s.%s [%s] keys=%d rows=%d" t.Table.table_name
      (Index.name idx)
      (String.concat "," (Index.columns idx))
      keys (Array.length ids);
    (ids, rows)

(* The rows that [keep] selects, lazily and in order. Each passes
   through one scratch row, and [f i row] makes the element of the
   [i]th: a row [keep] drops allocates nothing. *)
let filtered keep rows f =
  let n = Array.length rows in
  let row = [| [||] |] in
  let rec next i () =
    if i >= n then Seq.Nil
    else begin
      row.(0) <- rows.(i);
      if keep row then Seq.Cons (f i row, next (i + 1)) else next (i + 1) ()
    end
  in
  next 0

(* The rows that equal no earlier row, lazily. *)
let distinct rows =
  let seen = Index.Key_tbl.create 64 in
  Seq.filter (fun row -> find_or_add seen row ignore = None) rows

(* Rows [start] to [start + count - 1] of [rows], counted from 1, lazily:
   a start below 1 still counts from 1, and no row after the last is
   forced. *)
let window_rows { start; count } rows =
  let rows = Seq.drop (max 0 (start - 1)) rows in
  match count with
  | None -> rows
  | Some n -> Seq.take (max 0 (n + min 0 (start - 1))) rows

(* ------------------------------------------------------------------ *)

(* Operands evaluate right to left, except the pairs of || and LIKE,
   left to right: the order decides which of two failing operands
   raises, so it is part of the engine's error behaviour.
   [sets]: the expression sits in a WHERE's AND/OR/NOT structure, where
   an IN list of literals and parameters is hashed once per execution. *)
let rec compile ?(sets = false) sc grouping e : compiled =
  let c e = compile sc grouping e in
  match e with
  | Col (alias, name) -> (
    match resolve sc.locals alias name with
    | Some (slot, i) -> fun row _ -> row.(slot).(i)
    | None -> (
      match outer_value sc alias name with
      | Some v -> const v
      | None ->
        fails
          (Printf.sprintf "unknown column %s%s"
             (match alias with Some a -> a ^ "." | None -> "")
             name)))
  | Lit v -> const v
  | Param i -> (
    match param sc.st i with v -> const v | exception Sql_error msg -> fails msg)
  | Binop (((And | Or) as op), a, b) ->
    let a = compile ~sets sc grouping a and b = compile ~sets sc grouping b in
    let combine = if op = And then V.and_ else V.or_ in
    fun row g ->
      let tb = value_to_truth (b row g) in
      truth_to_value (combine (value_to_truth (a row g)) tb)
  | Binop (((Eq | Neq | Lt | Le | Gt | Ge) as op), a, b) ->
    let pred = comparison op and a = c a and b = c b in
    fun row g ->
      let y = b row g in
      truth_to_value (V.truth_of_comparison pred (a row g) y)
  | Binop (((Add | Sub | Mul | Div) as op), a, b) ->
    let a = c a and b = c b in
    fun row g ->
      let y = b row g in
      numeric_binop op (a row g) y
  | Binop (Concat, a, b) -> (
    let a = c a and b = c b in
    fun row g ->
      match (a row g, b row g) with
      | V.Null, _ | _, V.Null -> V.Null
      | x, y ->
        let plain = function V.Str s -> s | v -> V.to_string v in
        V.Str (plain x ^ plain y))
  | Binop (Like, a, b) -> (
    let a = c a and b = c b in
    fun row g ->
      match (a row g, b row g) with
      | V.Null, _ | _, V.Null -> V.Null
      | V.Str text, V.Str pattern -> V.Bool (like_match pattern text)
      | _ -> error "LIKE requires string operands")
  | Not e ->
    let e = compile ~sets sc grouping e in
    fun row g -> truth_to_value (V.not_ (value_to_truth (e row g)))
  | Is_null e ->
    let e = c e in
    fun row g -> V.Bool (V.is_null (e row g))
  | Is_not_null e ->
    let e = c e in
    fun row g -> V.Bool (not (V.is_null (e row g)))
  | In_list (probe, items)
    when sets && List.for_all (function Lit _ | Param _ -> true | _ -> false) items
    ->
    let probe = c probe and set = in_set sc.st items in
    fun row g ->
      let v = probe row g in
      if V.is_null v then V.Null else in_set_mem (Lazy.force set) v
  | In_list (probe, items) ->
    let probe = c probe and items = List.map c items in
    fun row g ->
      let v = probe row g in
      if V.is_null v then V.Null
      else in_values v (List.map (fun item -> item row g) items)
  | In_select (e, s) ->
    let e = c e in
    fun row g ->
      let v = e row g in
      if V.is_null v then V.Null
      else
        let result = run_select sc.st (Some (sc, row)) s in
        in_values v (List.map (fun r -> r.(0)) result.rows)
  | Exists s ->
    fun row _ -> V.Bool ((run_select sc.st (Some (sc, row)) s).rows <> [])
  | Not_exists s ->
    fun row _ -> V.Bool ((run_select sc.st (Some (sc, row)) s).rows = [])
  | Scalar_select s -> (
    fun row _ ->
      match (run_select sc.st (Some (sc, row)) s).rows with
      | [] -> V.Null
      | [ r ] -> r.(0)
      | _ :: _ :: _ -> error "scalar subquery returned more than one row")
  | Case (branches, default) ->
    let branches = List.map (fun (cond, value) -> (c cond, c value)) branches in
    let default = Option.map c default in
    fun row g ->
      let rec try_branches = function
        | [] -> ( match default with Some d -> d row g | None -> V.Null)
        | (cond, value) :: rest -> (
          match value_to_truth (cond row g) with
          | V.True -> value row g
          | V.False | V.Unknown -> try_branches rest)
      in
      try_branches branches
  | Func (f, args) ->
    let args = List.map c args in
    fun row g -> eval_func f (List.map (fun a -> a row g) args)
  | Count_star -> (
    match grouping with
    | Ungrouped -> fails "COUNT(*) outside a grouped query"
    | Single -> const (V.Int 1)
    | Grouped -> fun _ g -> V.Int (List.length g))
  | Agg _ when grouping = Ungrouped -> fails "aggregate outside a grouped query"
  | Agg (kind, quantifier, arg) -> (
    let arg = compile sc Ungrouped arg in
    let non_null m = let v = arg m [] in if V.is_null v then None else Some v in
    match grouping with
    | Single ->
      fun row _ -> aggregate kind quantifier (Option.to_list (non_null row))
    | Grouped | Ungrouped ->
      fun _ g -> aggregate kind quantifier (List.filter_map non_null g))

(* The rows on which a condition holds. *)
and selects ?sets sc = function
  | None -> fun _ -> true
  | Some cond ->
    let cond = compile ?sets sc Ungrouped cond in
    fun row -> value_to_truth (cond row []) = V.True

(* A FROM or JOIN source's columns and rows. A base table is read from
   one snapshot; a derived table runs its select, which sees the same
   enclosing rows as the select it feeds. *)
and scan_source st outer ref_ : string array * V.t array array =
  match ref_ with
  | Table { table; alias } -> (
    match Database.find_table st.db table with
    | Error msg -> error "%s" msg
    | Ok t ->
      let _, rows = scan_table st t alias in
      (column_names t, rows))
  | Derived { query; _ } ->
    let result = run_select st outer query in
    (Array.of_list result.columns, Array.of_list result.rows)

(* The FROM source's columns and rows: a base table's through
   [table_rows], a derived table's by running its select. *)
and scan_from sc srcs s =
  match s.from with
  | Table { table; alias } -> (
    match Database.find_table sc.st.db table with
    | Error msg -> error "%s" msg
    | Ok t ->
      let _, rows = table_rows sc srcs t alias s.where s.joins in
      (column_names t, rows))
  | Derived _ -> scan_source sc.st sc.outer s.from

(* Join algorithm selection. [srcs] is the prefix of sources visible to
   this join (base, earlier joins, then this join's source last). The
   candidate-generating paths re-evaluate the full ON condition on every
   candidate pair, so they agree with the nested loop exactly; they
   require the ON condition to be total because the nested loop also
   evaluates it on the pairs they skip. [sc] is the scope of the left
   rows; returns the scope and rows with the joined source added. *)
and apply_join sc srcs left_rows join =
  let st = sc.st in
  let bump f = Database.record_operator st.db f in
  let jalias = alias_of join.jtable in
  let width = Array.length sc.locals in
  let joined cols =
    { sc with locals = Array.append sc.locals [| (jalias, cols) |] }
  in
  (* the ON condition over a left row and each candidate, evaluated on
     one scratch row per left row; a match is copied out *)
  let matcher jsc =
    let on = selects jsc (Some join.on_condition) in
    fun left ->
      let scratch = extend left [||] in
      fun right ->
        scratch.(width) <- right;
        if on scratch then Some (Array.copy scratch) else None
  in
  let filter_in_order test candidates =
    List.rev
      (Array.fold_left
         (fun acc r -> match test r with Some m -> m :: acc | None -> acc)
         [] candidates)
  in
  let nested_loop () =
    bump (fun stats -> stats.Database.nl_joins <- stats.Database.nl_joins + 1);
    decide st "nested-loop join %s" jalias;
    let cols, right_rows = scan_source st sc.outer join.jtable in
    let jsc = joined cols in
    let on = matcher jsc in
    (jsc, join_shape join cols (fun left -> filter_in_order (on left) right_rows) left_rows)
  in
  let equi =
    match srcs with
    | None -> None
    | Some srcs ->
      if not (total_truth sc srcs join.on_condition) then None
      else
        let jsrc =
          List.find_opt (fun s -> String.equal s.s_alias jalias) srcs
        in
        Option.bind jsrc (fun jsrc ->
            (* a left key: total, constant w.r.t. the joined source, and
               evaluable against the left row alone *)
            let left_ok e =
              match e with
              | Lit _ -> true
              | Param i -> i >= 1 && i <= Array.length st.params
              | Col (alias, name) -> (
                match classify srcs alias name with
                | C_local src -> src != jsrc
                | C_ambiguous | C_missing -> false
                | C_outer -> outer_value sc alias name <> None)
              | _ -> false
            in
            let pairs = eq_pairs srcs jsrc left_ok join.on_condition in
            if pairs = [] then None else Some (jsrc, pairs))
  in
  let left_keys exprs =
    let keys = List.map (compile sc Ungrouped) exprs in
    fun left -> Array.of_list (List.map (fun k -> k left []) keys)
  in
  match equi with
  | None -> nested_loop ()
  | Some (jsrc, pairs) -> (
    let right_cols = List.map fst pairs in
    let index =
      Option.bind jsrc.s_table (fun t ->
          Option.map (fun idx -> (t, idx)) (best_index t right_cols))
    in
    match index with
    | Some (t, idx) ->
      (* index nested loop: probe the right table per left row *)
      bump (fun stats ->
          stats.Database.index_joins <- stats.Database.index_joins + 1);
      decide st "index-nl join %s via %s.%s" jalias t.Table.table_name
        (Index.name idx);
      let cols = column_names t in
      let jsc = joined cols in
      let keys = left_keys (List.map (fun c -> List.assoc c pairs) (Index.columns idx)) in
      let on = matcher jsc in
      let matches left =
        let _, rows = Table.probe_rows t idx [ keys left ] in
        bump (fun stats ->
            stats.Database.index_lookups <- stats.Database.index_lookups + 1;
            stats.Database.index_rows <-
              stats.Database.index_rows + Array.length rows);
        filter_in_order (on left) rows
      in
      (jsc, join_shape join cols matches left_rows)
    | None ->
      (* hash equi-join: build once over the right side, probe per left
         row; buckets keep right-scan order *)
      bump (fun stats ->
          stats.Database.hash_joins <- stats.Database.hash_joins + 1);
      decide st "hash join %s on [%s]" jalias (String.concat "," right_cols);
      let cols, right_rows = scan_source st sc.outer join.jtable in
      let jsc = joined cols in
      let keys = left_keys (List.map snd pairs) in
      let positions = List.map (position cols) right_cols in
      let tbl = Index.Key_tbl.create 256 in
      Array.iter
        (fun right ->
          let values =
            Array.of_list
              (List.map
                 (function Some i -> right.(i) | None -> V.Null)
                 positions)
          in
          if not (Array.exists V.is_null values) then
            let key = Index.key_of_values values in
            match Index.Key_tbl.find_opt tbl key with
            | Some bucket -> bucket := right :: !bucket
            | None -> Index.Key_tbl.add tbl key (ref [ right ]))
        right_rows;
      Index.Key_tbl.iter (fun _ bucket -> bucket := List.rev !bucket) tbl;
      let on = matcher jsc in
      let matches left =
        let values = keys left in
        if Array.exists V.is_null values then []
        else
          match Index.Key_tbl.find_opt tbl (Index.key_of_values values) with
          | None -> []
          | Some bucket -> List.filter_map (on left) !bucket
      in
      (jsc, join_shape join cols matches left_rows))

and join_shape join cols matches left_rows =
  match join.jkind with
  | Inner -> List.concat_map matches left_rows
  | Left_outer ->
    let null_right = Array.make (Array.length cols) V.Null in
    List.concat_map
      (fun left ->
        match matches left with
        | [] -> [ extend left null_right ]
        | found -> found)
      left_rows

(* The SELECT pipeline. Scans, joins, WHERE, grouping, HAVING and ORDER
   BY run when the statement opens: they are pipeline breakers or
   access-path decisions that must land before the plan is read. What
   follows ORDER BY is one lazy chain, forced row by row as a cursor
   fetches: the projection, then DISTINCT, then the window, which forces
   no row after its last. A select that only filters its FROM source
   (no join, grouping, HAVING or ORDER BY) is lazy from the scan's
   snapshot or the index probe's candidates on, so a cursor's first
   chunk does not wait for the whole scan. Its filter must be total: one
   that cannot raise yields the rows, order and errors of the eager
   pipeline. *)
and run_select_streamed st outer s : string list * V.t array Seq.t =
  let base = { st; locals = [||]; outer } in
  let s = expand_star st s in
  let srcs = if st.db.Database.use_indexes then sources_of st s else None in
  let from_cols, from_rows = scan_from base srcs s in
  let sc = { base with locals = [| (alias_of s.from, from_cols) |] } in
  let is_aggregate_query =
    s.group_by <> [] || List.exists (fun (e, _) -> has_agg e) s.projections
  in
  let projector sc grouping =
    let ps =
      Array.of_list
        (List.map (fun (e, _) -> compile sc grouping e) s.projections)
    in
    fun row g ->
      let out = Array.make (Array.length ps) V.Null in
      for i = 0 to Array.length ps - 1 do
        out.(i) <- ps.(i) row g
      done;
      out
  in
  let only_filters =
    s.joins = [] && (not is_aggregate_query) && s.having = None
    && s.order_by = []
    &&
    match s.where with
    | None -> true
    | Some w -> (
      match sources_of st s with
      | Some srcs -> total_truth base srcs w
      | None -> false)
  in
  let rows =
    if only_filters then
      let project = projector sc Single in
      filtered (selects ~sets:true sc s.where) from_rows (fun _ row ->
          project row [])
    else begin
      let sc, rows, _ =
        List.fold_left
          (fun (sc, rows, i) j ->
            let prefix = Option.map (take (i + 2)) srcs in
            let sc, rows = apply_join sc prefix rows j in
            (sc, rows, i + 1))
          (sc, Array.fold_right (fun r acc -> [| r |] :: acc) from_rows [], 0)
          s.joins
      in
      let rows = List.filter (selects ~sets:true sc s.where) rows in
      (* Each logical row of the rest of the pipeline is (row, group): for
         grouped queries row is a representative and group holds the
         members; otherwise the clauses see the row alone. *)
      let sc, grouping, logical_rows =
        if not is_aggregate_query then
          (sc, Single, List.map (fun r -> (r, [])) rows)
        else if s.group_by = [] then
          (* implicit single group, even when empty: then no source is bound *)
          match rows with
          | [] -> ({ sc with locals = [||] }, Grouped, [ ([||], []) ])
          | first :: _ -> (sc, Grouped, [ (first, rows) ])
        else begin
          (* groups in order of first appearance *)
          let keys = Array.of_list (List.map (compile sc Ungrouped) s.group_by) in
          let groups = Index.Key_tbl.create 64 and order = ref [] in
          List.iter
            (fun row ->
              let fresh () =
                let members = ref [ row ] in
                order := members :: !order;
                members
              in
              match find_or_add groups (Array.map (fun k -> k row []) keys) fresh with
              | Some members -> members := row :: !members
              | None -> ())
            rows;
          ( sc,
            Grouped,
            List.rev_map
              (fun members ->
                let members = List.rev !members in
                (List.hd members, members))
              !order )
        end
      in
      let logical_rows =
        match s.having with
        | None -> logical_rows
        | Some cond ->
          let cond = compile sc grouping cond in
          List.filter
            (fun (row, g) -> value_to_truth (cond row g) = V.True)
            logical_rows
      in
      let logical_rows =
        if s.order_by = [] then logical_rows
        else
          let sort_keys =
            List.map (fun o -> compile sc grouping o.sort_expr) s.order_by
          in
          let keyed =
            List.map
              (fun ((row, g) as lr) -> (List.map (fun k -> k row g) sort_keys, lr))
              logical_rows
          in
          let cmp (ka, _) (kb, _) =
            let rec go ks1 ks2 os =
              match (ks1, ks2, os) with
              | [], [], [] -> 0
              | k1 :: r1, k2 :: r2, o :: ro -> (
                let c =
                  (* NULLs sort first ascending, mirroring common backends *)
                  match (k1, k2) with
                  | V.Null, V.Null -> 0
                  | V.Null, _ -> -1
                  | _, V.Null -> 1
                  | _ -> Option.value (V.compare_sql k1 k2) ~default:0
                in
                let c = if o.descending then -c else c in
                match c with 0 -> go r1 r2 ro | c -> c)
              | _ -> 0
            in
            go ka kb s.order_by
          in
          List.map snd (List.stable_sort cmp keyed)
      in
      let project = projector sc grouping in
      Seq.map (fun (row, g) -> project row g) (List.to_seq logical_rows)
    end
  in
  let rows = if s.distinct then distinct rows else rows in
  ( List.map snd s.projections,
    match s.window with None -> rows | Some w -> window_rows w rows )

and run_select st outer s : result_set =
  let columns, rows = run_select_streamed st outer s in
  { columns; rows = List.of_seq rows }

(* ------------------------------------------------------------------ *)
(* Cursors: chunked fetch over the same access paths.

   Opening a direct cursor consumes the fault schedule, runs the eager
   part of the pipeline (scans, joins, grouping, ordering — where every
   access-path decision lands) and accounts the single statement
   roundtrip, latency included; fetching then forces the lazy tail
   (projection, DISTINCT, window) a chunk at a time, adding shipped rows
   incrementally. A fully drained
   cursor leaves the database statistics and [last_plan] exactly as the
   materialized [query] would.

   A replay cursor hands out rows that a work-sharing leader already
   drained, in the same chunks. It ships nothing and touches no
   statistics: the leader's statement accounted them.

   One accounting nuance: a projection that errors mid-fetch (a scalar
   subquery dividing by zero, say) has already recorded its statement —
   it genuinely reached the wire — where an all-at-once execution would
   record nothing. This holds under DISTINCT and windows too, whose rows
   are projected as they are fetched; an error in the eager part fails
   the open and records no statement. Both sides of the differential
   oracle share this path, and success paths are byte- and
   counter-identical. *)

type cursor = {
  cur_db : Database.t option;  (* [None] for a replay *)
  cur_shared : bool;
  cur_columns : string list;
  mutable cur_rest : V.t array Seq.t;
  cur_decisions : string list ref;
  mutable cur_done : bool;
}

let default_chunk_rows = 64

let open_direct db params s =
  match Database.apply_fault db with
  | Error msg ->
    (* the statement reached the wire: account the roundtrip *)
    Database.open_statement db ~params:(Array.length params);
    Error msg
  | Ok () -> (
    let st = { db; params; decisions = ref [] } in
    match run_select_streamed st None s with
    | columns, rows ->
      Database.open_statement db ~params:(Array.length params);
      Ok
        { cur_db = Some db;
          cur_shared = false;
          cur_columns = columns;
          cur_rest = rows;
          cur_decisions = st.decisions;
          cur_done = false }
    | exception Sql_error msg ->
      Database.set_last_plan db (List.rev !(st.decisions));
      Error msg)

let replay ~shared (rs, plan) =
  { cur_db = None;
    cur_shared = shared;
    cur_columns = rs.columns;
    cur_rest = List.to_seq rs.rows;
    cur_decisions = ref (List.rev plan);
    cur_done = false }

let cursor_columns cur = cur.cur_columns
let cursor_shared cur = cur.cur_shared

(* Plan lines are complete once the cursor is drained: projection-level
   subqueries may still append decisions while rows are being fetched. *)
let cursor_plan cur = List.rev !(cur.cur_decisions)

let cursor_finish cur =
  cur.cur_done <- true;
  cur.cur_rest <- Seq.empty;
  Option.iter (fun db -> Database.set_last_plan db (cursor_plan cur)) cur.cur_db

let fetch_chunk ?(rows = default_chunk_rows) cur =
  if cur.cur_done then Ok []
  else begin
    let n = max 1 rows in
    let rec take k seq acc =
      if k = 0 then (List.rev acc, seq)
      else
        match seq () with
        | Seq.Nil -> (List.rev acc, Seq.empty)
        | Seq.Cons (row, rest) -> take (k - 1) rest (row :: acc)
    in
    match take n cur.cur_rest [] with
    | chunk, rest ->
      cur.cur_rest <- rest;
      let shipped = List.length chunk in
      Option.iter (fun db -> Database.ship_rows db shipped) cur.cur_db;
      if shipped < n then cursor_finish cur;
      Ok chunk
    | exception Sql_error msg ->
      cursor_finish cur;
      Error msg
  end

(* A direct statement's whole result and plan lines. *)
let drain_direct db params s =
  match open_direct db params s with
  | Error msg -> Error msg
  | Ok cur -> (
    let rec drain acc =
      match fetch_chunk cur with
      | Error msg -> Error msg
      | Ok [] -> Ok (List.rev acc)
      | Ok chunk -> drain (List.rev_append chunk acc)
    in
    match drain [] with
    | Error msg -> Error msg
    | Ok rows -> Ok ({ columns = cursor_columns cur; rows }, cursor_plan cur))

let query db ?(params = [||]) s = Result.map fst (drain_direct db params s)

(* ------------------------------------------------------------------ *)
(* Cross-session work sharing.

   Two mechanisms, both opt-in per database ([share_work]) and both
   keyed on the database's data version, so a DML between two
   readers splits them into different epochs: a reader admitted after
   the write can never join (or be served by) a flight started against
   the pre-write data.

   1. Single-flight coalescing: byte-identical parameterized statements
      issued concurrently execute once; the followers replay the
      leader's result set and account a saved roundtrip.

   2. Batched dispatch: compatible single-key equality probes arriving
      within a short adaptive accumulation window merge into one
      IN-list-shaped roundtrip (the same disjunctive-probe shape PP-k
      ships), executed by the window's leader.

   Sharing never runs while a fault schedule is active: scripted events
   must align with statements one-to-one, and a coalesced statement
   would consume another session's scripted fault. *)

module Singleflight = Aldsp_concurrency.Singleflight
module Cancel = Aldsp_concurrency.Cancel

(* Statement identity: database (by uid — names recur across fuzz
   catalogs), data epoch, and the marshalled (statement, params)
   pair. Sql_ast and Sql_value are pure data, so marshalling is a
   faithful structural fingerprint. *)
let statement_key db params s =
  Printf.sprintf "%d\x00%d\x00%s" db.Database.db_uid
    (Database.data_version db)
    (Marshal.to_string (s, params) [])

let flights : (result_set * string list, string) result Singleflight.t =
  Singleflight.create ()

(* Engine-only execution: runs the statement without roundtrip
   accounting or latency. Work sharing uses it to serve each member of a
   merged batch from the one accounted wire statement. *)
let engine_exec db params s =
  let st = { db; params; decisions = ref [] } in
  match run_select st None s with
  | result ->
    let plan = List.rev !(st.decisions) in
    Database.set_last_plan db plan;
    Ok (result, plan)
  | exception Sql_error msg ->
    Database.set_last_plan db (List.rev !(st.decisions));
    Error msg

let count_saved db ~merged =
  Database.record_operator db (fun st ->
      if merged then st.Database.batch_merges <- st.Database.batch_merges + 1
      else st.Database.coalesced_hits <- st.Database.coalesced_hits + 1;
      st.Database.dedup_roundtrips_saved <-
        st.Database.dedup_roundtrips_saved + 1)

let coalesced_query db params s =
  match
    Singleflight.run flights (statement_key db params s) (fun () ->
        drain_direct db params s)
  with
  | Singleflight.Led r -> Result.map (replay ~shared:false) r
  | Singleflight.Joined r ->
    count_saved db ~merged:false;
    Result.map (replay ~shared:true) r

(* ---- batched single-key dispatch ---------------------------------- *)

(* A batchable probe: one table, no joins, and a WHERE that is a single
   equality between a column and a constant key — the pushed-selection /
   cache-lookup shape. Everything but the key value participates in the
   group identity, so only structurally identical probes merge. *)
let probe_shape params (s : select) =
  match (s.from, s.joins, s.where) with
  | Table _, [], Some (Binop (Eq, (Col _ as keycol), rhs)) -> (
    match rhs with
    | Lit _ when Array.length params = 0 -> Some keycol
    | Param 1 when Array.length params = 1 -> Some keycol
    | _ -> None)
  | _ -> None

let group_key db keycol (s : select) =
  (* the statement with the key value blanked out: members of one group
     differ only in the probe key *)
  let normalized = { s with where = Some (Binop (Eq, keycol, Param 0)) } in
  Printf.sprintf "%d\x00%d\x00batch\x00%s" db.Database.db_uid
    (Database.data_version db)
    (Marshal.to_string normalized [])

(* The most single-key probes merged into one IN-list statement:
   sqrt(latency / row_cost) keys, kept within [5, 50]. The rule balances
   the roundtrip a merge saves against the rows one merged statement
   makes every member wait for; it is this module's own, independent of
   how the cost model sizes PP-k blocks. *)
let batch_cap db =
  let latency, row_cost = Database.cost_profile db in
  let k = int_of_float (Float.sqrt (latency /. Float.max row_cost 1e-9)) in
  max 5 (min 50 k)

let window_floor = 50e-6

let window_cap db = Float.max window_floor (db.Database.roundtrip_latency /. 2.)

type batch_member = {
  bm_select : select;
  bm_params : V.t array;
  mutable bm_outcome : (result_set * string list, string) result option;
}

type batch_group = {
  mutable bg_members : batch_member list;  (* newest first *)
  mutable bg_open : bool;  (* accepting joiners *)
  mutable bg_done : bool;  (* outcomes filled *)
}

let batches : (string, batch_group) Hashtbl.t = Hashtbl.create 16
let batch_mutex = Mutex.create ()
let batch_done = Condition.create ()
let batch_closed = Condition.create ()  (* a member closed its group *)

(* Member side: wait (through {!Cancel.wait}, like every serving-layer
   wait) until the leader fills the outcomes. A member whose token fires
   abandons the batch alone, raising with the lock released; the leader
   serves its slot harmlessly. *)
let await_batch g =
  let tok = Cancel.current () in
  while not g.bg_done do
    Cancel.check_releasing tok batch_mutex;
    Cancel.wait tok batch_mutex batch_done
  done

(* Leader side: hold the window open, then close and execute. The wait
   is on a private window token, not the ambient one, so it is not
   cancellation-aware: it is bounded by half a roundtrip, and the leader
   owes the members a dispatch. The member that fills the group to the
   cost-model cap broadcasts [batch_closed], so the leader dispatches at
   once. *)
let run_batch_leader db gkey g =
  let window = db.Database.batch_window in
  let timer = Cancel.with_deadline window in
  Mutex.lock batch_mutex;
  while g.bg_open && not (Cancel.cancelled timer) do
    Cancel.wait timer batch_mutex batch_closed
  done;
  if g.bg_open then begin
    g.bg_open <- false;
    Hashtbl.remove batches gkey
  end;
  let members = List.rev g.bg_members in
  Mutex.unlock batch_mutex;
  let n = List.length members in
  (* adapt: solo windows shrink towards the floor (don't stall sparse
     traffic), merged windows grow towards half a roundtrip (catch more
     of a burst) *)
  db.Database.batch_window <-
    (if n <= 1 then Float.max window_floor (window /. 2.)
     else Float.min (window_cap db) (Float.max window_floor (window *. 1.5)));
  (match Database.apply_fault db with
  | Error msg ->
    List.iter (fun m -> m.bm_outcome <- Some (Error msg)) members;
    Mutex.lock batch_mutex;
    g.bg_done <- true;
    Condition.broadcast batch_done;
    Mutex.unlock batch_mutex;
    Database.record_statement db ~params:0 ~rows:0
  | Ok () ->
    (* the batch pays one wire statement: each member's probe answered
       from it (engine-level, unaccounted), then a single roundtrip
       recorded with the merged parameter and shipped-row totals — the
       IN-list accounting *)
    List.iter
      (fun m -> m.bm_outcome <- Some (engine_exec db m.bm_params m.bm_select))
      members;
    Mutex.lock batch_mutex;
    g.bg_done <- true;
    Condition.broadcast batch_done;
    Mutex.unlock batch_mutex;
    let rows =
      List.fold_left
        (fun acc m ->
          match m.bm_outcome with
          | Some (Ok (rs, _)) -> acc + List.length rs.rows
          | _ -> acc)
        0 members
    in
    let params =
      List.fold_left
        (fun acc m -> acc + max 1 (Array.length m.bm_params))
        0 members
    in
    Database.record_statement db ~params ~rows)

let batched_probe db params s keycol =
  let gkey = group_key db keycol s in
  let me = { bm_select = s; bm_params = params; bm_outcome = None } in
  Mutex.lock batch_mutex;
  let role =
    match Hashtbl.find_opt batches gkey with
    | Some g when g.bg_open ->
      g.bg_members <- me :: g.bg_members;
      if List.length g.bg_members >= batch_cap db then begin
        (* cost-model cap reached: close the window early *)
        g.bg_open <- false;
        Hashtbl.remove batches gkey;
        Condition.broadcast batch_closed
      end;
      `Member g
    | _ ->
      let g = { bg_members = [ me ]; bg_open = true; bg_done = false } in
      Hashtbl.replace batches gkey g;
      `Leader g
  in
  (match role with
  | `Leader g ->
    Mutex.unlock batch_mutex;
    run_batch_leader db gkey g
  | `Member g ->
    (* if the wait raises (member cancelled), it released the lock
       itself — the exception must skip this unlock *)
    await_batch g;
    Mutex.unlock batch_mutex);
  (* the leader returns, and a member leaves [await_batch], only once
     every outcome is filled — or by raising *)
  match Option.get me.bm_outcome with
  | Ok result ->
    let merged = match role with `Member _ -> true | `Leader _ -> false in
    if merged then count_saved db ~merged:true;
    Ok (replay ~shared:merged result)
  | Error msg -> Error msg

(* The one way a pushed SELECT is read: a direct cursor, or with work
   sharing on a replay of the coalesced or batched execution;
   [cursor_shared] reports a statement served from another session's
   work (the EXPLAIN-level shared= counters). *)
let open_cursor db ?(params = [||]) s =
  if (not db.Database.share_work)
     || Aldsp_concurrency.Fault_schedule.remaining db.Database.faults > 0
  then
    open_direct db params s
  else
    match probe_shape params s with
    | Some keycol when db.Database.roundtrip_latency > 0. ->
      batched_probe db params s keycol
    | _ -> coalesced_query db params s

(* UPDATE and DELETE compile their WHERE (and SET) against the one
   table and read it through the SELECT access path: the rows of an
   index probe when the WHERE implies one, otherwise a full scan. The
   statement's access-path decisions become the database's last plan. *)
let execute_dml db ?(params = [||]) dml =
  match Database.apply_fault db with
  | Error msg ->
    Database.record_statement db ~params:(Array.length params) ~rows:0;
    Error msg
  | Ok () ->
  let st = { db; params; decisions = ref [] } in
  let scope locals = { st; locals; outer = None } in
  let record rows =
    Database.record_statement db ~params:(Array.length params) ~rows
  in
  (* [f id row] of each row of [t] that [where] selects, in id order;
     [row] binds the row's values for compiled clauses *)
  let each_selected t sc where f =
    let table = t.Table.table_name in
    let srcs = if db.Database.use_indexes then Some [ table_src table t ] else None in
    let ids, rows = table_rows sc srcs t table where [] in
    List.of_seq (filtered (selects ~sets:true sc where) rows (fun i row -> f ids.(i) row))
  in
  Fun.protect ~finally:(fun () ->
      Database.set_last_plan db (List.rev !(st.decisions)))
  @@ fun () ->
  match dml with
  | Insert { table; columns; values } -> (
    match Database.find_table db table with
    | Error msg -> Error msg
    | Ok t -> (
      match
        let provided =
          List.map (fun e -> compile (scope [||]) Ungrouped e [||] []) values
        in
        let row =
          Array.of_list
            (List.map
               (fun c ->
                 let rec find cs vs =
                   match (cs, vs) with
                   | [], _ | _, [] -> V.Null
                   | c' :: _, v :: _ when String.equal c' c.Table.col_name -> v
                   | _ :: cs, _ :: vs -> find cs vs
                 in
                 find columns provided)
               t.Table.columns)
        in
        Table.insert t row
      with
      | Ok () ->
        record 1;
        Ok 1
      | Error msg -> Error msg
      | exception Sql_error msg -> Error msg))
  | Update { table; assignments; where } -> (
    match Database.find_table db table with
    | Error msg -> Error msg
    | Ok t -> (
      try
        let sc = scope [| (table, column_names t) |] in
        let assign =
          List.map
            (fun (c, e) ->
              match Table.column_index t c with
              | Some i ->
                let e = compile sc Ungrouped e in
                fun row updated -> updated.(i) <- e row []
              | None ->
                let msg = Printf.sprintf "no column %s in table %s" c table in
                fun _ _ -> raise (Sql_error msg))
            assignments
        in
        (* decide every update first, then apply: an evaluation error
           leaves the table untouched *)
        let updates =
          each_selected t sc where (fun id row ->
              let updated = Array.copy row.(0) in
              List.iter (fun set -> set row updated) assign;
              (id, updated))
        in
        List.iter (fun (id, updated) -> Table.update_row t id updated) updates;
        record (List.length updates);
        Ok (List.length updates)
      with Sql_error msg -> Error msg))
  | Delete { table; where } -> (
    match Database.find_table db table with
    | Error msg -> Error msg
    | Ok t -> (
      try
        let victims =
          each_selected t (scope [| (table, column_names t) |]) where
            (fun id _ -> id)
        in
        List.iter (Table.delete_row t) victims;
        record (List.length victims);
        Ok (List.length victims)
      with Sql_error msg -> Error msg))
