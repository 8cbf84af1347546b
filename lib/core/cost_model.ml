open Aldsp_relational
module C = Cexpr
module Sql = Sql_ast

(* ------------------------------------------------------------------ *)
(* Constants *)

(* Middleware cost of materializing one shipped row, calibrated against
   the PP-k bench sweep: with Total(k) ~ outer*latency/k + outer*beta*k
   the observed optimum (k in the low tens at 0.5 ms latency) pins beta
   near 2 microseconds per row. *)
let row_cost = 2e-6

(* CPU floor of issuing one statement even on a zero-latency source:
   SQL printing, parameter binding, result decoding. *)
let roundtrip_overhead = 5e-5

(* Selectivity of a predicate the model cannot see through. *)
let selection_fraction = 3

type profile = { p_latency : float; p_row_cost : float }

let local_profile = { p_latency = 0.; p_row_cost = row_cost }

let db_profile db =
  let latency, per_row = Database.cost_profile db in
  { p_latency = latency; p_row_cost = per_row }

(* ------------------------------------------------------------------ *)
(* Source resolution *)

let resolve registry fn =
  match Metadata.resolve_call registry fn 0 with
  | Some fd -> Some fd
  | None -> Metadata.resolve_call registry fn 1

let source_profile registry fn =
  match resolve registry fn with
  | Some { Metadata.fd_impl = Metadata.External src; _ } -> (
    match src with
    | Metadata.Relational_table { db; _ } | Metadata.Stored_procedure { db; _ }
      ->
      Some (db_profile db)
    | Metadata.Service_op { service; _ } ->
      Some
        { p_latency = service.Aldsp_services.Web_service.latency;
          p_row_cost = row_cost }
    | Metadata.File_docs _ | Metadata.External_custom _ -> Some local_profile)
  | _ -> None

(* Estimated items yielded by one call of an arity-0 source function:
   exact row counts for tables and file/CSV sources, unknown otherwise. *)
let source_cardinality registry fn =
  match Metadata.resolve_call registry fn 0 with
  | Some { Metadata.fd_impl = Metadata.External src; _ } -> (
    match src with
    | Metadata.Relational_table { db; table; _ } -> (
      match Database.find_table db table with
      | Ok t -> Some (Table.row_count t)
      | Error _ -> None)
    | Metadata.File_docs docs -> Some (List.length docs)
    | Metadata.Stored_procedure _ | Metadata.Service_op _
    | Metadata.External_custom _ ->
      None)
  | _ -> None

(* Expected cost of iterating a source once: one roundtrip plus shipping
   every row. Usable even when the cardinality is unknown (cost of the
   known part); [None] when the function is not a registered source. *)
let source_cost registry fn =
  match source_profile registry fn with
  | None -> None
  | Some p ->
    let rows =
      match source_cardinality registry fn with Some n -> float n | None -> 0.
    in
    Some (p.p_latency +. roundtrip_overhead +. (rows *. p.p_row_cost))

(* ------------------------------------------------------------------ *)
(* Relational region estimates *)

let rel_table registry (r : C.sql_access) =
  match Metadata.find_database registry r.C.db with
  | None -> None
  | Some db -> (
    match r.C.select.Sql.from with
    | Sql.Table { table; alias } -> (
      match Database.find_table db table with
      | Ok t -> Some (t, alias)
      | Error _ -> None)
    | Sql.Derived _ -> None)

let rec conjuncts = function
  | Sql.Binop (Sql.And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

(* Rows of a [rows]-row table that a pushed WHERE keeps: the estimate of
   its most selective AND conjunct. A literal [col = v] or
   [col IN (v1..vn)] on a column of the FROM table (qualified by its
   alias, as pushdown writes every column) with a single-column index
   keeps n·rows/NDV; every other shape (OR, NOT, ranges, functions,
   unindexed columns) keeps 1/[selection_fraction]. *)
let where_cardinality t ~alias ~rows where =
  let opaque = max 1 (rows / selection_fraction) in
  let own = function Some a -> String.equal a alias | None -> false in
  let keyed col n =
    match Table.distinct_estimate t col with
    | Some ndv when ndv > 0 -> min rows (max 1 (n * rows / ndv))
    | _ -> opaque
  in
  let literal = function Sql.Lit _ -> true | _ -> false in
  let conjunct = function
    | Sql.Binop (Sql.Eq, Sql.Col (q, col), Sql.Lit _)
    | Sql.Binop (Sql.Eq, Sql.Lit _, Sql.Col (q, col))
      when own q ->
      keyed col 1
    | Sql.In_list (Sql.Col (q, col), (_ :: _ as items))
      when own q && List.for_all literal items ->
      keyed col (List.length items)
    | _ -> opaque
  in
  List.fold_left (fun acc e -> min acc (conjunct e)) rows (conjuncts where)

let best_ndv t =
  List.fold_left
    (fun acc idx ->
      match Index.columns idx with
      | [ _ ] -> max acc (Index.distinct_keys idx)
      | _ -> acc)
    1 (Table.indexes t)

(* Matches per left row of each LEFT OUTER JOIN a region carries (§4.2's
   merged nesting): the joined table's rows over the NDV of its join
   column, at least 1, since an unmatched left row still yields one row.
   An unindexed join column falls back to the table's best single-column
   NDV. A region with its own GROUP BY ships one row per group of the
   left columns, so its joins do not fan out. *)
let rel_fanout registry (r : C.sql_access) =
  match Metadata.find_database registry r.C.db with
  | Some db when r.C.select.Sql.group_by = [] ->
    List.fold_left
      (fun acc (j : Sql.join) ->
        match (j.Sql.jkind, j.Sql.jtable) with
        | Sql.Left_outer, Sql.Table { table; alias } -> (
          match Database.find_table db table with
          | Error _ -> acc
          | Ok t ->
            let own = function Some a -> String.equal a alias | None -> false in
            let own_col = function
              | Sql.Col (q, col) when own q -> Some col
              | _ -> None
            in
            let join_col =
              List.find_map
                (function
                  | Sql.Binop (Sql.Eq, a, b) -> (
                    match own_col a with Some c -> Some c | None -> own_col b)
                  | _ -> None)
                (conjuncts j.Sql.on_condition)
            in
            let ndv =
              match Option.bind join_col (Table.distinct_estimate t) with
              | Some n when n > 0 -> n
              | _ -> best_ndv t
            in
            acc * max 1 (Table.row_count t / ndv))
        | _ -> acc)
      1 r.C.select.Sql.joins
  | _ -> 1

(* Rows one execution of a pushed region ships, before [rel_fanout].
   Unparameterized: the table's rows, filtered by its WHERE
   ([where_cardinality]). Parameterized (a PP-k probe block): probes land
   on key columns, so the per-probe match estimate is rows over the best
   single-column NDV — exact 1 for a unique key. *)
let rel_base_cardinality registry (r : C.sql_access) =
  match rel_table registry r with
  | None -> None
  | Some (t, alias) ->
    let rows = Table.row_count t in
    if r.C.sql_params = [] then
      match r.C.select.Sql.where with
      | None -> Some rows
      | Some w -> Some (where_cardinality t ~alias ~rows w)
    else Some (max 1 (rows / best_ndv t))

let rel_cardinality registry r =
  Option.map (fun n -> n * rel_fanout registry r) (rel_base_cardinality registry r)

(* ------------------------------------------------------------------ *)
(* Cardinality over core expressions *)

let rec expr_cardinality registry e =
  match e with
  | C.Empty -> Some 0
  | C.Const _ | C.Elem _ -> Some 1
  | C.Seq es ->
    List.fold_left
      (fun acc e ->
        match (acc, expr_cardinality registry e) with
        | Some a, Some b -> Some (a + b)
        | _ -> None)
      (Some 0) es
  | C.Call { fn; args = [] } -> source_cardinality registry fn
  | C.Flwor { clauses; return_ } -> (
    match (clauses_cardinality registry clauses, expr_cardinality registry return_) with
    | Some tuples, Some per_tuple -> Some (tuples * per_tuple)
    | Some tuples, None -> Some tuples
    | None, _ -> None)
  | _ -> None

(* Binding tuples flowing out of one clause given the tuples flowing in;
   [None] poisons the rest of the pipeline. Joins use the key/foreign-key
   estimate max(outer, inner): exact when the join key is unique on one
   side, which introspected equi joins (PK-FK navigation) always are. *)
and advance registry est clause =
  match est with
  | None -> None
  | Some tuples -> (
    let times = Option.map (fun n -> tuples * n) in
    match clause with
    | C.For { source; _ } -> times (expr_cardinality registry source)
    | C.Let _ | C.Group _ | C.Order _ -> Some tuples
    | C.Where _ -> Some (max 1 (tuples / selection_fraction))
    | C.Rel r -> times (rel_cardinality registry r)
    | C.Join { export = C.Grouped _; _ } -> Some tuples
    | C.Join { right; export = C.Bindings; _ } ->
      Option.map (max tuples) (clauses_cardinality registry right))

(* [advance] over a pipeline, one estimate per clause. A pre-clustered
   group re-nests the flat rows of the merged region before it (§4.2),
   one group per left row, so it is priced back at the region's estimate
   without the outer-join fan-out. *)
and estimates registry est clauses =
  let step (est, renest, acc) clause =
    let out =
      match (clause, renest) with
      | C.Group { clustered = true; _ }, Some _ -> renest
      | _ -> advance registry est clause
    in
    let renest =
      match (clause, est) with
      | C.Rel r, Some tuples ->
        Option.map (fun n -> tuples * n) (rel_base_cardinality registry r)
      | C.Let _, _ -> renest
      | _ -> None
    in
    (out, renest, out :: acc)
  in
  let _, _, acc = List.fold_left step (est, None, []) clauses in
  List.rev acc

and clauses_cardinality registry clauses =
  List.fold_left (fun _ out -> out) (Some 1) (estimates registry (Some 1) clauses)

(* ------------------------------------------------------------------ *)
(* PP-k parameter choice *)

(* Total(k) ~ outer*latency/k (roundtrips) + outer*row_cost*k (block
   assembly and disjunct decoding) is minimized at k* = sqrt(latency /
   row_cost); clamp to [5, 50] and never exceed the outer estimate. *)
let k_min = 5
let k_max = 50

let choose_k ~outer ~latency =
  let raw =
    if latency <= 0. then 0.
    else Float.sqrt (latency /. row_cost)
  in
  let k = min k_max (max k_min (int_of_float (Float.round raw))) in
  match outer with Some o when o > 0 -> max 1 (min k o) | _ -> k

let choose_prefetch ~latency ~default =
  if latency >= 0.001 then 2 else if latency > 0. then 1 else default

(* ------------------------------------------------------------------ *)
(* Join-method and pushdown-shape costing *)

let nested_loop_cost ~outer ~inner = outer *. inner *. row_cost

(* probe + expected matches per outer tuple *)
let index_nl_cost ~outer ~matches = outer *. (1. +. matches) *. row_cost

(* Parameterizing a join right side replaces one whole-table ship with
   ceil(outer/k) probe-block roundtrips that ship only matching rows.
   Beneficial unless the probe roundtrips dwarf the single shipment —
   the 2x margin keeps marginal cases on the parameterized (PP-k) path,
   which overlaps latency that whole-table shipping cannot. *)
let parameterize_beneficial ~outer ~inner_rows ~latency =
  match (outer, inner_rows) with
  | Some o, Some i when o > 0 ->
    let k = choose_k ~outer:(Some o) ~latency in
    let blocks = float_of_int ((o + k - 1) / k) in
    let param =
      (blocks *. (latency +. roundtrip_overhead)) +. (float_of_int o *. row_cost)
    in
    let ship =
      latency +. roundtrip_overhead +. (float_of_int i *. row_cost)
    in
    param <= 2. *. ship
  | _ -> true

(* ------------------------------------------------------------------ *)
(* Misestimation *)

let misestimate ~est ~actual =
  if est <= 0 || actual <= 0 then 1.
  else
    let e = float_of_int est and a = float_of_int actual in
    Float.max (e /. a) (a /. e)
