open Aldsp_relational
module C = Cexpr
module Sql = Sql_ast

(* ------------------------------------------------------------------ *)
(* Constants *)

(* Cost of one shipped row, paid once at the backend that produces it
   and once in the middleware that joins it: about 2 microseconds, the
   order of a traced PP-k block's engine and join time per row. *)
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

let best_ndv t =
  List.fold_left
    (fun acc idx ->
      match Index.columns idx with
      | [ _ ] -> max acc (Index.distinct_keys idx)
      | _ -> acc)
    1 (Table.indexes t)

let param = function Sql.Param _ -> true | _ -> false
let constant = function Sql.Lit _ | Sql.Param _ -> true | _ -> false

(* A [col = v] or [col IN (v1..vn)] conjunct of literals or parameters
   on a column of the FROM table (qualified by its alias, as pushdown
   writes every column): the column and the values. *)
let keyed_conjunct ~alias e =
  let own = function Some a -> String.equal a alias | None -> false in
  match e with
  | Sql.Binop (Sql.Eq, Sql.Col (q, col), v) when own q && constant v ->
    Some (col, [ v ])
  | Sql.Binop (Sql.Eq, v, Sql.Col (q, col)) when own q && constant v ->
    Some (col, [ v ])
  | Sql.In_list (Sql.Col (q, col), (_ :: _ as vs))
    when own q && List.for_all constant vs ->
    Some (col, vs)
  | _ -> None

(* Rows of a [rows]-row table that a pushed WHERE keeps: the estimate of
   its most selective AND conjunct. A [keyed_conjunct] of n values on a
   column with a single-column index keeps n·rows/NDV of that column.
   Every other shape (OR, NOT, ranges, functions, unindexed columns)
   keeps 1/[selection_fraction], except that a conjunct a parameter
   reaches — a PP-k probe, which pushdown writes on key columns — keeps
   n·rows over the table's best single-column NDV. *)
let where_cardinality t ~alias ~rows where =
  let opaque = max 1 (rows / selection_fraction) in
  let probe n = min rows (max 1 (n * rows / best_ndv t)) in
  let conjunct e =
    match (keyed_conjunct ~alias e, e) with
    | Some (col, vs), _ -> (
      let n = List.length vs in
      match Table.distinct_estimate t col with
      | Some ndv when ndv > 0 -> min rows (max 1 (n * rows / ndv))
      | _ -> if List.exists param vs then probe n else opaque)
    | None, Sql.Binop (Sql.Eq, a, b) when param a || param b -> probe 1
    | None, _ -> opaque
  in
  List.fold_left (fun acc e -> min acc (conjunct e)) rows (conjuncts where)

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

(* Rows one execution of a pushed region ships, before [rel_fanout]: the
   table's rows, filtered by its WHERE ([where_cardinality]). A
   parameterized region (a PP-k probe) is priced per probe key. *)
let rel_base_cardinality registry (r : C.sql_access) =
  match rel_table registry r with
  | None -> None
  | Some (t, alias) -> (
    let rows = Table.row_count t in
    match r.C.select.Sql.where with
    | None -> Some rows
    | Some w -> Some (where_cardinality t ~alias ~rows w))

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
(* PP-k pricing *)

type ppk_probe = {
  pr_profile : profile;
  pr_matches : int;
  pr_scan_rows : int;
}

(* Whether the backend can answer a probe block from an index: some index
   has every column compared to parameters only in a top-level
   [keyed_conjunct], the shape its access-path selection turns into index
   probes. *)
let probe_indexed t ~alias where =
  let probed =
    List.filter_map
      (fun e ->
        match keyed_conjunct ~alias e with
        | Some (col, vs) when List.for_all param vs -> Some col
        | _ -> None)
      (conjuncts where)
  in
  List.exists
    (fun idx -> List.for_all (fun c -> List.mem c probed) (Index.columns idx))
    (Table.indexes t)

let ppk_probe registry (r : C.sql_access) =
  let pr_profile =
    match Metadata.find_database registry r.C.db with
    | Some db -> db_profile db
    | None -> local_profile
  in
  let pr_matches =
    match rel_cardinality registry r with Some n -> max 1 n | None -> 1
  in
  let pr_scan_rows =
    match (rel_table registry r, r.C.select.Sql.where) with
    | Some (t, alias), Some w when probe_indexed t ~alias w -> 0
    | Some (t, _), _ -> Table.row_count t
    | None, _ -> 0
  in
  { pr_profile; pr_matches; pr_scan_rows }

(* Left tuples priced when the outer estimate is unknown. *)
let unknown_outer = 100

(* The largest block priced: the backend probes an index for at most a
   few thousand alternatives, and dialects cap IN lists near a
   thousand. *)
let k_max = 1000

(* Seconds to run [outer] left tuples through PP-k at block size [k] and
   prefetch depth [prefetch]. A block of k tuples is one roundtrip — the
   source's latency, then its work: the probed table's rows when no index
   serves the probe, and each tuple's key plus its matches — and one pass
   in the middleware: the statement floor (SQL, parameters, decoding) and
   a join over the same keys and matches. Without prefetch the blocks run
   one after the other. With it, min(prefetch + 1, workers, blocks)
   roundtrips are in flight: their latencies overlap, but the source
   works through one block at a time. Each block after the first takes
   the longest of its middleware pass, its source work and its share of a
   roundtrip, so its roundtrip hides behind the previous block's join. *)
let ppk_cost p ~outer ~workers ~k ~prefetch =
  let blocks = (outer + k - 1) / k in
  let block_rows =
    float_of_int (min k outer) *. float_of_int (1 + p.pr_matches)
    *. p.pr_profile.p_row_cost
  in
  let source =
    (float_of_int p.pr_scan_rows *. p.pr_profile.p_row_cost) +. block_rows
  in
  let roundtrip = p.pr_profile.p_latency +. source in
  let join = roundtrip_overhead +. block_rows in
  let later =
    if prefetch <= 0 then roundtrip +. join
    else
      let in_flight = min (prefetch + 1) (min workers blocks) in
      Float.max (Float.max join source) (roundtrip /. float_of_int in_flight)
  in
  roundtrip +. join +. (float_of_int (blocks - 1) *. later)

(* The cheapest (k, prefetch) with k <= the outer estimate and prefetch <
   workers; ties keep the smaller k, then the smaller prefetch, so one
   block gets prefetch 0. A scan only makes every statement dearer, so a
   probe without an index searches from the k the indexed probe would
   get: it never sends more statements. (Without that floor the overlap
   term can hide a small scan behind the join of a later block and tip a
   near tie toward one more block.) *)
let rec choose_ppk p ~outer ~workers =
  let from =
    if p.pr_scan_rows = 0 then 1
    else fst (choose_ppk { p with pr_scan_rows = 0 } ~outer ~workers)
  in
  let outer = match outer with Some o -> max 1 o | None -> unknown_outer in
  let best = ref (from, 0, Float.infinity) in
  for k = from to min outer k_max do
    for prefetch = 0 to workers - 1 do
      let cost = ppk_cost p ~outer ~workers ~k ~prefetch in
      let _, _, best_cost = !best in
      if cost < best_cost then best := (k, prefetch, cost)
    done
  done;
  let k, prefetch, _ = !best in
  (k, prefetch)

(* ------------------------------------------------------------------ *)
(* Join-method and pushdown-shape costing *)

let nested_loop_cost ~outer ~inner = outer *. inner *. row_cost

(* probe + expected matches per outer tuple *)
let index_nl_cost ~outer ~matches = outer *. (1. +. matches) *. row_cost

(* Parameterizing a join right side replaces one whole-table ship with
   PP-k probe blocks that ship only matching rows, priced at the (k,
   prefetch) the join would run with. Shipping costs one roundtrip, the
   inner rows at the backend and again in the middleware join, plus the
   outer keys. Parameterize unless the blocks cost more than twice
   that. *)
let parameterize_beneficial p ~outer ~workers ~inner_rows =
  let plan = choose_ppk p ~outer ~workers in
  match (outer, inner_rows) with
  | Some o, Some i when o > 0 ->
    let k, prefetch = plan in
    let ship =
      p.pr_profile.p_latency +. roundtrip_overhead
      +. (float_of_int ((2 * i) + o) *. p.pr_profile.p_row_cost)
    in
    if ppk_cost p ~outer:o ~workers ~k ~prefetch <= 2. *. ship then Some plan
    else None
  | _ -> Some plan

(* ------------------------------------------------------------------ *)
(* Misestimation *)

let misestimate ~est ~actual =
  if est <= 0 || actual <= 0 then 1.
  else
    let e = float_of_int est and a = float_of_int actual in
    Float.max (e /. a) (a /. e)
