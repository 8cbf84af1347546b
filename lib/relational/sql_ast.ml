type binop =
  | Eq | Neq | Lt | Le | Gt | Ge
  | Add | Sub | Mul | Div
  | And | Or
  | Concat
  | Like

type func = Upper | Lower | Substr | Char_length | Abs | Coalesce | Trim | Modulo

type set_quantifier = All | Distinct_agg

type expr =
  | Col of string option * string
  | Lit of Sql_value.t
  | Param of int
  | Binop of binop * expr * expr
  | Not of expr
  | Is_null of expr
  | Is_not_null of expr
  | In_list of expr * expr list
  | In_select of expr * select
  | Exists of select
  | Not_exists of select
  | Case of (expr * expr) list * expr option
  | Func of func * expr list
  | Count_star
  | Agg of agg_kind * set_quantifier * expr
  | Scalar_select of select

and agg_kind = Count | Sum | Min | Max | Avg

and order_item = { sort_expr : expr; descending : bool }

and join_kind = Inner | Left_outer

and table_ref =
  | Table of { table : string; alias : string }
  | Derived of { query : select; alias : string }

and join = { jkind : join_kind; jtable : table_ref; on_condition : expr }

and select = {
  distinct : bool;
  projections : (expr * string) list;
  from : table_ref;
  joins : join list;
  where : expr option;
  group_by : expr list;
  having : expr option;
  order_by : order_item list;
  window : window option;
}

and window = { start : int; count : int option }

type dml =
  | Insert of { table : string; columns : string list; values : expr list }
  | Update of {
      table : string;
      assignments : (string * expr) list;
      where : expr option;
    }
  | Delete of { table : string; where : expr option }

type statement = Query of select | Dml of dml

let select ?(distinct = false) ?(joins = []) ?where ?(group_by = []) ?having
    ?(order_by = []) ?window ~projections from =
  { distinct; projections; from; joins; where; group_by; having; order_by;
    window }

let table ?alias name =
  Table { table = name; alias = Option.value alias ~default:name }

let col alias name = Col (Some alias, name)

let rec expr_params acc = function
  | Param i -> max acc i
  | Col _ | Lit _ | Count_star -> acc
  | Binop (_, a, b) -> expr_params (expr_params acc a) b
  | Not e | Is_null e | Is_not_null e | Agg (_, _, e) -> expr_params acc e
  | In_list (e, es) -> List.fold_left expr_params (expr_params acc e) es
  | In_select (e, s) -> select_params (expr_params acc e) s
  | Exists s | Not_exists s | Scalar_select s -> select_params acc s
  | Case (branches, default) ->
    let acc =
      List.fold_left
        (fun acc (c, v) -> expr_params (expr_params acc c) v)
        acc branches
    in
    Option.fold ~none:acc ~some:(expr_params acc) default
  | Func (_, args) -> List.fold_left expr_params acc args

and select_params acc s =
  let acc = List.fold_left (fun acc (e, _) -> expr_params acc e) acc s.projections in
  let acc = table_ref_params acc s.from in
  let acc =
    List.fold_left
      (fun acc j -> expr_params (table_ref_params acc j.jtable) j.on_condition)
      acc s.joins
  in
  let acc = Option.fold ~none:acc ~some:(expr_params acc) s.where in
  let acc = List.fold_left expr_params acc s.group_by in
  let acc = Option.fold ~none:acc ~some:(expr_params acc) s.having in
  List.fold_left (fun acc o -> expr_params acc o.sort_expr) acc s.order_by

and table_ref_params acc = function
  | Table _ -> acc
  | Derived { query; _ } -> select_params acc query

let param_count = function
  | Query s -> select_params 0 s
  | Dml (Insert { values; _ }) -> List.fold_left expr_params 0 values
  | Dml (Update { assignments; where; _ }) ->
    let acc = List.fold_left (fun acc (_, e) -> expr_params acc e) 0 assignments in
    Option.fold ~none:acc ~some:(expr_params acc) where
  | Dml (Delete { where; _ }) ->
    Option.fold ~none:0 ~some:(expr_params 0) where

let rec shift_expr delta = function
  | Param i -> Param (i + delta)
  | (Col _ | Lit _ | Count_star) as e -> e
  | Binop (op, a, b) -> Binop (op, shift_expr delta a, shift_expr delta b)
  | Not e -> Not (shift_expr delta e)
  | Is_null e -> Is_null (shift_expr delta e)
  | Is_not_null e -> Is_not_null (shift_expr delta e)
  | Agg (k, q, e) -> Agg (k, q, shift_expr delta e)
  | In_list (e, es) ->
    In_list (shift_expr delta e, List.map (shift_expr delta) es)
  | In_select (e, s) -> In_select (shift_expr delta e, shift_select delta s)
  | Exists s -> Exists (shift_select delta s)
  | Not_exists s -> Not_exists (shift_select delta s)
  | Scalar_select s -> Scalar_select (shift_select delta s)
  | Case (branches, default) ->
    Case
      ( List.map
          (fun (c, v) -> (shift_expr delta c, shift_expr delta v))
          branches,
        Option.map (shift_expr delta) default )
  | Func (f, args) -> Func (f, List.map (shift_expr delta) args)

and shift_select delta s =
  { s with
    projections =
      List.map (fun (e, a) -> (shift_expr delta e, a)) s.projections;
    joins =
      List.map
        (fun j -> { j with on_condition = shift_expr delta j.on_condition })
        s.joins;
    where = Option.map (shift_expr delta) s.where;
    group_by = List.map (shift_expr delta) s.group_by;
    having = Option.map (shift_expr delta) s.having;
    order_by =
      List.map
        (fun o -> { o with sort_expr = shift_expr delta o.sort_expr })
        s.order_by }
