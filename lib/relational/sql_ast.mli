(** Abstract syntax of the SQL subset ALDSP generates.

    This AST is the contract between the XQuery compiler's SQL-generation
    phase (§4.4) and the backends: the compiler emits it, the dialect
    printers ({!Sql_print}) render it in vendor syntax, and the in-memory
    engine ({!Sql_exec}) executes it directly. It covers exactly the
    pushable repertoire of the paper: select-project-join with inner and
    left outer joins, CASE, scalar functions, aggregates with GROUP BY,
    DISTINCT, EXISTS/IN (semi/anti-semi joins), ORDER BY, row-number
    windows (for [fn:subsequence]) and [?] parameters. *)

type binop =
  | Eq | Neq | Lt | Le | Gt | Ge
  | Add | Sub | Mul | Div
  | And | Or
  | Concat
  | Like

type func = Upper | Lower | Substr | Char_length | Abs | Coalesce | Trim | Modulo

type set_quantifier = All | Distinct_agg

type expr =
  | Col of string option * string  (** [alias.column] or bare [column]. *)
  | Lit of Sql_value.t
  | Param of int  (** 1-based positional [?] parameter. *)
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
  projections : (expr * string) list;  (** [expr AS alias]. *)
  from : table_ref;
  joins : join list;
  where : expr option;
  group_by : expr list;
  having : expr option;
  order_by : order_item list;
  window : window option;
}

(** A row window over the ordered result: 1-based [start], keep [count]
    rows ([None] = to the end). Translates to ROWNUM / ROW_NUMBER / FETCH
    FIRST per dialect. *)
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

val select :
  ?distinct:bool ->
  ?joins:join list ->
  ?where:expr ->
  ?group_by:expr list ->
  ?having:expr ->
  ?order_by:order_item list ->
  ?window:window ->
  projections:(expr * string) list ->
  table_ref ->
  select

val table : ?alias:string -> string -> table_ref
val col : string -> string -> expr
val param_count : statement -> int
(** Highest parameter index used, i.e. how many bindings execution needs. *)

val shift_expr : int -> expr -> expr
(** [shift_expr delta e] adds [delta] to every parameter index in [e],
    subqueries included. *)

val shift_select : int -> select -> select
(** {!shift_expr} over every expression of a select; a derived table in
    FROM or a join is left as it is (pushdown builds none). *)
