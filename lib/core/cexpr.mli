(** The core expression algebra.

    This is the compiler's internal form, produced by normalization
    (implicit operations such as atomization and effective-boolean-value
    made explicit, names resolved, variables made unique), transformed by
    the optimizer (function inlining, join introduction, inverse-function
    rewrites), annotated by SQL pushdown (the {!clause-Rel} clause), and
    finally interpreted by the runtime.

    FLWOR blocks are clause pipelines over {e binding tuples} (§5.1): each
    clause consumes and produces a stream of variable bindings. The
    optimizer introduces explicit {!clause-Join} clauses (§4.3) whose right
    side is itself a clause pipeline; a join either exports the right-hand
    bindings (one output tuple per match) or groups all matches under a
    single variable per left tuple ({!export-Grouped}) — the fused
    outer-join + pre-clustered group-by the paper relies on for nested
    results (§4.2, §5.2). *)

open Aldsp_xml

type var = string

(** Physical join methods of §5.2. PP-k fetches the right side in blocks of
    [k] left tuples via a disjunctive parameterized query; [prefetch] is the
    pipeline depth — how many block queries may be in flight on the worker
    pool ahead of the block the middleware join is consuming (0 = strictly
    sequential roundtrips). How each block is joined in the middleware is
    not a choice: it hashes on the join keys when {!hash_keys} finds
    them and falls back to a nested loop otherwise. *)
type join_method =
  | Nested_loop
  | Index_nested_loop
  | Ppk of { k : int; prefetch : int }

type binop =
  | V_eq | V_ne | V_lt | V_le | V_gt | V_ge  (** value comparisons *)
  | G_eq | G_ne | G_lt | G_le | G_gt | G_ge  (** general comparisons *)
  | Add | Sub | Mul | Div | Idiv | Mod
  | And | Or  (** operands are already EBV-wrapped by normalization *)
  | Range  (** [to] *)

type t =
  | Const of Atomic.t
  | Empty
  | Seq of t list
  | Var of var
  | Elem of {
      name : Qname.t;
      optional : bool;  (** [<E?>]: construct only if content non-empty. *)
      attrs : attr list;
      content : t;
    }
  | Flwor of { clauses : clause list; return_ : t }
  | If of { cond : t; then_ : t; else_ : t }
  | Quantified of { universal : bool; var : var; source : t; pred : t }
  | Call of { fn : Qname.t; args : t list }
  | Child of t * Qname.t
  | Child_wild of t
  | Attr_of of t * Qname.t
  | Filter of { input : t; dot : var; pos : var; pred : t }
      (** [input[pred]]; [pred] may reference the context item [dot] and
          position [pos]; a numeric predicate selects by position. *)
  | Data of t  (** explicit atomization *)
  | Ebv of t  (** explicit effective boolean value *)
  | Binop of binop * t * t
  | Typematch of t * Stype.t
      (** Runtime type check inserted by the optimistic static rule. *)
  | Cast of t * Atomic.atomic_type
  | Castable of t * Atomic.atomic_type
  | Instance_of of t * Stype.t
  | Error_expr of string
      (** Inserted by design-time error recovery; raises if evaluated. *)

and attr = { aname : Qname.t; avalue : t; aoptional : bool }

and clause =
  | For of { var : var; source : t }
  | Let of { var : var; value : t }
  | Where of t  (** already EBV-wrapped *)
  | Group of { aggs : (var * var) list; keys : (t * var) list; clustered : bool }
      (** The ALDSP FLWGOR group-by: [aggs] maps each aggregated input
          variable to its output (sequence) variable, [keys] binds grouping
          expressions to key variables. Only output variables are visible
          downstream. [clustered] marks input already clustered on the
          keys, selecting the constant-memory streaming implementation
          instead of the sort fallback (§5.2). *)
  | Order of { keys : (t * bool) list }  (** [(key, descending)] *)
  | Join of {
      kind : join_kind;
      method_ : join_method;
      right : clause list;
      on_ : t;  (** EBV-wrapped predicate over left + right variables. *)
      export : export;
    }
  | Rel of sql_access
      (** A pushed relational region (§4.4): executes SQL on one database
          and binds one variable per selected column (NULL = empty). *)

and join_kind = J_inner | J_left_outer

and export =
  | Bindings  (** right-hand variables visible; one tuple per match *)
  | Grouped of { gvar : var; gexpr : t }
      (** one tuple per left tuple; [gvar] = concatenation of [gexpr]
          over all matches (empty when none) — fused outer-join+group *)

and sql_access = {
  db : string;
  select : Aldsp_relational.Sql_ast.select;
  sql_params : t list;  (** middleware expressions bound to [?] slots *)
  binds : sql_bind list;
}

and sql_bind = { bvar : var; btype : Atomic.atomic_type; bcol : string }

val seq : t list -> t
(** Smart constructor: flattens nested sequences, drops empties. *)

val free_vars : t -> unit -> (var, unit) Hashtbl.t

val clause_vars : clause list -> var list
(** Variables a clause pipeline binds for downstream clauses. *)

val unwrap_ebv : t -> t
(** Strips one explicit effective-boolean-value wrapper. *)

val conjuncts : t -> t list
(** The AND-conjuncts of a predicate (EBV wrappers stripped). *)

val equi_join_keys :
  right_vars:var list -> t -> ((t * t) list * t list) option
(** Splits a join predicate into (left expr = right expr) pairs plus
    residual conjuncts; [None] when no equi-key exists. Shared by pushdown,
    the method selector and {!hash_keys}. *)

val hash_keys : join_method -> clause list -> t -> (t * t) list
(** The (left, right) key pairs the executor's hash join over [right]
    indexes and probes with; [[]] means the join runs as a nested loop.
    The keys only pick candidates: the full predicate decides each one.
    Index nested loop hashes on every equi pair {!equi_join_keys} finds.
    PP-k hashes when [right] is a pushed region followed by zero or more
    row-reconstruction lets (element constructors over variables) — none
    when nothing reads the reconstruction — the predicate is nothing but
    equi-key pairs, and every right key reads only the region's bind
    variables, so a fetched row's key is known before the row is
    reconstructed. A nested-loop join has none. *)

val count_uses : var -> clause list -> t -> int
(** Occurrences of a variable in a clause list plus return expression —
    including Group aggregation inputs, which are referenced positionally
    rather than as [Var] nodes. *)

val count_occurrences : var -> t -> int

val map_children : (t -> t) -> t -> t
(** Shallow map over all sub-expressions, including those inside clauses
    (sources, predicates, SQL parameters). Binding structure is
    preserved. *)

val map_clause : (t -> t) -> clause -> clause
(** Shallow map over the expressions of a single clause. *)

val substitute : (var * t) list -> t -> t
(** Capture-naive substitution — sound because normalization makes every
    bound variable unique and inlining freshens function bodies. *)

val rename_bound : (unit -> int) -> t -> t
(** Freshens every bound variable using the supplied counter (used when a
    function body is inlined more than once). *)

val equal : t -> t -> bool

val binop_name : binop -> string

val to_string : t -> string
