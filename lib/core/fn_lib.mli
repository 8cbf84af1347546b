(** The built-in XQuery function library.

    The data-centric subset the paper's queries use: aggregates, sequence
    functions ([subsequence], [empty], [exists], [distinct-values]), string
    functions, numeric functions, plus the [fn-bea:] extensions — which are
    {e special}: they are not pure item-sequence functions and are handled
    directly by the evaluator ([fn-bea:async] spawns a thread, §5.4;
    [fn-bea:fail-over]/[fn-bea:timeout] control evaluation, §5.6).

    Each builtin carries its static signature (for the optimistic
    type-checker) and, where applicable, its SQL translation tag (consulted
    by the pushdown framework, §4.4). *)

open Aldsp_xml

(** How the pushdown framework may translate a call (§4.4). *)
type sql_translation =
  | Sql_aggregate of Aldsp_relational.Sql_ast.agg_kind
  | Sql_function of Aldsp_relational.Sql_ast.func
  | Sql_concat
  | Sql_special  (** handled structurally, e.g. [subsequence], [exists] *)
  | Not_pushable

type builtin = {
  bname : Qname.t;
  min_arity : int;
  max_arity : int option;  (** [None] = variadic. *)
  param_types : Stype.t list;  (** Padded/cycled for variadic callees. *)
  return_type : int -> Stype.t;  (** May depend on call arity. *)
  translation : sql_translation;
  special : bool;  (** Evaluated by the engine, not by [eval]. *)
  eval : Item.sequence list -> (Item.sequence, string) result;
}

val find : Qname.t -> int -> builtin option
(** Lookup by name and call arity. *)

val is_aggregate : Qname.t -> bool
