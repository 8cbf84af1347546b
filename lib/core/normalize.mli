(** Normalization: surface AST to core algebra (phase 3 of §3.3).

    Makes every implicit operation explicit — atomization ([Data]) around
    comparisons, arithmetic and typed constructions; effective boolean
    value ([Ebv]) around conditions; context items become real variables;
    every bound variable is renamed to a unique name so later phases can
    substitute without capture. Name resolution uses the prolog's namespace
    declarations on top of the built-in [fn]/[xs]/[fn-bea] bindings;
    [xs:TYPE(e)] constructor calls become casts.

    Errors (unknown variables, bad names, unresolvable schema references)
    follow the collector's mode: fail-fast at runtime, or substitute an
    [Error_expr] and continue at design time (§4.1). *)

open Aldsp_xml

type context

val context :
  ?namespaces:(string * string) list ->
  ?default_element_ns:string ->
  ?schema_lookup:(Qname.t -> Schema.element_decl option) ->
  Diag.collector ->
  context

val of_prolog :
  ?schema_lookup:(Qname.t -> Schema.element_decl option) ->
  Diag.collector ->
  Xq_ast.prolog ->
  context
(** Builds a context from a parsed prolog (namespace declarations and the
    default element namespace), layered over the built-in bindings. *)

val expr :
  ?params:(string * Cexpr.var) list -> context -> Xq_ast.expr -> Cexpr.t
(** Normalizes an expression. [params] pre-binds in-scope variables
    (function parameters) to their unique names. *)

val function_signature :
  context ->
  Xq_ast.function_decl ->
  Qname.t * (string * Cexpr.var * Stype.t) list * Stype.t
(** Resolved name, parameters as (surface name, unique name, type), and
    return type. The signature survives even when the body is in error
    (§4.1). *)

val fresh_var : context -> string -> Cexpr.var

val resolve_function_name : context -> Xq_ast.uqname -> Qname.t
