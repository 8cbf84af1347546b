(** Call shapes: a query with the literal arguments of its data-service
    calls lifted into typed placeholders (the plan cache's second level,
    §2.2).

    [getProfileByID("CUST0042")] and [getProfileByID("CUST0043")] differ
    only in one argument, so they share the shape [getProfileByID($?1)]
    with [$?1] an [xs:string]: compiled once with [$?1] as an external
    variable, the literal becomes a SQL parameter ([WHERE t1."CID" = ?])
    bound at run time. Whether a shape's plan really is literal-free is
    decided after compiling it ({!Plan_ir.params_only}); this module only
    finds the candidates. *)

open Aldsp_xml

val lift :
  Metadata.t -> Xq_ast.query -> (Xq_ast.query * (Cexpr.var * Atomic.t) list) option
(** Replaces each string or numeric literal that is a direct argument of a
    call to a data-service function (a [Body] function in the registry,
    not a builtin or an external) by a placeholder variable, named [?1],
    [?2], ... in no particular order. Returns the lifted query and each
    placeholder with the literal it replaced, or [None] when there is
    nothing to lift. Only the query body is searched, and a query that
    declares prolog functions is never lifted: compiling it registers
    them, which moves the registry generation. *)

val key : Xq_ast.query -> (Cexpr.var * Atomic.t) list -> string
(** The shape's cache key: the lifted query, parse tree and all, with each
    placeholder's atomic type — two texts share it exactly when they parse
    the same up to the values of their lifted literals. Layout and
    comments do not matter. *)
