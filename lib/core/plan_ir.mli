(** The physical plan IR (§5, Figure 4).

    The compile pipeline — normalize, typecheck, {!Optimizer.optimize},
    {!Pushdown.push}, {!Optimizer.select_methods} — ends here: the
    rewritten core expression is {e lowered} into an explicit typed
    operator tree whose nodes carry everything the runtime decided at
    compile time (join method with its k and prefetch depth, pushed-SQL
    regions with their dialect and parameter slots, async-let and guard
    placement, cacheable-call marking, cardinality estimates). The tree
    is immutable; each execution counts into its own {!run}, an array
    indexed by the operator ids lowering numbers densely.

    A {!t} is a view: the tree plus the totals of the runs folded into
    it. {!Server.compile} caches a view per query text; the texts of one
    call shape share the tree, each through its own {!instance}.
    {!Eval} executes a tree into a run; {!Server.explain} renders one —
    the middleware operators with their counters and, nested under each
    pushed region, the backend's own access-path plan lines. *)

open Aldsp_xml

(** One operator's counters in one execution, or summed over the
    executions folded into a view. Updated without a lock, like the
    backend's operator statistics: single word writes, and the only
    concurrent writers (PP-k roundtrips on pool workers) touch counters
    no consumer reads mid-run. The counters most operators never move sit
    in {!more}, allocated by the first write, so a view whose runs moved
    none of them holds one record per operator, not two. *)
type counters = {
  mutable c_starts : int;  (** Times the operator began producing. *)
  mutable c_rows : int;  (** Items / binding tuples emitted. *)
  mutable c_roundtrips : int;  (** Source statements this operator issued. *)
  mutable c_wall : float;  (** Seconds inside this operator's roundtrips. *)
  mutable c_first_row_ns : float;
      (** Wall-clock nanoseconds from the operator's first start to its
          first emitted row (time-to-first-token on the root). Stamped
          once per execution; a view keeps the first it was given.
          Rendered as [ttft=] only under [timings], like [wall=], because
          it is nondeterministic. *)
  mutable c_more : more;
      (** One shared all-zero value until a write below allocates this
          operator's own. *)
}

and more = private {
  mutable c_cache_hits : int;  (** Function-cache hits on this call site. *)
  mutable c_cache_misses : int;  (** Computed calls on a cacheable site. *)
  mutable c_shared : int;
      (** Of the issued statements, how many were served from another
          session's in-flight work (coalesced or batch-merged). Rendered
          as [shared=N] only when positive, so plans outside shared
          serving workloads are unchanged. *)
  mutable c_spill_runs : int;
      (** Sorted runs this operator spilled to disk ({!Extsort}: ORDER BY
          and the unclustered GROUP BY fallback under a
          [sort_budget_rows]), counting intermediate merge passes.
          Rendered with its three companions as
          [spill=R spill-rows=N spill-bytes=B fanin=F] only when positive,
          so in-memory sorts render exactly as before. *)
  mutable c_spill_rows : int;  (** Rows written to spill files. *)
  mutable c_spill_bytes : int;  (** Marshal frame bytes spilled. *)
  mutable c_merge_fanin : int;  (** Widest merge fan-in performed. *)
  mutable c_backend : string list;
      (** On a pushed region: the backend's access-path plan for its most
          recent statement (in block order for PP-k, so deterministic).
          Only a run's own counters hold it: {!fold} leaves it out of a
          view, since EXPLAIN renders the run it executed. *)
}

(** The writes to {!more}; each allocates the operator's own first. *)

val count_cache : counters -> hit:bool -> unit
val count_shared : counters -> unit

val count_spill :
  counters -> runs:int -> rows:int -> bytes:int -> fanin:int -> unit

val set_backend : counters -> string list -> unit

(** One execution's counters, indexed by operator id: one per tuple
    operator, per node EXPLAIN renders with counters, and for the
    root. *)
type run = counters array

(** What a call site resolved to at compile time (informational — the
    executor re-resolves so transiently registered prolog functions keep
    working). *)
type call_target =
  | T_function of { cacheable : bool; external_ : bool }
  | T_builtin
  | T_unresolved

(** How a let binding is scheduled (§5.4): [L_async] is an explicit
    [fn-bea:async] value, [L_concurrent] an independent external-source
    call auto-submitted to the worker pool, [L_plain] evaluates in
    place. *)
type let_mode = L_plain | L_async | L_concurrent

(** A variable, numbered at lowering. In a [P_var] or a binding operator
    [slot] indexes the tuple frame: lowering numbers each variable by its
    scope's depth, so a variable's slot is the count of variables in
    scope where it is bound, and sibling scopes reuse slots. In a
    [P_param] it indexes the plan's {!t.params}. The executor never reads
    [name] except to report an unbound variable. *)
type var = { name : Cexpr.var; slot : int }

(** An operator of the immutable tree. [est] is its estimated items /
    binding tuples ({!Cost_model}), fixed at compile time; 0 when the
    model could not price it. [id] indexes a {!run}, or is -1 for a node
    no counter is kept for (one EXPLAIN inlines, not the root). *)
type plan = { id : int; est : int; node : node }

and node =
  | P_const of Atomic.t
  | P_empty
  | P_seq of plan list
  | P_var of var  (** A variable bound in the plan, read from the frame. *)
  | P_param of var
      (** A variable free in the plan: a function body's parameter, a
          call shape's lifted literal, an external variable. *)
  | P_construct of {
      name : Qname.t;
      optional : bool;
      attrs : pattr list;
      content : plan;
    }
  | P_if of { cond : plan; then_ : plan; else_ : plan }
  | P_quantified of {
      universal : bool;
      var : var;
      source : plan;
      pred : plan;
    }
  | P_call of { fn : Qname.t; target : call_target; args : plan list }
  | P_async of plan
      (** [fn-bea:async]: eligible for ahead-of-use submission. *)
  | P_fail_over of { primary : plan; alternate : plan }
  | P_timeout of { primary : plan; millis : plan; alternate : plan }
  | P_child of plan * Qname.t
  | P_child_wild of plan
  | P_attr_of of plan * Qname.t
  | P_filter of { input : plan; dot : var; pos : var; pred : plan }
  | P_data of plan
  | P_ebv of plan
  | P_binop of Cexpr.binop * plan * plan
  | P_typematch of plan * Stype.t
  | P_cast of plan * Atomic.atomic_type
  | P_castable of plan * Atomic.atomic_type
  | P_instance_of of plan * Stype.t
  | P_error of string
  | P_pipeline of { ops : op list; return_ : plan }
      (** A FLWOR block: a pipeline of tuple operators over binding
          tuples (§5.1). *)

and pattr = { p_aname : Qname.t; p_avalue : plan; p_aoptional : bool }

and op = { op_id : int; op_est : int; op_node : op_node }

and op_node =
  | O_scan of { var : var; source : plan }
  | O_let of { var : var; value : plan; mode : let_mode }
  | O_select of plan
  | O_group of {
      aggs : (plan * var) list;
          (** Each member's value of the input variable, concatenated
              into the output variable. *)
      keys : (plan * var) list;
      clustered : bool;
    }
  | O_sort of { keys : (plan * bool) list }
  | O_join of {
      kind : Cexpr.join_kind;
      method_ : Cexpr.join_method;
      right : op list;
      base : int;
          (** The first frame slot [right] binds: a left tuple's frame
              is no wider. *)
      on_ : plan;
      keys : (plan * plan) list;
          (** The (left key, right key) pairs of {!Cexpr.hash_keys},
              lowered once so the executor never re-analyzes the
              predicate. Index nested loop indexes the right side's
              tuples on them and PP-k each fetched block's left tuples;
              a tuple whose key does not normalize is tried against
              every other, and [on_] decides every candidate. [[]]
              falls back to a nested loop. *)
      export : pexport;
    }
  | O_sql of sql_region

and pexport = PE_bindings | PE_grouped of { gvar : var; gexpr : plan }

(** A pushed SQL region: the statement is rendered once, at compile time,
    in the owning database's dialect. *)
and sql_region = {
  sql_db : string;
  sql_dialect : string;
  sql_text : string;
  sql_select : Aldsp_relational.Sql_ast.select;
  sql_params : plan list;  (** Middleware expressions bound to [?] slots. *)
  sql_binds : Cexpr.sql_bind list;
  sql_slots : int array;  (** The frame slot of each bind, in order. *)
}

(** A view of a tree: the tree plus the counters of the executions folded
    into it. [params] names the plan's free variables, indexed by
    [P_param] slot. *)
type t = { tree : plan; totals : run; params : Cexpr.var array }

val compile : Metadata.t -> Cexpr.t -> t
(** Lowers an optimized core expression into the physical IR: special
    forms ([fn-bea:async]/[fail-over]/[timeout]) become guard operators,
    call targets are resolved, adjacent-let runs are analyzed for
    concurrency eligibility, every pushed region's SQL is rendered in
    its database's dialect, and every variable gets its frame slot or
    parameter index. Pure — never executes anything. *)

val instance : t -> t
(** Another view of the same tree, with zero totals: what a text of an
    already-compiled call shape gets. Allocates only the counters. *)

val new_run : t -> run
(** Zeroed counters for one execution of the view's tree. *)

val fold : t -> run -> unit
(** Adds one execution's counters into the view's totals, under a lock,
    so concurrent executions of one view each fold whole. *)

val max_misestimate : counters:run -> t -> float
(** Worst [max(est/act, act/est)] in one execution's [counters] over the
    operators whose [est=] and [act=] are both per-run totals — the nodes
    a run evaluates once, the outermost pipelines, and their operators
    through join right sides — that have a nonzero estimate and nonzero
    actual rows; 1.0 when nothing qualifies. The per-query input to
    {!Server.stats}' misestimation rollup. A view's totals sum several
    runs, so they are not its input. *)

val operators : ?counters:run -> t -> (string * counters) list
(** Every operator of the plan, preorder, as (render label, counters) —
    the label is the same text {!render} prints for the operator's line,
    the counters those of [counters] (default: the view's totals).
    Used by tests to assert counter values without parsing the tree. *)

val regions : t -> sql_region list
(** All pushed SQL regions, preorder. *)

val params_only : t -> Cexpr.var list -> bool
(** Whether the plan reads each of the variables only as a whole pushed-SQL
    parameter ([param ?n := $v]): nowhere in the middleware, in no
    argument of a call left in place, in no expression a parameter
    computes. Such a plan is the same for every value bound to them, which
    is what lets one plan serve every literal of a call shape
    ({!Shape}). *)

val render :
  ?timings:bool ->
  ?bindings:(Cexpr.var * Item.sequence) list ->
  ?counters:run ->
  t ->
  string
(** The unified EXPLAIN rendering: one indented tree of middleware
    operators, each with its counters, and under each pushed region the
    region's dialect SQL, parameter slots, column bindings and the
    backend's captured access-path lines, from [counters] (default: the
    view's totals, which hold no backend lines). A parameter slot that reads a
    variable of [bindings] prints its bound value ([param ?1 :=
    'CUST0042']) instead of the variable. [timings] adds wall-clock
    fields (off by default so the output is byte-stable for golden
    tests). *)
