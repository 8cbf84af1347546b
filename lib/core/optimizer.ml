open Aldsp_xml
module C = Cexpr

type options = {
  inline_views : bool;
  introduce_joins : bool;
  eliminate_constructors : bool;
  use_inverse_functions : bool;
  pushdown : bool;
  cost_based : bool;
  ppk_k : int;
  ppk_prefetch : int;
  sort_budget_rows : int option;
}

(* ALDSP_SORT_BUDGET=<rows> forces every server built with the default
   options to spill its blocking sorts — the CI lever that exercises the
   external-sort path under the whole tier-1 suite. *)
let env_sort_budget =
  match Sys.getenv_opt "ALDSP_SORT_BUDGET" with
  | Some v -> (
    match int_of_string_opt (String.trim v) with
    | Some n when n > 0 -> Some n
    | _ -> None)
  | None -> None

let default_options =
  { inline_views = true;
    introduce_joins = true;
    eliminate_constructors = true;
    use_inverse_functions = true;
    pushdown = true;
    cost_based = true;
    ppk_k = 20;
    ppk_prefetch = 1;
    sort_budget_rows = env_sort_budget }

(* The differential-testing baseline: every compilation choice the paper
   treats as cost-only (§4, §5.2) switched off, so the plan is the
   normalized expression interpreted directly with strictly sequential
   source roundtrips. *)
let reference_options =
  { inline_views = false;
    introduce_joins = false;
    eliminate_constructors = false;
    use_inverse_functions = false;
    pushdown = false;
    cost_based = false;
    ppk_k = 1;
    ppk_prefetch = 0;
    (* the reference always sorts in memory, whatever the environment
       says: it is the unbounded baseline spilled runs are compared to *)
    sort_budget_rows = None }

(* Every field participates: two option records compile a query
   differently exactly when their fingerprints differ, which is what the
   plan cache keys on. *)
let options_fingerprint o =
  Printf.sprintf "iv=%b;ij=%b;ec=%b;inv=%b;pd=%b;cb=%b;k=%d;pf=%d;sb=%s"
    o.inline_views o.introduce_joins o.eliminate_constructors
    o.use_inverse_functions o.pushdown o.cost_based o.ppk_k o.ppk_prefetch
    (match o.sort_budget_rows with None -> "-" | Some n -> string_of_int n)

type t = {
  registry : Metadata.t;
  opts : options;
  workers : int;  (* size of the pool PP-k prefetches on *)
  counter : int ref;
  view_body : Metadata.function_def -> C.t -> C.t;
      (* what view unfolding splices in for a function's body *)
}

let create ?(options = default_options) ?workers
    ?(view_body = fun _ body -> body) registry =
  let workers =
    match workers with Some w -> w | None -> Pool.size (Pool.default ())
  in
  { registry; opts = options; workers; counter = ref 0; view_body }

let fresh t () =
  incr t.counter;
  !(t.counter)

(* ------------------------------------------------------------------ *)
(* Small analyses                                                      *)

let count_var = C.count_occurrences

let count_var_clauses v clauses return_ = C.count_uses v clauses return_

let unwrap_ebv = C.unwrap_ebv
let conjuncts = C.conjuncts

let conjoin cs =
  let cs =
    List.filter
      (function
        | C.Const (Atomic.Boolean true) | C.Ebv (C.Const (Atomic.Boolean true))
          -> false
        | _ -> true)
      cs
  in
  match cs with
  | [] -> C.Ebv (C.Const (Atomic.Boolean true))
  | [ c ] -> C.Ebv (unwrap_ebv c)
  | first :: rest ->
    List.fold_left
      (fun acc c -> C.Binop (C.And, acc, C.Ebv (unwrap_ebv c)))
      (C.Ebv (unwrap_ebv first))
      rest

(* A predicate whose value is boolean-like (so a filter over it is not a
   positional filter). *)
let boolean_pred = function
  | C.Ebv _ | C.Quantified _ | C.Castable _ | C.Instance_of _ -> true
  | C.Binop ((C.V_eq | C.V_ne | C.V_lt | C.V_le | C.V_gt | C.V_ge
             | C.G_eq | C.G_ne | C.G_lt | C.G_le | C.G_gt | C.G_ge
             | C.And | C.Or), _, _) -> true
  | C.Const (Atomic.Boolean _) -> true
  | C.Call { fn; _ } ->
    Qname.equal fn (Names.fn "exists")
    || Qname.equal fn (Names.fn "empty")
    || Qname.equal fn (Names.fn "not")
    || Qname.equal fn (Names.fn "contains")
    || Qname.equal fn (Names.fn "starts-with")
    || Qname.equal fn (Names.fn "boolean")
  | _ -> false

(* Expressions that produce only atomic values (no nodes), used by
   constructor elimination to drop non-matching content parts. *)
let all_atomic_items (ty : Stype.t) =
  ty.Stype.items <> []
  && List.for_all
       (function Stype.It_atomic _ -> true | _ -> false)
       ty.Stype.items

let rec atomic_producer registry = function
  | C.Const _ | C.Data _ | C.Cast _ | C.Ebv _ | C.Castable _
  | C.Instance_of _ | C.Quantified _ | C.Attr_of _ | C.Empty ->
    true
  | C.Binop (_, _, _) -> true
  | C.Seq es -> List.for_all (atomic_producer registry) es
  | C.If { then_; else_; _ } ->
    atomic_producer registry then_ && atomic_producer registry else_
  | C.Typematch (e, ty) -> all_atomic_items ty || atomic_producer registry e
  | C.Call { fn; args } -> (
    match Metadata.resolve_call registry fn (List.length args) with
    | Some fd -> all_atomic_items fd.Metadata.fd_return
    | None -> (
      match Fn_lib.find fn (List.length args) with
      | Some b -> all_atomic_items (b.Fn_lib.return_type (List.length args))
      | None -> false))
  | _ -> false

let content_parts = function
  | C.Seq es -> es
  | C.Empty -> []
  | e -> [ e ]

(* The children named [n] of an element whose content is [parts], as a
   function of [n]; [None] when some part is neither an element
   constructor nor atomic, so the children cannot be told apart
   statically. *)
let child_projection registry parts =
  if
    not
      (List.for_all
         (function C.Elem _ -> true | p -> atomic_producer registry p)
         parts)
  then None
  else
    Some
      (fun n ->
        C.seq
          (List.filter_map
             (function
               | C.Elem { name; _ } as p when Qname.equal name n -> Some p
               | _ -> None)
             parts))

let references_any vars e =
  let fv = C.free_vars e () in
  List.exists (fun v -> Hashtbl.mem fv v) vars

(* ------------------------------------------------------------------ *)
(* Rules                                                               *)

(* --- view unfolding: function inlining ----------------------------- *)

let rec query_independent_rules t =
  [ rule_let_substitution t;
    rule_flwor_flatten t;
    rule_filter_to_where t;
    rule_filter_over_flwor t;
    rule_filter_to_flwor t;
    rule_for_singleton_elem;
    rule_where_split;
    rule_data_simplify t;
    rule_child_elim t;
    rule_attr_elim t;
    rule_project_through_let t;
    rule_typematch_simplify;
    rule_seq_data_distribute;
    rule_dead_let ]

and rule_inline t =
  { Rewrite.rule_name = "inline-view";
    apply =
      (fun e ->
        match e with
        | C.Call { fn; args } -> (
          match Metadata.resolve_call t.registry fn (List.length args) with
          | Some ({ Metadata.fd_impl = Metadata.Body body; _ } as fd)
            when not fd.Metadata.fd_cacheable ->
            let body = C.rename_bound (fresh t) (t.view_body fd body) in
            let lets =
              List.map2
                (fun (param, _) arg -> C.Let { var = param; value = arg })
                fd.Metadata.fd_params args
            in
            Some
              (if lets = [] then body
               else C.Flwor { clauses = lets; return_ = body })
          | _ -> None)
        | _ -> None) }

(* --- let substitution and cleanup ---------------------------------- *)

and used_as_agg_input v clauses =
  (* Group aggregation inputs are positional references; substitution can
     replace them only with another variable *)
  let rec in_clause = function
    | C.Group { aggs; _ } -> List.exists (fun (v_in, _) -> v_in = v) aggs
    | C.Join { right; _ } -> List.exists in_clause right
    | _ -> false
  in
  List.exists in_clause clauses

and rule_let_substitution t =
  { Rewrite.rule_name = "let-substitute";
    apply =
      (fun e ->
        match e with
        | C.Flwor { clauses; return_ } ->
          (* a let binding a direct external-function call stays a let even
             when used once: the evaluator submits independent source-call
             lets to the worker pool together, and inlining the call into
             its use site would serialize them again *)
          let rec find before = function
            | [] -> None
            | (C.Let { var; value } as l) :: rest
              when (match value with C.Var _ -> false | _ -> true)
                   && used_as_agg_input var rest ->
              find (l :: before) rest
            | (C.Let { var; value } as l) :: rest ->
              let cheap =
                match value with C.Var _ | C.Const _ | C.Empty -> true | _ -> false
              in
              let uses = count_var_clauses var rest return_ in
              if
                (cheap || uses <= 1)
                && not (Metadata.external_call t.registry value)
              then
                match
                  C.substitute [ (var, value) ]
                    (C.Flwor { clauses = rest; return_ })
                with
                | C.Flwor { clauses = rest'; return_ = return' } ->
                  Some (List.rev_append before rest', return')
                | _ -> None
              else find (l :: before) rest
            | c :: rest -> find (c :: before) rest
          in
          (match find [] clauses with
          | Some (clauses', return') ->
            Some (C.Flwor { clauses = clauses'; return_ = return' })
          | None -> None)
        | _ -> None) }

and rule_dead_let =
  { Rewrite.rule_name = "dead-let";
    apply =
      (fun e ->
        match e with
        | C.Flwor { clauses; return_ } ->
          let rec drop before = function
            | [] -> None
            | (C.Let { var; value = _ } as l) :: rest ->
              if count_var_clauses var rest return_ = 0 then
                Some (List.rev_append before rest)
              else drop (l :: before) rest
            | (C.Join j as c) :: rest -> (
              (* a right-side let (a row reconstruction, typically) that
                 neither the later right clauses, the ON predicate, a
                 grouped export nor anything after the join reads *)
              let unread var later =
                count_var_clauses var later j.on_ = 0
                && (match j.export with
                   | C.Bindings -> true
                   | C.Grouped { gexpr; _ } -> count_var var gexpr = 0)
                && count_var_clauses var rest return_ = 0
              in
              let rec drop_right before = function
                | [] -> None
                | C.Let { var; _ } :: later when unread var later ->
                  Some (List.rev_append before later)
                | c :: later -> drop_right (c :: before) later
              in
              match drop_right [] j.right with
              | Some right ->
                Some (List.rev_append before (C.Join { j with right } :: rest))
              | None -> drop (c :: before) rest)
            | c :: rest -> drop (c :: before) rest
          in
          (match drop [] clauses with
          | Some clauses' -> Some (C.Flwor { clauses = clauses'; return_ })
          | None -> None)
        | _ -> None) }

(* --- FLWOR flattening (un-nesting) --------------------------------- *)

and rule_flwor_flatten _t =
  { Rewrite.rule_name = "flwor-flatten";
    apply =
      (fun e ->
        match e with
        | C.Flwor { clauses = []; return_ } -> Some return_
        | C.Flwor { clauses; return_ = C.Flwor { clauses = inner; return_ } } ->
          Some (C.Flwor { clauses = clauses @ inner; return_ })
        | C.Flwor { clauses; return_ } ->
          (* for $x in (flwor) ~> splice the inner pipeline *)
          let rec splice before = function
            | [] -> None
            | C.For { var; source = C.Flwor { clauses = inner; return_ = ret } }
              :: rest ->
              Some
                (List.rev_append before
                   (inner @ (C.For { var; source = ret } :: rest)))
            | c :: rest -> splice (c :: before) rest
          in
          (match splice [] clauses with
          | Some clauses' -> Some (C.Flwor { clauses = clauses'; return_ })
          | None -> None)
        | _ -> None) }

(* --- filters -------------------------------------------------------- *)

and rule_filter_to_where _t =
  { Rewrite.rule_name = "filter-to-where";
    apply =
      (fun e ->
        match e with
        | C.Flwor { clauses; return_ } ->
          let rec transform before = function
            | [] -> None
            | C.For { var; source = C.Filter { input; dot; pos; pred } } :: rest
              when boolean_pred (unwrap_ebv pred) && count_var pos pred = 0 ->
              let pred' = C.substitute [ (dot, C.Var var) ] pred in
              Some
                (List.rev_append before
                   (C.For { var; source = input }
                   :: C.Where (C.Ebv pred')
                   :: rest))
            | c :: rest -> transform (c :: before) rest
          in
          (match transform [] clauses with
          | Some clauses' -> Some (C.Flwor { clauses = clauses'; return_ })
          | None -> None)
        | _ -> None) }

(* Any non-positional filter is a FLWOR: e[p] == for $d in e where p($d)
   return $d. This exposes source filters (e.g. CC()[CID eq $c/CID]) to
   join introduction and pushdown. *)
and rule_filter_to_flwor t =
  { Rewrite.rule_name = "filter-to-flwor";
    apply =
      (fun e ->
        match e with
        | C.Filter { input; dot; pos; pred }
          when boolean_pred (unwrap_ebv pred)
               && count_var pos pred = 0
               && (match input with
                  | C.Call _ | C.Flwor _ | C.Var _ -> true
                  | _ -> false) ->
          let v = Printf.sprintf "dot~%d" (fresh t ()) in
          let pred' = C.substitute [ (dot, C.Var v) ] pred in
          Some
            (C.Flwor
               { clauses =
                   [ C.For { var = v; source = input };
                     C.Where (C.Ebv pred') ];
                 return_ = C.Var v })
        | _ -> None) }

and rule_filter_over_flwor t =
  { Rewrite.rule_name = "filter-over-flwor";
    apply =
      (fun e ->
        match e with
        | C.Filter
            { input =
                C.Flwor
                  { clauses;
                    return_ =
                      C.Elem { optional = false; name; attrs; content } };
              dot;
              pos;
              pred }
          when boolean_pred (unwrap_ebv pred) && count_var pos pred = 0 ->
          let v = Printf.sprintf "dot~%d" (fresh t ()) in
          let pred' = C.substitute [ (dot, C.Var v) ] pred in
          Some
            (C.Flwor
               { clauses =
                   clauses
                   @ [ C.Let
                         { var = v;
                           value =
                             C.Elem { optional = false; name; attrs; content } };
                       C.Where (C.Ebv pred') ];
                 return_ = C.Var v })
        | _ -> None) }

(* Field access through a let-bound constructor: with let $c := <E>...</E>
   in scope, later references $c/F project the matching content part
   statically — without substituting the whole constructor (which could
   duplicate expensive source calls). This is what lets a predicate over a
   view's field reach the underlying column (§4.2, §4.5). *)
and rule_project_through_let t =
  { Rewrite.rule_name = "project-through-let";
    apply =
      (fun e ->
        if not t.opts.eliminate_constructors then None
        else
          match e with
          | C.Flwor { clauses; return_ } ->
            let changed = ref false in
            let rec rewrite_with proj var e =
              match e with
              | C.Child (C.Var v, n) when v = var ->
                changed := true;
                proj n
              | C.Flwor _ | C.Filter _ | C.Quantified _ ->
                (* conservatively stop at binder scopes other than direct
                   traversal; names are unique so descending is safe *)
                C.map_children (rewrite_with proj var) e
              | e -> C.map_children (rewrite_with proj var) e
            in
            let rec scan before = function
              | [] -> None
              | (C.Let { var; value = C.Elem { optional = false; content; _ } }
                 as l)
                :: rest -> (
                match child_projection t.registry (content_parts content) with
                | Some proj ->
                  changed := false;
                  let rest' =
                    List.map
                      (C.map_clause (fun e -> rewrite_with proj var e))
                      rest
                  in
                  let return' = rewrite_with proj var return_ in
                  if !changed then
                    Some (List.rev_append before (l :: rest'), return')
                  else scan (l :: before) rest
                | None -> scan (l :: before) rest)
              | c :: rest -> scan (c :: before) rest
            in
            (match scan [] clauses with
            | Some (clauses', return') ->
              Some (C.Flwor { clauses = clauses'; return_ = return' })
            | None -> None)
          | _ -> None) }

(* A for over a non-optional element constructor binds exactly one item:
   turn it into a let so field projection applies. *)
and rule_for_singleton_elem =
  { Rewrite.rule_name = "for-singleton-constructor";
    apply =
      (fun e ->
        match e with
        | C.Flwor { clauses; return_ } ->
          let rec fix before = function
            | [] -> None
            | C.For { var; source = C.Elem ({ optional = false; _ } as el) }
              :: rest ->
              Some
                (List.rev_append before
                   (C.Let { var; value = C.Elem el } :: rest))
            | c :: rest -> fix (c :: before) rest
          in
          (match fix [] clauses with
          | Some clauses' -> Some (C.Flwor { clauses = clauses'; return_ })
          | None -> None)
        | _ -> None) }

(* --- where conjunct splitting --------------------------------------- *)

and rule_where_split =
  { Rewrite.rule_name = "where-split";
    apply =
      (fun e ->
        match e with
        | C.Flwor { clauses; return_ } ->
          let rec split before = function
            | [] -> None
            | C.Where w :: rest -> (
              match conjuncts w with
              | [] | [ _ ] -> split (C.Where w :: before) rest
              | cs ->
                Some
                  (List.rev_append before
                     (List.map (fun c -> C.Where (C.Ebv c)) cs @ rest)))
            | c :: rest -> split (c :: before) rest
          in
          (match split [] clauses with
          | Some clauses' -> Some (C.Flwor { clauses = clauses'; return_ })
          | None -> None)
        | _ -> None) }

(* --- constructor / source-access elimination ------------------------ *)

and rule_child_elim t =
  { Rewrite.rule_name = "constructor-child-elimination";
    apply =
      (fun e ->
        if not t.opts.eliminate_constructors then None
        else
          match e with
          | C.Child (C.Elem { optional = false; content; _ }, n) ->
            Option.map
              (fun proj -> proj n)
              (child_projection t.registry (content_parts content))
          | _ -> None) }

and rule_attr_elim t =
  { Rewrite.rule_name = "constructor-attribute-elimination";
    apply =
      (fun e ->
        if not t.opts.eliminate_constructors then None
        else
          match e with
          | C.Attr_of (C.Elem { optional = false; attrs; _ }, n) -> (
            match
              List.find_opt (fun a -> Qname.equal a.C.aname n) attrs
            with
            | Some a when atomic_producer t.registry a.C.avalue ->
              Some (C.Data a.C.avalue)
            | Some _ -> None
            | None -> Some C.Empty)
          | _ -> None) }

and rule_data_simplify t =
  { Rewrite.rule_name = "data-simplify";
    apply =
      (fun e ->
        match e with
        | C.Data (C.Data inner) -> Some (C.Data inner)
        | C.Data (C.Const a) -> Some (C.Const a)
        | C.Data C.Empty -> Some C.Empty
        | C.Data (C.Cast (x, ty)) -> Some (C.Cast (x, ty))
        | C.Data (C.Binop (op, a, b))
          when (match op with
               | C.Add | C.Sub | C.Mul | C.Div | C.Idiv | C.Mod
               | C.V_eq | C.V_ne | C.V_lt | C.V_le | C.V_gt | C.V_ge
               | C.G_eq | C.G_ne | C.G_lt | C.G_le | C.G_gt | C.G_ge
               | C.And | C.Or | C.Range -> true) ->
          Some (C.Binop (op, a, b))
        | C.Data (C.If { cond; then_; else_ }) ->
          Some (C.If { cond; then_ = C.Data then_; else_ = C.Data else_ })
        | C.Data (C.Elem { optional = _; content; _ })
          when List.for_all (atomic_producer t.registry) (content_parts content) ->
          (* structural typing: data() of a constructed element with typed
             content is the content itself (§3.1) *)
          Some (C.seq (List.map (fun p -> C.Data p) (content_parts content)))
        | C.Ebv (C.Ebv inner) -> Some (C.Ebv inner)
        | C.Ebv (C.Const (Atomic.Boolean _) as b) -> Some b
        | _ -> None) }

(* Typematch over a FLWOR with a star-occurrence type distributes to the
   per-tuple return value; a typematch over an element constructor whose
   name satisfies the type (and which imposes no simple-content
   constraint) is statically satisfied and drops. Both keep runtime
   semantics: the evaluator's typematch checks exactly name and simple
   content. *)
and rule_typematch_simplify =
  { Rewrite.rule_name = "typematch-simplify";
    apply =
      (fun e ->
        match e with
        | C.Typematch (C.Flwor { clauses; return_ }, ty)
          when (not ty.Stype.occ.Stype.at_least_one)
               && not ty.Stype.occ.Stype.at_most_one ->
          Some
            (C.Flwor
               { clauses;
                 return_ =
                   C.Typematch
                     (return_, { ty with Stype.occ = Stype.occ_star }) })
        | C.Typematch ((C.Elem { name; optional = false; _ } as elem), ty) ->
          let satisfied =
            List.exists
              (function
                | Stype.It_element { elem_name = Some n; simple = None; _ } ->
                  Qname.equal n name
                | Stype.It_element { elem_name = None; simple = None; _ }
                | Stype.It_node | Stype.It_item ->
                  true
                | _ -> false)
              ty.Stype.items
          in
          if satisfied then Some elem else None
        | C.Typematch (C.Const a, ty)
          when Stype.subtype
                 (Stype.atomic (Atomic.type_of a))
                 { ty with Stype.occ = Stype.occ_one } ->
          Some (C.Const a)
        | _ -> None) }

and rule_seq_data_distribute =
  { Rewrite.rule_name = "data-over-seq";
    apply =
      (fun e ->
        match e with
        | C.Data (C.Seq es) -> Some (C.seq (List.map (fun x -> C.Data x) es))
        | _ -> None) }

(* --- where pushdown (clause reordering) ----------------------------- *)

let rule_where_pushdown =
  { Rewrite.rule_name = "where-pushdown";
    apply =
      (fun e ->
        match e with
        | C.Flwor { clauses; return_ } ->
          (* move a Where leftwards past clauses that do not bind its free
             variables (never across Group) *)
          let rec bubble before = function
            | [] -> None
            | C.Where w :: rest -> (
              let fv = C.free_vars w () in
              let blocked = function
                | C.Group _ | C.Order _ -> true
                | c -> List.exists (fun v -> Hashtbl.mem fv v) (C.clause_vars [ c ])
              in
              match before with
              | prev :: earlier when not (blocked prev) ->
                Some (List.rev_append earlier (C.Where w :: prev :: rest))
              | _ -> bubble (C.Where w :: before) rest)
            | c :: rest -> bubble (c :: before) rest
          in
          (match bubble [] clauses with
          | Some clauses' -> Some (C.Flwor { clauses = clauses'; return_ })
          | None -> None)
        | _ -> None) }

(* --- join introduction ----------------------------------------------- *)

(* A join-introduction rule: [rewrite clauses return_] of each FLWOR,
   while join introduction is on. *)
let join_rule t name rewrite =
  { Rewrite.rule_name = name;
    apply =
      (fun e ->
        match e with
        | C.Flwor { clauses; return_ } when t.opts.introduce_joins ->
          rewrite clauses return_
        | _ -> None) }

(* [For f; Where w...] where w spans f and earlier vars becomes an inner
   join with f as the right branch (§4.3). *)
let rule_join_intro t =
  join_rule t "join-introduction" (fun clauses return_ ->
      let rec scan bound before = function
        | [] -> None
        | (C.For { var; source } as f) :: rest when bound <> [] ->
          (* collect following Wheres that reference both sides *)
          let rec take_wheres ws tail =
            match tail with
            | C.Where w :: more
              when references_any [ var ] w && references_any bound w ->
              take_wheres (w :: ws) more
            | _ -> (List.rev ws, tail)
          in
          let wheres, tail = take_wheres [] rest in
          if wheres = [] then
            scan (var :: bound) (f :: before) rest
          else
            let on_ = conjoin (List.concat_map conjuncts wheres) in
            Some
              (List.rev_append before
                 (C.Join
                    { kind = C.J_inner;
                      method_ = C.Nested_loop;
                      right = [ C.For { var; source } ];
                      on_;
                      export = C.Bindings }
                 :: tail))
        | c :: rest -> scan (C.clause_vars [ c ] @ bound) (c :: before) rest
      in
      (match scan [] [] clauses with
      | Some clauses' -> Some (C.Flwor { clauses = clauses'; return_ })
      | None -> None))

(* let $v := (dependent flwor) becomes a grouped left outer join: "joins
   that occur inside lets are rewritten as left outer joins and brought
   out into the outer FLWR" (§4.3). An aggregate over a dependent FLWOR
   (let $n := count(flwor)) is the same rewrite with the aggregate applied
   to the grouped variable — pattern (g) of Table 2. *)
let rule_let_flwor_to_join t =
  join_rule t "let-flwor-to-outer-join" (fun clauses return_ ->
      let hoistable bound inner ret =
        bound <> []
        && references_any bound (C.Flwor { clauses = inner; return_ = ret })
        && List.exists
             (function C.For _ | C.Rel _ -> true | _ -> false)
             inner
      in
      let join gvar inner ret =
        C.Join
          { kind = C.J_left_outer;
            method_ = C.Nested_loop;
            right = inner;
            on_ = C.Ebv (C.Const (Atomic.Boolean true));
            export = C.Grouped { gvar; gexpr = ret } }
      in
      let rec transform bound before = function
        | [] -> None
        | C.Let { var; value = C.Flwor { clauses = inner; return_ = ret } }
          :: rest
          when hoistable bound inner ret ->
          Some (List.rev_append before (join var inner ret :: rest))
        | C.Let
            { var;
              value =
                C.Call
                  { fn;
                    args = [ C.Flwor { clauses = inner; return_ = ret } ]
                  } }
          :: rest
          when Fn_lib.is_aggregate fn && hoistable bound inner ret ->
          let tmp = Printf.sprintf "agg~%d" (fresh t ()) in
          Some
            (List.rev_append before
               (join tmp inner ret
               :: C.Let
                    { var; value = C.Call { fn; args = [ C.Var tmp ] } }
               :: rest))
        | c :: rest ->
          transform (C.clause_vars [ c ] @ bound) (c :: before) rest
      in
      (match transform [] [] clauses with
      | Some clauses' -> Some (C.Flwor { clauses = clauses'; return_ })
      | None -> None))

(* Nested FLWORs in the return expression (e.g. <ORDERS>{for $o ...}</ORDERS>)
   hoist into grouped left outer joins (§4.2: outer-join + group-by brings
   the data to be nested together). *)
let rule_return_flwor_hoist t =
  join_rule t "return-flwor-hoist" (fun clauses return_ ->
      let bound = C.clause_vars clauses in
      if bound = [] then None
      else
        let found = ref None in
        (* walk only always-evaluated positions *)
        let rec search in_scope e =
          if !found <> None then e
          else
            match e with
            | C.Flwor { clauses = inner; _ }
              when references_any bound e
                   && (not (references_any in_scope e))
                   && List.exists
                        (function C.For _ | C.Rel _ -> true | _ -> false)
                        inner ->
              let gvar = Printf.sprintf "nest~%d" (fresh t ()) in
              found := Some (gvar, e);
              C.Var gvar
            | C.Seq es -> C.Seq (List.map (search in_scope) es)
            | C.Elem { name; optional; attrs; content } ->
              let attrs =
                List.map
                  (fun a -> { a with C.avalue = search in_scope a.C.avalue })
                  attrs
              in
              C.Elem
                { name; optional; attrs; content = search in_scope content }
            | C.Data x -> C.Data (search in_scope x)
            | C.Cast (x, ty) -> C.Cast (search in_scope x, ty)
            | C.Binop (op, a, b) ->
              C.Binop (op, search in_scope a, search in_scope b)
            | C.Call { fn; args }
              when (match Fn_lib.find fn (List.length args) with
                   | Some b -> not b.Fn_lib.special
                   | None -> false) ->
              C.Call { fn; args = List.map (search in_scope) args }
            | e -> e
        in
        let return' = search [] return_ in
        (match !found with
        | Some (gvar, C.Flwor { clauses = inner; return_ = ret }) ->
          Some
            (C.Flwor
               { clauses =
                   clauses
                   @ [ C.Join
                         { kind = C.J_left_outer;
                           method_ = C.Nested_loop;
                           right = inner;
                           on_ = C.Ebv (C.Const (Atomic.Boolean true));
                           export = C.Grouped { gvar; gexpr = ret } } ];
                 return_ = return' })
        | _ -> None))

(* Pull dependent Wheres out of a join's right branch into the on_
   predicate, so method selection and SQL translation can see them. *)
let rule_join_on_extraction =
  { Rewrite.rule_name = "join-on-extraction";
    apply =
      (fun e ->
        match e with
        | C.Flwor { clauses; return_ } ->
          let transform_join before j rest =
            match j with
            | C.Join { kind; method_; right; on_; export } ->
              let right_bound = C.clause_vars right in
              let wheres, others =
                List.partition
                  (function
                    | C.Where w ->
                      (* dependent on something outside the right branch *)
                      let fv = C.free_vars w () in
                      Hashtbl.fold
                        (fun v _ acc -> acc || not (List.mem v right_bound))
                        fv false
                    | _ -> false)
                  right
              in
              if wheres = [] then None
              else
                let extra =
                  List.concat_map
                    (function C.Where w -> conjuncts w | _ -> [])
                    wheres
                in
                let on' = conjoin (conjuncts on_ @ extra) in
                Some
                  (List.rev_append before
                     (C.Join { kind; method_; right = others; on_ = on'; export }
                     :: rest))
            | _ -> None
          in
          let rec scan before = function
            | [] -> None
            | (C.Join _ as j) :: rest -> (
              match transform_join before j rest with
              | Some clauses' -> Some clauses'
              | None -> scan (j :: before) rest)
            | c :: rest -> scan (c :: before) rest
          in
          (match scan [] clauses with
          | Some clauses' -> Some (C.Flwor { clauses = clauses'; return_ })
          | None -> None)
        | _ -> None) }

(* --- inverse functions (§4.5) ---------------------------------------- *)

let rule_inverse t =
  { Rewrite.rule_name = "inverse-function";
    apply =
      (fun e ->
        if not t.opts.use_inverse_functions then None
        else
          let comparison = function
            | C.V_eq | C.V_ne | C.V_lt | C.V_le | C.V_gt | C.V_ge
            | C.G_eq | C.G_ne | C.G_lt | C.G_le | C.G_gt | C.G_ge ->
              true
            | _ -> false
          in
          let rewrite_side fn_call other build =
            match fn_call with
            | C.Call { fn; args = [ x ] }
            | C.Data (C.Call { fn; args = [ x ] }) -> (
              match Metadata.transform_of t.registry fn with
              | Some inverse ->
                Some (build x (C.Call { fn = inverse; args = [ other ] }))
              | None -> None)
            | _ -> None
          in
          (* equality against a multi-argument transformation decomposes
             componentwise: f(x, y) eq v  ~>  x eq g1(v) and y eq g2(v) *)
          let decompose_multi fn_call other =
            match fn_call with
            | C.Call { fn; args }
            | C.Data (C.Call { fn; args })
              when List.length args >= 2 -> (
              match Metadata.projections_of t.registry fn with
              | Some projections when List.length projections = List.length args
                ->
                let conjuncts =
                  List.map2
                    (fun arg proj ->
                      C.Binop
                        ( C.V_eq,
                          C.Data arg,
                          C.Data (C.Call { fn = proj; args = [ other ] }) ))
                    args projections
                in
                Some (conjoin conjuncts)
              | _ -> None)
            | _ -> None
          in
          match e with
          | C.Binop (((C.V_eq | C.G_eq) as op), a, b) -> (
            match decompose_multi a b with
            | Some e' -> Some e'
            | None -> (
              match decompose_multi b a with
              | Some e' -> Some e'
              | None -> (
                match
                  rewrite_side a b (fun x g ->
                      C.Binop (op, C.Data x, C.Data g))
                with
                | Some e' -> Some e'
                | None ->
                  rewrite_side b a (fun x g ->
                      C.Binop (op, C.Data g, C.Data x)))))
          | C.Binop (op, a, b) when comparison op -> (
            match rewrite_side a b (fun x g -> C.Binop (op, C.Data x, C.Data g)) with
            | Some e' -> Some e'
            | None ->
              rewrite_side b a (fun x g -> C.Binop (op, C.Data g, C.Data x)))
          | _ -> None) }

(* ------------------------------------------------------------------ *)
(* Join method selection (post-pushdown)                               *)

(* PP-k parameters for a parameterized right side: with cost-based
   selection on, k and prefetch are the cheapest block plan for the outer
   estimate against the probed region ({!Cost_model.choose_ppk}); off,
   the configured knobs apply unchanged (the explicit override path). *)
let ppk_method t ~outer (r : C.sql_access) =
  if t.opts.cost_based then
    let k, prefetch =
      Cost_model.choose_ppk
        (Cost_model.ppk_probe t.registry r)
        ~outer ~workers:t.workers
    in
    C.Ppk { k; prefetch }
  else C.Ppk { k = t.opts.ppk_k; prefetch = max 0 t.opts.ppk_prefetch }

let parameterize_gate t ~outer ~whole probe =
  (not t.opts.cost_based)
  || Option.is_some
       (Cost_model.parameterize_beneficial
          (Cost_model.ppk_probe t.registry probe)
          ~outer:(Cost_model.clauses_cardinality t.registry outer)
          ~workers:t.workers
          ~inner_rows:(Cost_model.rel_cardinality t.registry whole))

(* NL vs index-NL for a structurally eligible (independent, equi-keyed)
   right side: probe + expected matches per outer tuple against scanning
   the inner once per outer tuple. Ties keep the index. *)
let inl_beats_nl t ~outer right' =
  match (outer, Cost_model.clauses_cardinality t.registry right') with
  | Some o, Some inner when o > 0 && inner > 0 ->
    let fo = float_of_int o in
    let matches = float_of_int (max o inner) /. fo in
    Cost_model.index_nl_cost ~outer:fo ~matches
    <= Cost_model.nested_loop_cost ~outer:fo ~inner:(float_of_int inner)
  | _ -> true

let rec select_methods_clauses t bound outer_est clauses =
  (* method choice never changes a clause's cardinality, so the input
     pipeline's estimates price every join's outer side *)
  let rev_clauses, _, _ =
    List.fold_left2
      (fun (acc, bound, est) clause est_out ->
        let clause' =
          match clause with
          | C.Join { kind; method_ = C.Nested_loop; right; on_; export } ->
            let right' = select_methods_clauses t bound est right in
            let right_vars = C.clause_vars right' in
            let method_ =
              match right' with
              | C.Rel r :: rest_lets
                when r.C.sql_params <> []
                     && List.for_all
                          (function C.Let _ -> true | _ -> false)
                          rest_lets ->
                ppk_method t ~outer:est r
              | _ ->
                let depends_on_left =
                  references_any bound
                    (C.Flwor { clauses = right'; return_ = C.Empty })
                in
                if
                  (not depends_on_left)
                  && C.equi_join_keys ~right_vars on_ <> None
                  && ((not t.opts.cost_based)
                     || inl_beats_nl t ~outer:est right')
                then C.Index_nested_loop
                else C.Nested_loop
            in
            C.Join { kind; method_; right = right'; on_; export }
          | C.Join { kind; method_; right; on_; export } ->
            C.Join
              { kind;
                method_;
                right = select_methods_clauses t bound est right;
                on_;
                export }
          | c -> c
        in
        (clause' :: acc, C.clause_vars [ clause' ] @ bound, est_out))
      ([], bound, outer_est) clauses
      (Cost_model.estimates t.registry outer_est clauses)
  in
  List.rev rev_clauses

let rec select_methods t e =
  let e = C.map_children (select_methods t) e in
  match e with
  | C.Flwor { clauses; return_ } ->
    C.Flwor { clauses = select_methods_clauses t [] (Some 1) clauses; return_ }
  | e -> e

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

(* Source reordering: for two adjacent independent source iterations,
   pick as the outer (left) branch the one minimizing
   latency(L) + cardinality(L) * latency(R) — the outer runs once, the
   inner once per outer tuple under nested evaluation. Reordering changes
   FLWOR tuple order, so it only applies when a later order-by
   re-establishes the result order. [pair_costs fa fb] returns the
   (as-written, swapped) costs, or [None] to leave the pair alone; both
   costs must come from the same basis (static or observed), never
   mixed. *)
let reorder_with pair_costs e =
  let source_fn = function
    | C.Call { fn; args = [] } -> Some fn
    | _ -> None
  in
  let rec fix clauses =
    match clauses with
    | (C.For { var = va; source = sa } as a)
      :: (C.For { var = vb; source = sb } as b)
      :: rest
      when (not (references_any [ va ] sb))
           && Option.is_some (source_fn sa)
           && Option.is_some (source_fn sb) -> (
      ignore vb;
      let fa = Option.get (source_fn sa) and fb = Option.get (source_fn sb) in
      match pair_costs fa fb with
      | Some (as_is, swapped) when swapped < as_is ->
        b :: fix (a :: rest)
      | _ -> a :: fix (b :: rest))
    | c :: rest -> c :: fix rest
    | [] -> []
  in
  let rec go e =
    let e = C.map_children go e in
    match e with
    | C.Flwor { clauses; return_ }
      when List.exists (function C.Order _ -> true | _ -> false) clauses ->
      C.Flwor { clauses = fix clauses; return_ }
    | e -> e
  in
  go e

let observed_pair_costs observed fa fb =
  let cost outer inner =
    match (Observed.observed observed outer, Observed.observed observed inner) with
    | Some o, Some i ->
      Some
        (o.Observed.mean_latency
        +. (o.Observed.mean_cardinality *. i.Observed.mean_latency))
    | _ -> None
  in
  match (cost fa fb, cost fb fa) with
  | Some a, Some b -> Some (a, b)
  | _ -> None

(* Source ordering (§9). With the cost model on, each pair is priced from
   the sources' declared latency profiles and exact row counts; a pair
   the statistics layer cannot price (services, procedures), and every
   pair with the cost model off, is priced from observed samples. *)
let reorder_sources t ?observed e =
  let static_cost outer inner =
    match
      ( Cost_model.source_profile t.registry outer,
        Cost_model.source_cardinality t.registry outer,
        Cost_model.source_profile t.registry inner )
    with
    | Some po, Some co, Some pi when t.opts.cost_based ->
      Some
        (po.Cost_model.p_latency
        +. (float_of_int co *. pi.Cost_model.p_latency))
    | _ -> None
  in
  let pair_costs fa fb =
    match (static_cost fa fb, static_cost fb fa) with
    | Some a, Some b -> Some (a, b)
    | _ -> Option.bind observed (fun obs -> observed_pair_costs obs fa fb)
  in
  reorder_with pair_costs e

let cleanup t e = fst (Rewrite.run (query_independent_rules t) e)

let all_rules t =
  (if t.opts.inline_views then [ rule_inline t ] else [])
  @ query_independent_rules t
  @ [ rule_where_pushdown;
      rule_let_flwor_to_join t;
      rule_return_flwor_hoist t;
      rule_join_intro t;
      rule_join_on_extraction ]
  @ if t.opts.use_inverse_functions then [ rule_inverse t ] else []

let optimize t e = Rewrite.run (all_rules t) e
