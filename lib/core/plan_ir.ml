open Aldsp_xml
module C = Cexpr
module Database = Aldsp_relational.Database
module Sql_print = Aldsp_relational.Sql_print

type counters = {
  mutable c_starts : int;
  mutable c_rows : int;
  mutable c_roundtrips : int;
  mutable c_wall : float;
  mutable c_first_row_ns : float;
  mutable c_more : more;
}

and more = {
  mutable c_cache_hits : int;
  mutable c_cache_misses : int;
  mutable c_shared : int;
  mutable c_spill_runs : int;
  mutable c_spill_rows : int;
  mutable c_spill_bytes : int;
  mutable c_merge_fanin : int;
  mutable c_backend : string list;
}

let zero_more () =
  { c_cache_hits = 0; c_cache_misses = 0; c_shared = 0; c_spill_runs = 0;
    c_spill_rows = 0; c_spill_bytes = 0; c_merge_fanin = 0; c_backend = [] }

(* Shared by every counter until its first write to [more]: only [more]
   below replaces it, and nothing writes into it. *)
let no_more = zero_more ()

let more c =
  if c.c_more == no_more then c.c_more <- zero_more ();
  c.c_more

let count_cache c ~hit =
  let m = more c in
  if hit then m.c_cache_hits <- m.c_cache_hits + 1
  else m.c_cache_misses <- m.c_cache_misses + 1

let count_shared c =
  let m = more c in
  m.c_shared <- m.c_shared + 1

let count_spill c ~runs ~rows ~bytes ~fanin =
  let m = more c in
  m.c_spill_runs <- m.c_spill_runs + runs;
  m.c_spill_rows <- m.c_spill_rows + rows;
  m.c_spill_bytes <- m.c_spill_bytes + bytes;
  m.c_merge_fanin <- max m.c_merge_fanin fanin

let set_backend c lines = (more c).c_backend <- lines

type run = counters array

type call_target =
  | T_function of { cacheable : bool; external_ : bool }
  | T_builtin
  | T_unresolved

type let_mode = L_plain | L_async | L_concurrent

type var = { name : C.var; slot : int }

type plan = { id : int; est : int; node : node }

and node =
  | P_const of Atomic.t
  | P_empty
  | P_seq of plan list
  | P_var of var
  | P_param of var
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
  | P_fail_over of { primary : plan; alternate : plan }
  | P_timeout of { primary : plan; millis : plan; alternate : plan }
  | P_child of plan * Qname.t
  | P_child_wild of plan
  | P_attr_of of plan * Qname.t
  | P_filter of { input : plan; dot : var; pos : var; pred : plan }
  | P_data of plan
  | P_ebv of plan
  | P_binop of C.binop * plan * plan
  | P_typematch of plan * Stype.t
  | P_cast of plan * Atomic.atomic_type
  | P_castable of plan * Atomic.atomic_type
  | P_instance_of of plan * Stype.t
  | P_error of string
  | P_pipeline of { ops : op list; return_ : plan }

and pattr = { p_aname : Qname.t; p_avalue : plan; p_aoptional : bool }

and op = { op_id : int; op_est : int; op_node : op_node }

and op_node =
  | O_scan of { var : var; source : plan }
  | O_let of { var : var; value : plan; mode : let_mode }
  | O_select of plan
  | O_group of {
      aggs : (plan * var) list;
      keys : (plan * var) list;
      clustered : bool;
    }
  | O_sort of { keys : (plan * bool) list }
  | O_join of {
      kind : C.join_kind;
      method_ : C.join_method;
      right : op list;
      base : int;
      on_ : plan;
      keys : (plan * plan) list;
      export : pexport;
    }
  | O_sql of sql_region

and pexport = PE_bindings | PE_grouped of { gvar : var; gexpr : plan }

and sql_region = {
  sql_db : string;
  sql_dialect : string;
  sql_text : string;
  sql_select : Aldsp_relational.Sql_ast.select;
  sql_params : plan list;
  sql_binds : C.sql_bind list;
  sql_slots : int array;
}

type t = { tree : plan; totals : run; params : C.var array }

let zero () =
  { c_starts = 0; c_rows = 0; c_roundtrips = 0; c_wall = 0.;
    c_first_row_ns = 0.; c_more = no_more }

let new_run view = Array.init (Array.length view.totals) (fun _ -> zero ())

let instance view = { view with totals = new_run view }

(* Sums, except the high-water fan-in and the first stamped time to first
   row. A run's backend lines stay with the run: EXPLAIN renders its own
   execution, so a view has no use for them. *)
let add total c =
  total.c_starts <- total.c_starts + c.c_starts;
  total.c_rows <- total.c_rows + c.c_rows;
  total.c_roundtrips <- total.c_roundtrips + c.c_roundtrips;
  total.c_wall <- total.c_wall +. c.c_wall;
  if total.c_first_row_ns = 0. then total.c_first_row_ns <- c.c_first_row_ns;
  let m = c.c_more in
  if m != no_more then begin
    let t = more total in
    t.c_cache_hits <- t.c_cache_hits + m.c_cache_hits;
    t.c_cache_misses <- t.c_cache_misses + m.c_cache_misses;
    t.c_shared <- t.c_shared + m.c_shared;
    t.c_spill_runs <- t.c_spill_runs + m.c_spill_runs;
    t.c_spill_rows <- t.c_spill_rows + m.c_spill_rows;
    t.c_spill_bytes <- t.c_spill_bytes + m.c_spill_bytes;
    t.c_merge_fanin <- max t.c_merge_fanin m.c_merge_fanin
  end

(* One lock for every view: a fold is a handful of word writes per
   operator, once per execution. *)
let fold_lock = Mutex.create ()

let fold view run =
  Mutex.lock fold_lock;
  Array.iter2 add view.totals run;
  Mutex.unlock fold_lock

(* ------------------------------------------------------------------ *)
(* Traversal                                                           *)

let rec sub_plans p =
  match p.node with
  | P_const _ | P_empty | P_var _ | P_param _ | P_error _ -> []
  | P_seq es -> es
  | P_construct { attrs; content; _ } ->
    List.map (fun a -> a.p_avalue) attrs @ [ content ]
  | P_if { cond; then_; else_ } -> [ cond; then_; else_ ]
  | P_quantified { source; pred; _ } -> [ source; pred ]
  | P_call { args; _ } -> args
  | P_async p -> [ p ]
  | P_fail_over { primary; alternate } -> [ primary; alternate ]
  | P_timeout { primary; millis; alternate } -> [ primary; millis; alternate ]
  | P_child (p, _) | P_attr_of (p, _) | P_child_wild p -> [ p ]
  | P_filter { input; pred; _ } -> [ input; pred ]
  | P_data p | P_ebv p -> [ p ]
  | P_binop (_, a, b) -> [ a; b ]
  | P_typematch (p, _) | P_cast (p, _) | P_castable (p, _)
  | P_instance_of (p, _) ->
    [ p ]
  | P_pipeline { ops; return_ } ->
    List.concat_map op_sub_plans ops @ [ return_ ]

and op_sub_plans o =
  match o.op_node with
  | O_scan { source; _ } -> [ source ]
  | O_let { value; _ } -> [ value ]
  | O_select p -> [ p ]
  | O_group { aggs; keys; _ } -> List.map fst aggs @ List.map fst keys
  | O_sort { keys } -> List.map fst keys
  | O_join { right; on_; keys; export; _ } ->
    List.concat_map op_sub_plans right
    @ [ on_ ]
    @ List.concat_map (fun (l, r) -> [ l; r ]) keys
    @ (match export with PE_bindings -> [] | PE_grouped { gexpr; _ } -> [ gexpr ])
  | O_sql r -> r.sql_params

(* Nodes whose subtree is rendered as a tree rather than inlined: the
   "operator" nodes themselves plus any container on the path to one.
   Lowering gives exactly the structural nodes below the root an id, so
   a child is structural when it has one. *)
let structural p =
  match p.node with
  | P_pipeline _ | P_construct _ | P_async _ | P_fail_over _ | P_timeout _
  | P_call { target = T_function _; _ } ->
    true
  | _ -> List.exists (fun c -> c.id >= 0) (sub_plans p)

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)

(* A lowering scope: the variables bound so far, innermost first, with
   their frame slots, and the next free slot. A variable's slot is its
   scope's depth where it is bound, so a tuple frame is never wider than
   the scope that reads it, and sibling scopes reuse slots. *)
type scope = { bound : (C.var * int) list; depth : int }

let bind sc name =
  ( { name; slot = sc.depth },
    { bound = (name, sc.depth) :: sc.bound; depth = sc.depth + 1 } )

let bind_all sc names =
  let vars, sc =
    List.fold_left
      (fun (vars, sc) name ->
        let v, sc = bind sc name in
        (v :: vars, sc))
      ([], sc) names
  in
  (List.rev vars, sc)

(* The counted nodes are numbered densely from 0: an execution's
   counters are the array those ids index. A node is counted when EXPLAIN
   renders it with counters (every tuple operator, every [structural]
   node) and so is the root; any other node has id -1. Children are
   lowered before their parent. A variable no scope binds is a
   parameter, numbered in order of first use. *)
let compile registry root =
  let next = ref 0 in
  let fresh () = let id = !next in incr next; id in
  let params = Hashtbl.create 8 in
  let param_names = ref [] in
  let var sc name =
    match List.assoc_opt name sc.bound with
    | Some slot -> P_var { name; slot }
    | None ->
      let slot =
        match Hashtbl.find_opt params name with
        | Some i -> i
        | None ->
          let i = Hashtbl.length params in
          Hashtbl.add params name i;
          param_names := name :: !param_names;
          i
      in
      P_param { name; slot }
  in
  let est_of = Option.value ~default:0 in
  let mk_op est op_node = { op_id = fresh (); op_est = est_of est; op_node } in
  (* Compile-time cardinality estimates, fixed on each operator so
     EXPLAIN --analyze can print est=/act= pairs: the estimate of an
     operator is the binding tuples it is expected to emit
     ({!Cost_model.advance}). *)
  let rec lower sc (e : C.t) : plan =
    let est = est_of (Cost_model.expr_cardinality registry e) in
    let mk node =
      let p = { id = -1; est; node } in
      if structural p then { p with id = fresh () } else p
    in
    let expr = lower sc in
    match e with
    | C.Const a -> mk (P_const a)
    | C.Empty -> mk P_empty
    | C.Seq es -> mk (P_seq (List.map expr es))
    | C.Var v -> mk (var sc v)
    | C.Elem { name; optional; attrs; content } ->
      mk
        (P_construct
           { name;
             optional;
             attrs =
               List.map
                 (fun (a : C.attr) ->
                   { p_aname = a.C.aname;
                     p_avalue = expr a.C.avalue;
                     p_aoptional = a.C.aoptional })
                 attrs;
             content = expr content })
    | C.Flwor { clauses; return_ } ->
      let ops, inner = lower_clauses sc (Some 1) clauses in
      mk (P_pipeline { ops; return_ = lower inner return_ })
    | C.If { cond; then_; else_ } ->
      mk (P_if { cond = expr cond; then_ = expr then_; else_ = expr else_ })
    | C.Quantified { universal; var; source; pred } ->
      let var, inner = bind sc var in
      mk
        (P_quantified
           { universal; var; source = expr source; pred = lower inner pred })
    | C.Call { fn; args = [ arg ] } when Qname.equal fn Names.async ->
      mk (P_async (expr arg))
    | C.Call { fn; args = [ prim; alt ] } when Qname.equal fn Names.fail_over ->
      mk (P_fail_over { primary = expr prim; alternate = expr alt })
    | C.Call { fn; args = [ prim; millis; alt ] }
      when Qname.equal fn Names.timeout ->
      mk
        (P_timeout
           { primary = expr prim; millis = expr millis; alternate = expr alt })
    | C.Call { fn; args } ->
      let arity = List.length args in
      let target =
        match Metadata.resolve_call registry fn arity with
        | Some fd ->
          T_function
            { cacheable = fd.Metadata.fd_cacheable;
              external_ =
                (match fd.Metadata.fd_impl with
                | Metadata.External _ -> true
                | Metadata.Body _ -> false) }
        | None -> (
          match Fn_lib.find fn arity with
          | Some _ -> T_builtin
          | None -> T_unresolved)
      in
      mk (P_call { fn; target; args = List.map expr args })
    | C.Child (input, n) -> mk (P_child (expr input, n))
    | C.Child_wild input -> mk (P_child_wild (expr input))
    | C.Attr_of (input, n) -> mk (P_attr_of (expr input, n))
    | C.Filter { input; dot; pos; pred } ->
      let dot, inner = bind sc dot in
      let pos, inner = bind inner pos in
      mk (P_filter { input = expr input; dot; pos; pred = lower inner pred })
    | C.Data input -> mk (P_data (expr input))
    | C.Ebv input -> mk (P_ebv (expr input))
    | C.Binop (op, a, b) -> mk (P_binop (op, expr a, expr b))
    | C.Typematch (input, ty) -> mk (P_typematch (expr input, ty))
    | C.Cast (input, ty) -> mk (P_cast (expr input, ty))
    | C.Castable (input, ty) -> mk (P_castable (expr input, ty))
    | C.Instance_of (input, ty) -> mk (P_instance_of (expr input, ty))
    | C.Error_expr msg -> mk (P_error msg)
  (* A maximal run of adjacent lets is analyzed as one unit, mirroring the
     executor's binding step: an explicit fn-bea:async value, or an
     external-source call with no data dependence on the run's other
     bindings, is marked for ahead-of-use submission (§5.4). Each value
     sees the lets before it. *)
  and lower_lets sc est run =
    let run_vars =
      List.filter_map (function C.Let { var; _ } -> Some var | _ -> None) run
    in
    let independent e =
      let fv = C.free_vars e () in
      not (List.exists (fun v -> Hashtbl.mem fv v) run_vars)
    in
    let ops, sc =
      List.fold_left
        (fun (ops, sc) cl ->
          match cl with
          | C.Let { var; value } ->
            let mode =
              match value with
              | C.Call { fn; args = [ _ ] } when Qname.equal fn Names.async ->
                L_async
              | value
                when List.length run_vars > 1
                     && Metadata.external_call registry value && independent value ->
                L_concurrent
              | _ -> L_plain
            in
            let value = lower sc value in
            let var, sc = bind sc var in
            (mk_op est (O_let { var; value; mode }) :: ops, sc)
          | _ -> assert false)
        ([], sc) run
    in
    (List.rev ops, sc)
  and lower_clauses sc est clauses =
    lower_run sc est clauses (Cost_model.estimates registry est clauses)
  (* The operators of [clauses], and the scope after them. *)
  and lower_run sc est clauses ests =
    match (clauses, ests) with
    | [], _ | _, [] -> ([], sc)
    | C.Let _ :: _, _ ->
      let rec split run ests = function
        | (C.Let _ as l) :: rest -> split (l :: run) (List.tl ests) rest
        | rest -> (List.rev run, ests, rest)
      in
      let run, ests, rest = split [] ests clauses in
      let ops, sc = lower_lets sc est run in
      let rest, sc = lower_run sc est rest ests in
      (ops @ rest, sc)
    | clause :: rest, est' :: ests ->
      let op_node, after =
        match clause with
        | C.For { var; source } ->
          let var, after = bind sc var in
          (O_scan { var; source = lower sc source }, after)
        | C.Let _ -> assert false
        | C.Where cond -> (O_select (lower sc cond), sc)
        | C.Group { aggs; keys; clustered } ->
          (* each member keeps its bindings; the first member's stay
             visible after the group, beside the keys and outputs *)
          let key_exprs = List.map (fun (e, _) -> lower sc e) keys in
          let inputs = List.map (fun (v, _) -> lower sc (C.Var v)) aggs in
          let key_vars, after = bind_all sc (List.map snd keys) in
          let outs, after = bind_all after (List.map snd aggs) in
          ( O_group
              { aggs = List.combine inputs outs;
                keys = List.combine key_exprs key_vars;
                clustered },
            after )
        | C.Order { keys } ->
          (O_sort { keys = List.map (fun (e, d) -> (lower sc e, d)) keys }, sc)
        | C.Join { kind; method_; right; on_; export } ->
          let right_ops, inner = lower_clauses sc est right in
          let keys =
            List.map
              (fun (l, r) -> (lower sc l, lower inner r))
              (C.hash_keys method_ right on_)
          in
          let export, after =
            match export with
            | C.Bindings -> (PE_bindings, inner)
            | C.Grouped { gvar; gexpr } ->
              let gexpr = lower inner gexpr in
              let gvar, after = bind sc gvar in
              (PE_grouped { gvar; gexpr }, after)
          in
          ( O_join
              { kind;
                method_;
                right = right_ops;
                base = sc.depth;
                on_ = lower inner on_;
                keys;
                export },
            after )
        | C.Rel r ->
          let dialect, vendor =
            match Metadata.find_database registry r.C.db with
            | Some db ->
              (Database.vendor_name db.Database.vendor, db.Database.vendor)
            | None -> ("sql92", Database.Generic_sql92)
          in
          let sql_text =
            try Sql_print.select_to_string vendor r.C.select
            with Sql_print.Unsupported reason ->
              "<unprintable: " ^ reason ^ ">"
          in
          let sql_params = List.map (lower sc) r.C.sql_params in
          let vars, after =
            bind_all sc (List.map (fun (b : C.sql_bind) -> b.C.bvar) r.C.binds)
          in
          ( O_sql
              { sql_db = r.C.db;
                sql_dialect = dialect;
                sql_text;
                sql_select = r.C.select;
                sql_params;
                sql_binds = r.C.binds;
                sql_slots = Array.of_list (List.map (fun v -> v.slot) vars) },
            after )
      in
      let op = mk_op est' op_node in
      let rest, sc = lower_run after est' rest ests in
      (op :: rest, sc)
  in
  let tree = lower { bound = []; depth = 0 } root in
  let tree = if tree.id < 0 then { tree with id = fresh () } else tree in
  { tree;
    totals = Array.init !next (fun _ -> zero ());
    params = Array.of_list (List.rev !param_names) }

(* Every node and tuple operator in preorder, keeping what [node] and
   [op] pick out. *)
let preorder ~node:pick_node ~op:pick_op plan =
  let acc = ref [] in
  let keep = Option.iter (fun x -> acc := x :: !acc) in
  let rec node p =
    keep (pick_node p);
    (match p.node with P_pipeline { ops; _ } -> List.iter op ops | _ -> ());
    List.iter node
      (match p.node with
      | P_pipeline { return_; _ } -> [ return_ ]
      | _ -> sub_plans p)
  and op o =
    keep (pick_op o);
    match o.op_node with
    | O_join ({ right; _ } as j) ->
      List.iter op right;
      List.iter node
        (op_sub_plans { o with op_node = O_join { j with right = [] } })
    | _ -> List.iter node (op_sub_plans o)
  in
  node plan;
  List.rev !acc

let regions view =
  preorder view.tree
    ~node:(fun _ -> None)
    ~op:(fun o -> match o.op_node with O_sql r -> Some r | _ -> None)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

(* Compact one-line form of an expression subtree, for operator labels. *)
let rec summary p =
  match p.node with
  | P_const a -> Format.asprintf "%a" Atomic.pp a
  | P_empty -> "()"
  | P_seq es -> "(" ^ String.concat ", " (List.map summary es) ^ ")"
  | P_var v | P_param v -> "$" ^ v.name
  | P_construct { name; optional; content; _ } ->
    Printf.sprintf "element %s%s {%s}" (Qname.to_string name)
      (if optional then "?" else "")
      (summary content)
  | P_if { cond; then_; else_ } ->
    Printf.sprintf "if (%s) then %s else %s" (summary cond) (summary then_)
      (summary else_)
  | P_quantified { universal; var; source; pred } ->
    Printf.sprintf "%s $%s in %s satisfies %s"
      (if universal then "every" else "some")
      var.name (summary source) (summary pred)
  | P_call { fn; args; _ } ->
    Printf.sprintf "%s(%s)" (Qname.to_string fn)
      (String.concat ", " (List.map summary args))
  | P_async p -> Printf.sprintf "async(%s)" (summary p)
  | P_fail_over { primary; alternate } ->
    Printf.sprintf "fail-over(%s, %s)" (summary primary) (summary alternate)
  | P_timeout { primary; millis; alternate } ->
    Printf.sprintf "timeout(%s, %s, %s)" (summary primary) (summary millis)
      (summary alternate)
  | P_child (p, n) -> summary p ^ "/" ^ Qname.to_string n
  | P_child_wild p -> summary p ^ "/*"
  | P_attr_of (p, n) -> summary p ^ "/@" ^ Qname.to_string n
  | P_filter { input; dot; pred; _ } ->
    Printf.sprintf "%s[%s: %s]" (summary input) dot.name (summary pred)
  | P_data p -> Printf.sprintf "data(%s)" (summary p)
  | P_ebv p -> Printf.sprintf "ebv(%s)" (summary p)
  | P_binop (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (summary a) (C.binop_name op) (summary b)
  | P_typematch (p, ty) ->
    Printf.sprintf "typematch(%s, %s)" (summary p) (Stype.to_string ty)
  | P_cast (p, ty) ->
    Printf.sprintf "cast(%s as %s)" (summary p) (Atomic.type_name ty)
  | P_castable (p, ty) ->
    Printf.sprintf "(%s castable as %s)" (summary p) (Atomic.type_name ty)
  | P_instance_of (p, ty) ->
    Printf.sprintf "(%s instance of %s)" (summary p) (Stype.to_string ty)
  | P_error msg -> Printf.sprintf "error(%S)" msg
  | P_pipeline _ -> "flwor {...}"

let cap s = if String.length s > 90 then String.sub s 0 87 ^ "..." else s

(* A PP-k join's [inner=] names how each fetched block is joined in the
   middleware: [inl] when it carries hash keys, [nl] when it does not. *)
let method_label method_ keys =
  match method_ with
  | C.Nested_loop -> "nested-loop"
  | C.Index_nested_loop -> "index-nl"
  | C.Ppk { k; prefetch } ->
    Printf.sprintf "pp-k(k=%d, prefetch=%d, inner=%s)" k prefetch
      (if keys = [] then "nl" else "inl")

let node_label p =
  match p.node with
  | P_pipeline _ -> "flwor"
  | P_construct { name; optional; _ } ->
    Printf.sprintf "construct <%s%s>" (Qname.to_string name)
      (if optional then "?" else "")
  | P_call { fn; target; args } ->
    Printf.sprintf "call %s/%d%s" (Qname.to_string fn) (List.length args)
      (match target with
      | T_function { cacheable; external_ } ->
        (if external_ then " [external]" else "")
        ^ (if cacheable then " [cacheable]" else "")
      | T_builtin -> " [builtin]"
      | T_unresolved -> "")
  | P_async _ -> "async"
  | P_fail_over _ -> "fail-over"
  | P_timeout _ -> "timeout"
  | P_seq _ -> "seq"
  | P_if { cond; _ } -> "if " ^ cap (summary cond)
  | P_quantified { universal; var; _ } ->
    Printf.sprintf "%s $%s"
      (if universal then "every" else "some")
      var.name
  | P_filter { dot; pred; _ } ->
    Printf.sprintf "filter [%s: %s]" dot.name (cap (summary pred))
  | P_data _ -> "data"
  | P_ebv _ -> "ebv"
  | P_binop (op, _, _) -> "op " ^ C.binop_name op
  | P_child (_, n) -> "child " ^ Qname.to_string n
  | P_child_wild _ -> "child *"
  | P_attr_of (_, n) -> "attr @" ^ Qname.to_string n
  | P_typematch _ -> "typematch"
  | P_cast (_, ty) -> "cast as " ^ Atomic.type_name ty
  | P_castable (_, ty) -> "castable as " ^ Atomic.type_name ty
  | P_instance_of _ -> "instance-of"
  | P_const _ | P_empty | P_var _ | P_param _ | P_error _ -> cap (summary p)

let op_label o =
  match o.op_node with
  | O_scan { var; source } ->
    Printf.sprintf "scan $%s in %s" var.name (cap (summary source))
  | O_let { var; value; mode } ->
    Printf.sprintf "let%s $%s := %s"
      (match mode with
      | L_plain -> ""
      | L_async -> "[async]"
      | L_concurrent -> "[concurrent]")
      var.name (cap (summary value))
  | O_select p -> "select " ^ cap (summary p)
  | O_group { aggs; keys; clustered } ->
    Printf.sprintf "group-by%s %s by %s"
      (if clustered then "[pre-clustered]" else "")
      (String.concat ", "
         (List.map
            (fun (a, b) -> Printf.sprintf "%s as $%s" (summary a) b.name)
            aggs))
      (String.concat ", "
         (List.map
            (fun (e, v) -> Printf.sprintf "%s as $%s" (cap (summary e)) v.name)
            keys))
  | O_sort { keys } ->
    "sort "
    ^ String.concat ", "
        (List.map
           (fun (e, desc) ->
             cap (summary e) ^ if desc then " descending" else "")
           keys)
  | O_join { kind; method_; keys; export; _ } ->
    Printf.sprintf "join[%s] method=%s%s"
      (match kind with C.J_inner -> "inner" | C.J_left_outer -> "left-outer")
      (method_label method_ keys)
      (match export with
      | PE_bindings -> ""
      | PE_grouped { gvar; _ } -> Printf.sprintf " grouped as $%s" gvar.name)
  | O_sql r -> Printf.sprintf "sql[%s dialect=%s]" r.sql_db r.sql_dialect

let counters_suffix ~timings est c =
  let m = c.c_more in
  let parts =
    [ Printf.sprintf "est=%d act=%d" est c.c_rows ]
    @ (if c.c_roundtrips > 0 then
         [ Printf.sprintf "roundtrips=%d" c.c_roundtrips ]
       else [])
    @ (if m.c_cache_hits > 0 || m.c_cache_misses > 0 then
         [ Printf.sprintf "cache-hits=%d cache-misses=%d" m.c_cache_hits
             m.c_cache_misses ]
       else [])
    (* only under active work sharing, so golden plans are unaffected *)
    @ (if m.c_shared > 0 then [ Printf.sprintf "shared=%d" m.c_shared ]
       else [])
    (* only when the operator actually spilled, so zero-spill plans (and
       every golden) render exactly as before *)
    @ (if m.c_spill_runs > 0 then
         [ Printf.sprintf "spill=%d spill-rows=%d spill-bytes=%d fanin=%d"
             m.c_spill_runs m.c_spill_rows m.c_spill_bytes m.c_merge_fanin ]
       else [])
    @ (if timings && c.c_wall > 0. then
         [ Printf.sprintf "wall=%.1fms" (c.c_wall *. 1000.) ]
       else [])
    @
    (* time-to-first-row is wall-clock, so it rides with --timings *)
    if timings && c.c_first_row_ns > 0. then
      [ Printf.sprintf "ttft=%.1fms" (c.c_first_row_ns /. 1e6) ]
    else []
  in
  " (" ^ String.concat " " parts ^ ")"

(* The plan parameter a parameter slot reads whole, if it reads one. *)
let rec whole_param p =
  match p.node with
  | P_param v -> Some v.name
  | P_data p -> whole_param p
  | _ -> None

(* A parameter slot that reads one bound variable whole prints the
   value it is bound to, as the statement would have inlined it. *)
let param_label bindings p =
  match Option.bind (whole_param p) (fun v -> List.assoc_opt v bindings) with
  | Some [ Item.Atom (Atomic.String s) ] ->
    Aldsp_relational.Sql_value.to_string (Aldsp_relational.Sql_value.Str s)
  | Some [ Item.Atom a ] -> Atomic.to_string a
  | _ -> cap (summary p)

let render ?(timings = false) ?(bindings = []) ?counters view =
  let counters = Option.value counters ~default:view.totals in
  let buf = Buffer.create 1024 in
  let line indent text =
    Buffer.add_string buf (String.make (indent * 2) ' ');
    Buffer.add_string buf text;
    Buffer.add_char buf '\n'
  in
  let rec node indent prefix p =
    if structural p then begin
      line indent
        (prefix ^ node_label p
        ^ counters_suffix ~timings p.est counters.(p.id));
      match p.node with
      | P_pipeline { ops; return_ } ->
        List.iter (op (indent + 1)) ops;
        node (indent + 1) "return " return_
      | P_construct { attrs; content; _ } ->
        List.iter
          (fun a ->
            node (indent + 1)
              (Printf.sprintf "@%s%s := " (Qname.to_string a.p_aname)
                 (if a.p_aoptional then "?" else ""))
              a.p_avalue)
          attrs;
        node (indent + 1) "" content
      | P_call { args; _ } ->
        List.iteri
          (fun i a -> node (indent + 1) (Printf.sprintf "arg%d " (i + 1)) a)
          args
      | P_async p -> node (indent + 1) "" p
      | P_fail_over { primary; alternate } ->
        node (indent + 1) "primary " primary;
        node (indent + 1) "alternate " alternate
      | P_timeout { primary; millis; alternate } ->
        node (indent + 1) "primary " primary;
        node (indent + 1) "after " millis;
        node (indent + 1) "alternate " alternate
      | _ -> List.iter (node (indent + 1) "") (sub_plans p)
    end
    else line indent (prefix ^ cap (summary p))
  and op indent o =
    let c = counters.(o.op_id) in
    line indent (op_label o ^ counters_suffix ~timings o.op_est c);
    match o.op_node with
    | O_scan { source; _ } -> if structural source then node (indent + 1) "" source
    | O_let { value; _ } -> if structural value then node (indent + 1) "" value
    | O_select p -> if structural p then node (indent + 1) "" p
    | O_group _ | O_sort _ -> ()
    | O_join { right; on_; export; _ } ->
      List.iter (op (indent + 1)) right;
      line (indent + 1) ("on " ^ cap (summary on_));
      (match export with
      | PE_bindings -> ()
      | PE_grouped { gexpr; _ } ->
        if structural gexpr then node (indent + 1) "group: " gexpr
        else line (indent + 1) ("group: " ^ cap (summary gexpr)))
    | O_sql r ->
      line (indent + 1) r.sql_text;
      List.iteri
        (fun i p ->
          line (indent + 1)
            (Printf.sprintf "param ?%d := %s" (i + 1) (param_label bindings p)))
        r.sql_params;
      if r.sql_binds <> [] then
        line (indent + 1)
          ("binds: "
          ^ String.concat ", "
              (List.map
                 (fun (b : C.sql_bind) ->
                   Printf.sprintf "$%s <- %s" b.C.bvar b.C.bcol)
                 r.sql_binds));
      List.iter
        (fun l -> line (indent + 1) ("backend: " ^ l))
        c.c_more.c_backend
  in
  node 0 "" view.tree;
  Buffer.contents buf

(* Whether [vars] are read only as whole pushed-SQL parameters: the plan
   a statement runs is then the same for every value bound to them. *)
let params_only view vars =
  let bound v = List.mem v vars in
  let whole p = Option.fold ~none:false ~some:bound (whole_param p) in
  let rec clean p =
    match p.node with
    | P_param v -> not (bound v.name)
    | P_pipeline { ops; return_ } -> List.for_all op ops && clean return_
    | _ -> List.for_all clean (sub_plans p)
  and op o =
    match o.op_node with
    | O_sql r -> List.for_all (fun p -> whole p || clean p) r.sql_params
    | O_join ({ right; _ } as j) ->
      List.for_all op right
      && List.for_all clean
           (op_sub_plans { o with op_node = O_join { j with right = [] } })
    | _ -> List.for_all clean (op_sub_plans o)
  in
  clean view.tree

(* (estimate, id) of the operators whose est= and act= are both per-run
   totals: nodes the run evaluates once (the expressions above the
   outermost pipelines), those pipelines, and their operators through
   join right sides. An expression under a pipeline is evaluated per
   tuple: its est= is per evaluation while its act= accumulates, so it
   cannot be compared. *)
let per_run_operators plan =
  let acc = ref [] in
  let rec node p =
    if structural p then acc := (p.est, p.id) :: !acc;
    match p.node with
    | P_pipeline { ops; _ } -> List.iter op ops
    | P_filter { input; _ } -> node input
    | P_quantified { source; _ } -> node source
    | _ -> List.iter node (sub_plans p)
  and op o =
    acc := (o.op_est, o.op_id) :: !acc;
    match o.op_node with
    | O_join { right; _ } -> List.iter op right
    | _ -> ()
  in
  node plan;
  !acc

(* Worst est-vs-actual ratio across [per_run_operators] that both carry
   an estimate and actually produced rows; 1.0 when nothing qualifies. *)
let max_misestimate ~counters view =
  List.fold_left
    (fun worst (est, id) ->
      let actual = counters.(id).c_rows in
      if est > 0 && actual > 0 then
        Float.max worst (Cost_model.misestimate ~est ~actual)
      else worst)
    1. (per_run_operators view.tree)

let operators ?counters view =
  let counters = Option.value counters ~default:view.totals in
  preorder view.tree
    ~node:(fun p ->
      if structural p then Some (node_label p, counters.(p.id)) else None)
    ~op:(fun o -> Some (op_label o, counters.(o.op_id)))
