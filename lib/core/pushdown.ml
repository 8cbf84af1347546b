open Aldsp_xml
open Aldsp_relational
module C = Cexpr
module Sql = Sql_ast

(* ------------------------------------------------------------------ *)
(* State: fresh aliases, column names, variables                       *)

type state = {
  registry : Metadata.t;
  counter : int ref;
}

let fresh st prefix =
  incr st.counter;
  Printf.sprintf "%s%d" prefix !(st.counter)

let fresh_var st base = fresh st (base ^ "%")

(* ------------------------------------------------------------------ *)
(* Scan metadata                                                       *)

type scan_info = {
  si_db : Database.t;
  si_table : string;
  si_row_name : Qname.t;
  si_columns : (string * Atomic.atomic_type * bool) list;  (* name, ty, nullable *)
}

let scan_of_call st fn arity =
  match Metadata.resolve_call st.registry fn arity with
  | Some { Metadata.fd_impl = Metadata.External (Metadata.Relational_table
             { db; table; row_name }); _ } -> (
    match Database.find_table db table with
    | Error _ -> None
    | Ok t ->
      Some
        { si_db = db;
          si_table = table;
          si_row_name = row_name;
          si_columns =
            List.map
              (fun c ->
                ( c.Table.col_name,
                  Table.atomic_type_of_sql c.Table.col_type,
                  c.Table.nullable ))
              t.Table.columns })
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Row-variable tracking: which let-variables hold reconstructed rows   *)

type row_binding = {
  rb_var : C.var;
  rb_cols : (string * C.var * Atomic.atomic_type * bool) list;
      (* column, bind var, type, nullable *)
  rb_row_name : Qname.t;
}

let reconstruction rb =
  C.Elem
    { name = rb.rb_row_name;
      optional = false;
      attrs = [];
      content =
        C.seq
          (List.map
             (fun (col, bv, _, nullable) ->
               C.Elem
                 { name = Qname.local col;
                   optional = nullable;
                   attrs = [];
                   content = C.Var bv })
             rb.rb_cols) }

(* Resolve field navigation through row variables to the column binds. *)
let resolve_fields rows expr =
  let find_row v = List.find_opt (fun rb -> rb.rb_var = v) rows in
  let find_col rb name =
    List.find_opt (fun (col, _, _, _) -> String.equal col name.Qname.local) rb.rb_cols
  in
  let rec go e =
    match e with
    | C.Data (C.Child (C.Var v, name)) -> (
      match find_row v with
      | Some rb -> (
        match find_col rb name with
        | Some (_, bv, _, _) -> C.Var bv
        | None -> C.Empty)
      | None -> C.map_children go e)
    | C.Child (C.Var v, name) -> (
      match find_row v with
      | Some rb -> (
        match find_col rb name with
        | Some (col, bv, _, nullable) ->
          C.Elem
            { name = Qname.local col;
              optional = nullable;
              attrs = [];
              content = C.Var bv }
        | None -> C.Empty)
      | None -> C.map_children go e)
    | e -> C.map_children go e
  in
  go expr

(* ------------------------------------------------------------------ *)
(* Translation of core expressions to SQL                              *)

type sql_env = {
  (* bind variable -> (alias-qualified column, type) *)
  cols : (C.var * (Sql.expr * Atomic.atomic_type)) list;
  (* variables that cannot appear in parameter expressions: everything
     bound by the clause list under translation *)
  blocked : C.var list;
  caps : Sql_print.capabilities;
  st : state;
  db : Database.t;
  params : C.t list ref;  (* accumulated parameter expressions *)
  param_base : int;  (* params already present in the select *)
}

exception Not_pushable

let rec strip_typematch = function
  | C.Typematch (e, _) | C.Data e -> strip_typematch e
  | e -> e

let comparison_op = function
  | C.V_eq | C.G_eq -> Some Sql.Eq
  | C.V_ne | C.G_ne -> Some Sql.Neq
  | C.V_lt | C.G_lt -> Some Sql.Lt
  | C.V_le | C.G_le -> Some Sql.Le
  | C.V_gt | C.G_gt -> Some Sql.Gt
  | C.V_ge | C.G_ge -> Some Sql.Ge
  | _ -> None

let arith_op = function
  | C.Add -> Some Sql.Add
  | C.Sub -> Some Sql.Sub
  | C.Mul -> Some Sql.Mul
  | C.Div -> Some Sql.Div
  | _ -> None

let sql_of_atomic = function
  | Atomic.Integer i -> Sql_value.Int i
  | Atomic.Decimal f | Atomic.Double f -> Sql_value.Float f
  | Atomic.String s | Atomic.Untyped s -> Sql_value.Str s
  | Atomic.Boolean b -> Sql_value.Bool b
  | Atomic.Date d -> Sql_value.Timestamp (Atomic.epoch_of_date d)
  | Atomic.Date_time f -> Sql_value.Timestamp f

let make_param env e =
  (* evaluate in the middleware, bind as a SQL parameter — allowed only
     when the expression does not depend on region-bound variables *)
  let fv = C.free_vars e () in
  if List.exists (fun v -> Hashtbl.mem fv v) env.blocked then
    raise Not_pushable;
  env.params := !(env.params) @ [ e ];
  Sql.Param (env.param_base + List.length !(env.params))

let rec translate env (e : C.t) : Sql.expr =
  match C.unwrap_ebv e with
  | C.Var v -> (
    match List.assoc_opt v env.cols with
    | Some (col, _) -> col
    | None -> make_param env e)
  | C.Data inner -> translate env inner
  | C.Typematch (inner, _)
    when (match strip_typematch inner with
         | C.Var v -> List.mem_assoc v env.cols
         | _ -> false) ->
    (* a typematch over a region column is enforced by the column's SQL
       type; drop it inside the pushed predicate *)
    translate env (strip_typematch inner)
  | C.Const a -> Sql.Lit (sql_of_atomic a)
  | C.Empty -> Sql.Lit Sql_value.Null
  | C.Binop (op, a, b) -> (
    match comparison_op op with
    | Some sql_op -> Sql.Binop (sql_op, translate env a, translate env b)
    | None -> (
      match op with
      | C.And ->
        Sql.Binop (Sql.And, translate env a, translate env b)
      | C.Or -> Sql.Binop (Sql.Or, translate env a, translate env b)
      | C.Add | C.Sub | C.Mul | C.Div ->
        let sql_op = Option.get (arith_op op) in
        Sql.Binop (sql_op, translate env a, translate env b)
      | _ -> make_param env e))
  | C.If { cond; then_; else_ } ->
    if not env.caps.Sql_print.supports_case then make_param env e
    else
      Sql.Case ([ (translate env cond, translate env then_) ],
                Some (translate env else_))
  | C.Call { fn; args } -> translate_call env e fn args
  | C.Quantified { universal = false; var; source; pred } ->
    translate_exists env e var source pred
  | C.Cast (inner, _) -> translate env inner
  | e -> make_param env e

and translate_call env whole fn args =
  if Qname.equal fn (Names.fn "not") then
    match args with
    | [ a ] -> Sql.Not (translate env a)
    | _ -> raise Not_pushable
  else if Qname.equal fn (Names.fn "exists") || Qname.equal fn (Names.fn "empty")
  then
    let subquery =
      match args with
      | [ C.Flwor
            { clauses =
                C.For { var; source = C.Call { fn = table; args = [] } } :: rest;
              return_ = _ } ] -> (
        match rest with
        | [] -> exists_subquery env table var None
        | [ C.Where w ] -> exists_subquery env table var (Some w)
        | _ -> None)
      | _ -> None
    in
    match subquery with
    | Some sub ->
      if Qname.equal fn (Names.fn "exists") then Sql.Exists sub
      else Sql.Not_exists sub
    | None -> make_param env whole
  else if Qname.equal fn (Names.fn "concat") then begin
    if not env.caps.Sql_print.supports_string_concat then make_param env whole
    else
      match args with
      | [] -> raise Not_pushable
      | first :: rest ->
        List.fold_left
          (fun acc a -> Sql.Binop (Sql.Concat, acc, translate env a))
          (translate env first) rest
  end
  else
    match Fn_lib.find fn (List.length args) with
    | Some { Fn_lib.translation = Fn_lib.Sql_function f; _ } ->
      Sql.Func (f, List.map (translate env) args)
    | _ -> make_param env whole

(* some $x in TABLE() satisfies pred ~> EXISTS(SELECT 1 FROM ...) *)
and translate_exists env whole var source pred =
  match source with
  | C.Call { fn; args = [] } -> (
    match exists_subquery env fn var (Some pred) with
    | Some sub -> Sql.Exists sub
    | None -> make_param env whole)
  | _ -> make_param env whole

(* [SELECT 1 FROM] the table [fn()] scans when it is in [env]'s database,
   filtered by [pred] over its row variable [var]; navigation through
   [var] resolves to the subquery's columns *)
and exists_subquery env fn var pred =
  match scan_of_call env.st fn 0 with
  | Some si when si.si_db == env.db ->
    let alias = fresh env.st "t" in
    let where =
      Option.map
        (fun pred ->
          let cols =
            List.map
              (fun (col, ty, _) -> (var ^ "/" ^ col, (Sql.col alias col, ty)))
              si.si_columns
          in
          let rec fix e =
            match e with
            | C.Data (C.Child (C.Var v, name)) | C.Child (C.Var v, name)
              when v = var ->
              C.Var (var ^ "/" ^ name.Qname.local)
            | e -> C.map_children fix e
          in
          translate
            { env with cols = cols @ env.cols; blocked = var :: env.blocked }
            (fix pred))
        pred
    in
    Some
      (Sql.select
         ~projections:[ (Sql.Lit (Sql_value.Int 1), "one") ]
         ?where
         (Sql.Table { table = si.si_table; alias }))
  | _ -> None

let try_translate env e =
  let saved = !(env.params) in
  match translate env e with
  | sql -> Some sql
  | exception Not_pushable ->
    env.params := saved;
    None

(* ------------------------------------------------------------------ *)
(* Phase A: scan conversion                                            *)

let convert_scan st (si : scan_info) var =
  let alias = fresh st "t" in
  let cols =
    List.map
      (fun (col, ty, nullable) ->
        let bv = fresh_var st (var ^ "." ^ col) in
        let out = fresh st "c" in
        (col, out, bv, ty, nullable))
      si.si_columns
  in
  let select =
    Sql.select
      ~projections:
        (List.map (fun (col, out, _, _, _) -> (Sql.col alias col, out)) cols)
      (Sql.Table { table = si.si_table; alias })
  in
  let rel =
    C.Rel
      { db = si.si_db.Database.db_name;
        select;
        sql_params = [];
        binds =
          List.map
            (fun (_, out, bv, ty, _) -> { C.bvar = bv; btype = ty; bcol = out })
            cols }
  in
  let rb =
    { rb_var = var;
      rb_cols = List.map (fun (col, _, bv, ty, n) -> (col, bv, ty, n)) cols;
      rb_row_name = si.si_row_name }
  in
  (rel, rb)

(* Scan conversion over one clause list: every [for] over a table
   function, and navigation through its row variable. *)
let convert_scans st clauses return_ =
  let rows = ref [] in
  (* Row bindings are shared across join branches (names are unique), so
     a join predicate navigating the right branch's row variable also
     resolves to column binds. *)
  let rec convert clauses =
    List.concat_map
      (fun clause ->
        match clause with
        | C.For { var; source = C.Call { fn; args = [] } } -> (
          match scan_of_call st fn 0 with
          | Some si ->
            let rel, rb = convert_scan st si var in
            rows := rb :: !rows;
            [ rel; C.Let { var; value = reconstruction rb } ]
          | None -> [ clause ])
        | C.Join { kind; method_; right; on_; export } ->
          [ C.Join { kind; method_; right = convert right; on_; export } ]
        | c -> [ c ])
      clauses
  in
  let converted = convert clauses in
  if !rows = [] then (converted, return_)
  else
    let fix = resolve_fields !rows in
    let is_reconstruction var =
      List.exists (fun rb -> rb.rb_var = var) !rows
    in
    let rec fix_clause clause =
      match clause with
      | C.Let { var; value } when is_reconstruction var ->
        (* don't rewrite the reconstruction itself *)
        C.Let { var; value }
      | C.Join { kind; method_; right; on_; export } ->
        C.Join
          { kind;
            method_;
            right = List.map fix_clause right;
            on_ = fix on_;
            export =
              (match export with
              | C.Bindings -> C.Bindings
              | C.Grouped { gvar; gexpr } ->
                C.Grouped { gvar; gexpr = fix gexpr }) }
      | c -> C.map_clause fix c
    in
    (List.map fix_clause converted, fix return_)

(* ------------------------------------------------------------------ *)
(* Region merging helpers                                              *)

let cols_env_of_rel st db caps blocked (r : C.sql_access) =
  (* map bind vars back to the column expressions of the underlying select *)
  let proj_map =
    List.map (fun (e, alias) -> (alias, e)) r.C.select.Sql.projections
  in
  { cols =
      List.filter_map
        (fun b ->
          match List.assoc_opt b.C.bcol proj_map with
          | Some col_expr -> Some (b.C.bvar, (col_expr, b.C.btype))
          | None -> None)
        r.C.binds;
    blocked;
    caps;
    st;
    db;
    params = ref [];
    param_base = Sql.param_count (Sql.Query r.C.select) }

let simple_select (s : Sql.select) =
  s.Sql.group_by = [] && s.Sql.having = None && s.Sql.window = None
  && not s.Sql.distinct

(* merge r2 into r1 as a join (same database) *)
let merge_join kind (r1 : C.sql_access) (r2 : C.sql_access) on_sql =
  let sql_kind = match kind with C.J_inner -> Sql.Inner | C.J_left_outer -> Sql.Left_outer in
  let select =
    { r1.C.select with
      Sql.projections = r1.C.select.Sql.projections @ r2.C.select.Sql.projections;
      joins =
        r1.C.select.Sql.joins
        @ [ { Sql.jkind = sql_kind;
              jtable = r2.C.select.Sql.from;
              on_condition = on_sql } ]
        @ r2.C.select.Sql.joins;
      where =
        (match (r1.C.select.Sql.where, r2.C.select.Sql.where) with
        | None, None -> None
        | Some w, None | None, Some w -> Some w
        | Some a, Some b -> Some (Sql.Binop (Sql.And, a, b))) }
  in
  { C.db = r1.C.db;
    select;
    sql_params = r1.C.sql_params @ r2.C.sql_params;
    binds = r1.C.binds @ r2.C.binds }

(* Neither clause reads a variable the other binds, a join's right-side
   variables included. *)
let independent a b =
  let bound = function
    | C.Join { right; _ } as c -> C.clause_vars (c :: right)
    | c -> C.clause_vars [ c ]
  in
  let reads c vars =
    let fv = C.free_vars (C.Flwor { clauses = [ c ]; return_ = C.Empty }) () in
    List.exists (Hashtbl.mem fv) vars
  in
  (not (reads a (bound b))) && not (reads b (bound a))

(* ------------------------------------------------------------------ *)
(* Phase B: region growth                                              *)

(* push translatable scalar computations of the return into the SELECT;
   [bound] is every variable the clause list binds, before the region and
   after it: none of them may become a parameter *)
let push_projections st r return_ bound =
  match Metadata.find_database st.registry r.C.db with
  | None -> (r, return_)
  | Some db ->
    let caps = Sql_print.capabilities db.Database.vendor in
    if not (simple_select r.C.select) then (r, return_)
    else begin
      let blocked = bound @ List.map (fun b -> b.C.bvar) r.C.binds in
      let r_ref = ref r in
      let pushable_shape e =
        match e with
        | C.If _ -> caps.Sql_print.supports_case
        | C.Call { fn; args } -> (
          Qname.equal fn (Names.fn "concat")
          ||
          match Fn_lib.find fn (List.length args) with
          | Some { Fn_lib.translation = Fn_lib.Sql_function _; _ } -> true
          | _ -> false)
        | C.Binop ((C.Add | C.Sub | C.Mul | C.Div), _, _) -> true
        | _ -> false
      in
      let rec walk e =
        if pushable_shape e then begin
          let env = cols_env_of_rel st db caps blocked !r_ref in
          (* only worthwhile when the expression actually reads region
             columns *)
          let reads_region =
            let fv = C.free_vars e () in
            List.exists (fun b -> Hashtbl.mem fv b.C.bvar) (!r_ref).C.binds
          in
          if not reads_region then C.map_children walk e
          else
            match try_translate env e with
            | Some sql ->
              let alias = fresh st "c" in
              let bv = fresh_var st "proj" in
              r_ref :=
                { !r_ref with
                  C.select =
                    { (!r_ref).C.select with
                      Sql.projections =
                        (!r_ref).C.select.Sql.projections @ [ (sql, alias) ] };
                  sql_params = (!r_ref).C.sql_params @ !(env.params);
                  binds =
                    (!r_ref).C.binds
                    @ [ { C.bvar = bv; btype = Atomic.T_untyped; bcol = alias } ] };
              C.Var bv
            | None -> C.map_children walk e
        end
        else
          match e with
          | C.Flwor _ -> e  (* do not cross binder scopes *)
          | e -> C.map_children walk e
      in
      let return' = walk return_ in
      (!r_ref, return')
    end

(* Grouped (outer-join + group-by) merge: the SQL is the flat outer join;
   the middleware re-groups adjacent rows per left tuple with the
   pre-clustered streaming operator (§4.2, §5.2). When the group variable
   is used only under count(), the aggregation itself is pushed and the
   SQL matches pattern (g). Returns the merged region, the clauses after
   it (before the pending lets are put back) and the return. *)
let merge_grouped_join st merged r1 r2 right_lets gvar gexpr rest return_ =
  (* a non-null column of the right side witnesses a real match *)
  let witness =
    List.find_opt
      (fun b ->
        List.exists
          (fun (e, alias) ->
            alias = b.C.bcol && (match e with Sql.Col _ -> true | _ -> false))
          r2.C.select.Sql.projections)
      r2.C.binds
  in
  match witness with
  | None -> None
  | Some wb ->
    (* Special case: gvar used once as count($gvar) and gexpr is the row
       reconstruction (or any per-match value) -> push COUNT (pattern g). *)
    let is_count = function
      | C.Call { fn; args = [ C.Var v ] } ->
        v = gvar && Qname.equal fn (Names.fn "count")
      | _ -> false
    in
    let count_only =
      C.count_uses gvar rest return_ = 1
      &&
      let found = ref false in
      let rec find e =
        if is_count e then found := true;
        ignore (C.map_children (fun c -> find c; c) e)
      in
      List.iter
        (fun c -> ignore (C.map_clause (fun e -> find e; e) c))
        rest;
      find return_;
      !found
    in
    if count_only then begin
      (* GROUP BY the left columns, COUNT the right witness column *)
      let left_cols = r1.C.select.Sql.projections in
      let cnt_alias = fresh st "agg" in
      let cnt_var = fresh_var st gvar in
      let witness_col =
        List.assoc wb.C.bcol
          (List.map (fun (e, a) -> (a, e)) r2.C.select.Sql.projections)
      in
      let select =
        { merged.C.select with
          Sql.projections =
            left_cols @ [ (Sql.Agg (Sql.Count, Sql.All, witness_col), cnt_alias) ];
          group_by = List.map fst left_cols }
      in
      let merged' =
        { merged with
          C.select;
          binds =
            r1.C.binds
            @ [ { C.bvar = cnt_var; btype = Atomic.T_integer; bcol = cnt_alias } ] }
      in
      (* replace count($gvar) with the new bind downstream *)
      let rec replace e =
        if is_count e then C.Var cnt_var else C.map_children replace e
      in
      Some (merged', List.map (C.map_clause replace) rest, replace return_)
    end
    else begin
      (* keep the flat SQL; regroup adjacent rows on the left columns with
         the streaming group operator *)
      let gitem = fresh_var st gvar in
      let left_keys =
        List.map (fun b -> (C.Var b.C.bvar, b.C.bvar)) r1.C.binds
      in
      let group =
        C.Group
          { clustered = true;
            aggs = [ (gitem, gvar) ];
            keys = left_keys }
      in
      let let_item =
        C.Let
          { var = gitem;
            value =
              C.If
                { cond = C.Ebv (C.Call { fn = Names.fn "exists"; args = [ C.Var wb.C.bvar ] });
                  then_ = gexpr;
                  else_ = C.Empty } }
      in
      Some (merged, right_lets @ (let_item :: group :: rest), return_)
    end

(* A same-database join of [r1] with the join's right side, or [None].
   Returns the merged region, the clauses after it (before the pending
   lets are put back) and the return. *)
let try_merge_join st db caps acc r1 kind right on_ export rest return_ =
  match right with
  | [ C.Rel r2 ] | [ C.Rel r2; C.Let _ ] -> (
    let right_lets =
      List.filter (function C.Let _ -> true | _ -> false) right
    in
    if r2.C.db <> r1.C.db || not (simple_select r2.C.select)
       || not (simple_select r1.C.select)
       || r1.C.select.Sql.order_by <> []
    then None
    else
      let blocked =
        C.clause_vars (List.rev acc)
        @ C.clause_vars rest
        @ List.map (fun b -> b.C.bvar) r1.C.binds
        @ List.map (fun b -> b.C.bvar) r2.C.binds
      in
      let delta = Sql.param_count (Sql.Query r1.C.select) in
      let r2_shifted =
        { r2 with C.select = Sql.shift_select delta r2.C.select }
      in
      let env =
        { cols =
            (cols_env_of_rel st db caps blocked r1).cols
            @ (cols_env_of_rel st db caps blocked r2_shifted).cols;
          blocked;
          caps;
          st;
          db;
          params = ref [];
          param_base = delta + Sql.param_count (Sql.Query r2.C.select) }
      in
      match try_translate env on_ with
      | None -> None
      | Some on_sql -> (
        let merged = merge_join kind r1 r2_shifted on_sql in
        let merged =
          { merged with C.sql_params = merged.C.sql_params @ !(env.params) }
        in
        match export with
        | C.Bindings -> Some (merged, right_lets @ rest, return_)
        | C.Grouped { gvar; gexpr } ->
          merge_grouped_join st merged r1 r2 right_lets gvar gexpr rest return_))
  | _ -> None

(* FLWGOR group-by over a region: patterns (e) and (f). Returns the
   grouped region, the clauses after it and the return. *)
let try_merge_group st db caps acc r aggs keys rest return_ =
  let blocked =
    C.clause_vars (List.rev acc) @ List.map (fun b -> b.C.bvar) r.C.binds
  in
  let env = cols_env_of_rel st db caps blocked r in
  let translated_keys =
    List.map (fun (e, out) -> (try_translate env e, out)) keys
  in
  if not (List.for_all (fun (t, _) -> t <> None) translated_keys) then None
  else if not (simple_select r.C.select) then None
  else begin
    let aggregated v = List.exists (fun (_, out) -> out = v) aggs in
    (* Collect downstream aggregate uses of each agg output var.
       Supported shapes: count($p), sum/min/max/avg over a field of $p. *)
    let replacements = ref [] in
    let extra_projs = ref [] in
    let ok = ref true in
    let field_col name =
      (* $p's rows come from the region: field -> underlying column expr *)
      List.find_map
        (fun (e, _) ->
          match e with
          | Sql.Col (_, col) when String.equal col name.Qname.local -> Some e
          | _ -> None)
        r.C.select.Sql.projections
    in
    let rec scan e =
      match e with
      | C.Call { fn; args = [ C.Var v ] }
        when aggregated v && Qname.equal fn (Names.fn "count") ->
        let alias = fresh st "agg" in
        let bv = fresh_var st "cnt" in
        extra_projs := (Sql.Count_star, alias, bv, Atomic.T_integer) :: !extra_projs;
        replacements := (e, C.Var bv) :: !replacements
      | C.Call { fn; args = [ arg ] } when Fn_lib.is_aggregate fn -> (
        let target =
          match arg with
          | C.Data (C.Child (C.Var v, name)) | C.Child (C.Var v, name) ->
            if aggregated v then Some name else None
          | _ -> None
        in
        match target with
        | Some name -> (
          match field_col name with
          | Some col ->
            let kind =
              if Qname.equal fn (Names.fn "count") then Sql.Count
              else if Qname.equal fn (Names.fn "sum") then Sql.Sum
              else if Qname.equal fn (Names.fn "min") then Sql.Min
              else if Qname.equal fn (Names.fn "max") then Sql.Max
              else Sql.Avg
            in
            let alias = fresh st "agg" in
            let bv = fresh_var st "agg" in
            let ty =
              if kind = Sql.Count then Atomic.T_integer else Atomic.T_decimal
            in
            extra_projs :=
              (Sql.Agg (kind, Sql.All, col), alias, bv, ty) :: !extra_projs;
            replacements := (e, C.Var bv) :: !replacements
          | None -> ok := false)
        | None -> ignore (C.map_children (fun c -> scan c; c) e))
      | C.Var v when aggregated v ->
        (* raw use of an aggregated variable blocks the push *)
        ok := false
      | e -> ignore (C.map_children (fun c -> scan c; c) e)
    in
    List.iter (fun c -> ignore (C.map_clause (fun e -> scan e; e) c)) rest;
    scan return_;
    if not !ok then None
    else begin
      let key_cols =
        List.map
          (fun (t, out) ->
            let alias = fresh st "k" in
            (Option.get t, alias, out))
          translated_keys
      in
      let distinct = !extra_projs = [] in
      let select =
        { r.C.select with
          Sql.projections =
            List.map (fun (e, alias, _) -> (e, alias)) key_cols
            @ List.map (fun (e, alias, _, _) -> (e, alias)) (List.rev !extra_projs);
          group_by =
            (if distinct then [] else List.map (fun (e, _, _) -> e) key_cols);
          distinct }
      in
      (* the key's type is recoverable when the key expression is a plain
         column reference *)
      let key_binds =
        List.map2
          (fun (_, alias, out) (orig_expr, _) ->
            let btype =
              match orig_expr with
              | C.Var v | C.Data (C.Var v) -> (
                match List.find_opt (fun b -> b.C.bvar = v) r.C.binds with
                | Some b -> b.C.btype
                | None -> Atomic.T_untyped)
              | _ -> Atomic.T_untyped
            in
            { C.bvar = out; btype; bcol = alias })
          key_cols keys
      in
      let agg_binds =
        List.map
          (fun (_, alias, bv, ty) -> { C.bvar = bv; btype = ty; bcol = alias })
          (List.rev !extra_projs)
      in
      let merged =
        { r with
          C.select;
          binds = key_binds @ agg_binds }
      in
      let apply_replacements e =
        let rec go e =
          match List.assoc_opt e !replacements with
          | Some r -> r
          | None -> C.map_children go e
        in
        go e
      in
      Some
        ( merged,
          List.map (C.map_clause apply_replacements) rest,
          apply_replacements return_ )
    end
  end

(* Grow SQL regions along one clause list.

   Parameter expressions may reference only variables from *outer* scopes
   (function parameters, enclosing FLWORs): those are present in the tuple
   environment when the region executes. Variables bound by this clause
   list (including the region's own binds) are blocked. *)
let grow_regions st clauses return_ =
  let caps_of db_name =
    match Metadata.find_database st.registry db_name with
    | Some db -> Some (db, Sql_print.capabilities db.Database.vendor)
    | None -> None
  in
  let all_clause_vars = ref (C.clause_vars clauses) in
  let rec grow acc clauses return_ =
    match clauses with
    | [] -> (List.rev acc, return_)
    | C.Rel r :: rest -> absorb acc r [] rest return_
    | c :: rest -> grow (c :: acc) rest return_
  (* try to absorb following clauses into region r; [pending] holds
     row-reconstruction lets that sit between the region and the clause
     being absorbed and are re-emitted after it, in source order *)
  and absorb acc r pending clauses return_ =
    match caps_of r.C.db with
    | None -> grow (C.Rel r :: acc) clauses return_
    | Some (db, caps) -> (
      let blocked =
        !all_clause_vars @ List.map (fun b -> b.C.bvar) r.C.binds
      in
      let env () = cols_env_of_rel st db caps blocked r in
      (* pending simple lets ($x := $bind / const) are seen through when
         translating downstream clauses *)
      let psub =
        List.filter_map
          (function
            | C.Let { var; value = (C.Var _ | C.Const _) as v } -> Some (var, v)
            | _ -> None)
          pending
      in
      let through e = C.substitute psub e in
      match clauses with
      | C.Where w :: rest -> (
        let env = env () in
        match try_translate env (through w) with
        | Some sql_pred ->
          let r' =
            { r with
              C.select =
                { r.C.select with
                  Sql.where =
                    (match r.C.select.Sql.where with
                    | None -> Some sql_pred
                    | Some old -> Some (Sql.Binop (Sql.And, old, sql_pred))) };
              sql_params = r.C.sql_params @ !(env.params) }
          in
          absorb acc r' pending rest return_
        | None -> finish acc r pending clauses return_)
      | (C.Let { var = _; value = (C.Elem _ | C.Var _ | C.Const _) } as l)
        :: rest ->
        (* row reconstruction or other pure cheap value: slide past it *)
        absorb acc r (pending @ [ l ]) rest return_
      | C.Join { kind; right; on_; export; _ } :: rest -> (
        match
          try_merge_join st db caps acc r kind right (through on_) export rest
            return_
        with
        | Some (merged, after, return_) ->
          merged_into acc merged (pending @ after) return_
        | None -> commute acc r db caps pending through [] clauses return_)
      | C.Group { aggs; keys; clustered = false } :: rest -> (
        let keys = List.map (fun (e, v) -> (through e, v)) keys in
        match try_merge_group st db caps acc r aggs keys rest return_ with
        | Some (merged, after, return_) -> merged_into acc merged after return_
        | None -> finish acc r pending clauses return_)
      | C.Order { keys } :: rest -> (
        let env = env () in
        let translated =
          List.map (fun (e, desc) -> (try_translate env (through e), desc)) keys
        in
        if List.for_all (fun (t, _) -> t <> None) translated then
          let r' =
            { r with
              C.select =
                { r.C.select with
                  Sql.order_by =
                    List.map
                      (fun (t, desc) ->
                        { Sql.sort_expr = Option.get t; descending = desc })
                      translated };
              sql_params = r.C.sql_params @ !(env.params) }
          in
          absorb acc r' pending rest return_
        else finish acc r pending clauses return_)
      | _ -> commute acc r db caps pending through [] clauses return_)
  (* A merge leaves the merged region followed by the clauses it hands
     back (pending lets first); the region goes on absorbing them, so an
     ORDER BY or WHERE after a join or group-by lands in the same
     statement. The clause list has changed, so its bound variables are
     recomputed. *)
  and merged_into acc merged clauses return_ =
    all_clause_vars := C.clause_vars (List.rev_append acc (C.Rel merged :: clauses));
    absorb acc merged [] clauses return_
  (* A grouped left outer join emits exactly one tuple per left tuple, so
     two of them commute, and one commutes with a let, when neither reads
     a variable the other binds. [skipped] (source order) holds such
     clauses between the region and the next candidate; a same-database
     grouped join that commutes with all of them moves up next to the
     region and merges there. Wheres, inner joins, fors, groups and
     orders filter, multiply or reorder tuples and end the search. *)
  and commute acc r db caps pending through skipped clauses return_ =
    match clauses with
    | (C.Let _ as c) :: rest ->
      commute acc r db caps pending through (skipped @ [ c ]) rest return_
    | (C.Join
         { kind = C.J_left_outer as kind;
           right;
           on_;
           export = C.Grouped _ as export;
           _ } as j)
      :: rest -> (
      (* with nothing skipped, [absorb] has just tried this join in place;
         a failed attempt may have drawn fresh names, which are given back
         so that plans that do not merge stay as they were *)
      let movable = skipped <> [] && List.for_all (independent j) skipped in
      let saved = !(st.counter) in
      match
        if movable then
          try_merge_join st db caps acc r kind right (through on_) export
            (skipped @ rest) return_
        else None
      with
      | Some (merged, after, return_) ->
        merged_into acc merged (pending @ after) return_
      | None ->
        st.counter := saved;
        commute acc r db caps pending through (skipped @ [ j ]) rest return_)
    | _ -> finish acc r pending (skipped @ clauses) return_
  and finish acc r pending clauses return_ =
    (* computed-scalar projection: push translatable scalar subexpressions
       of the return into the region's SELECT list (pattern d etc.) *)
    let r, return_ = push_projections st r return_ !all_clause_vars in
    grow (List.rev_append (C.Rel r :: pending) acc) clauses return_
  in
  grow [] clauses return_

(* ------------------------------------------------------------------ *)
(* Phase C: drop binds (and their projections) that nothing references *)

(* A join's right side is pruned too: its readers are the later right
   clauses, the ON predicate, a grouped export and everything after the
   join. [read_later v]: something after the clause list reads [v]. *)
let prune_binds clauses return_ =
  let reads v clauses e = C.count_uses v clauses e > 0 in
  let rec prune ~read_later before = function
    | [] -> List.rev before
    | C.Rel r :: rest ->
      if r.C.select.Sql.group_by <> [] || r.C.select.Sql.distinct then
        (* grouped/distinct projections stay aligned with their binds *)
        prune ~read_later (C.Rel r :: before) rest
      else begin
        let used b = reads b.C.bvar rest C.Empty || read_later b.C.bvar in
        let keep = List.filter used r.C.binds in
        let keep_cols = List.map (fun b -> b.C.bcol) keep in
        let projections =
          List.filter
            (fun (_, alias) -> List.mem alias keep_cols)
            r.C.select.Sql.projections
        in
        let projections =
          if projections = [] then [ (Sql.Lit (Sql_value.Int 1), "one") ]
          else projections
        in
        let r' =
          { r with C.select = { r.C.select with Sql.projections }; binds = keep }
        in
        prune ~read_later (C.Rel r' :: before) rest
      end
    | C.Join j :: rest ->
      let read_after_right v =
        reads v [] j.on_
        || (match j.export with
           | C.Bindings -> false
           | C.Grouped { gexpr; _ } -> reads v [] gexpr)
        || reads v rest C.Empty || read_later v
      in
      let right = prune ~read_later:read_after_right [] j.right in
      prune ~read_later (C.Join { j with right } :: before) rest
    | c :: rest -> prune ~read_later (c :: before) rest
  in
  (prune ~read_later:(fun v -> reads v [] return_) [] clauses, return_)

(* ------------------------------------------------------------------ *)
(* Phase D: parameterize join right sides for PP-k                      *)

(* [r] with the join's equi keys whose right side is a plain bind of [r]
   added to its WHERE as [col = ?], or [None] when no key translates. *)
let parameterized r on_ right_vars =
  match C.equi_join_keys ~right_vars on_ with
  | None -> None
  | Some (pairs, _residual) -> (
    let bind_col b =
      List.assoc_opt b.C.bcol
        (List.map (fun (pe, a) -> (a, pe)) r.C.select.Sql.projections)
    in
    let translatable =
      List.filter_map
        (fun (lexpr, rexpr) ->
          match rexpr with
          | C.Var v | C.Data (C.Var v) -> (
            match List.find_opt (fun b -> b.C.bvar = v) r.C.binds with
            | Some b -> (
              match bind_col b with
              | Some col -> Some (lexpr, col)
              | None -> None)
            | None -> None)
          | _ -> None)
        pairs
    in
    match translatable with
    | [] -> None
    | keys ->
      let base = Sql.param_count (Sql.Query r.C.select) in
      let conds =
        List.mapi
          (fun i (_, col) -> Sql.Binop (Sql.Eq, col, Sql.Param (base + i + 1)))
          keys
      in
      let where' =
        List.fold_left
          (fun acc c ->
            match acc with
            | None -> Some c
            | Some a -> Some (Sql.Binop (Sql.And, a, c)))
          r.C.select.Sql.where conds
      in
      Some
        { r with
          C.select = { r.C.select with Sql.where = where' };
          sql_params = r.C.sql_params @ List.map fst keys })

(* [gate ~outer ~whole r'] may veto parameterizing a join right side
   [whole] into [r'] given the clauses preceding the join ([outer],
   source order): the cost-based transfer-volume gate declines when
   probing block-by-block is estimated to cost more than fetching the
   inner region whole. A vetoed join keeps its unparameterized [Rel]
   right side — the same plan shape produced when no key is translatable
   — so the executor path is unchanged and results are byte-identical. *)
let parameterize_joins ~gate clauses =
  let rec fix before = function
    | [] -> []
    | (C.Join { kind; method_; right = C.Rel r :: right_rest; on_; export }
       as c)
      :: rest
      when r.C.sql_params = [] ->
      let c =
        match parameterized r on_ (C.clause_vars (C.Rel r :: right_rest)) with
        | Some r' when gate ~outer:(List.rev before) ~whole:r r' ->
          C.Join
            { kind; method_; right = C.Rel r' :: right_rest; on_; export }
        | _ -> c
      in
      c :: fix (c :: before) rest
    | c :: rest -> c :: fix (c :: before) rest
  in
  fix [] clauses

(* ------------------------------------------------------------------ *)
(* Window pushdown: subsequence over a pushed ordered region            *)

let push_window st e =
  match e with
  | C.Call
      { fn;
        args = C.Flwor { clauses = C.Rel r :: rest_lets; return_ } :: pos_args }
    when Qname.equal fn (Names.fn "subsequence")
         && List.for_all (function C.Let _ -> true | _ -> false) rest_lets -> (
    let window =
      match pos_args with
      | [ C.Const (Atomic.Integer start) ] -> Some { Sql.start; count = None }
      | [ C.Const (Atomic.Integer start); C.Const (Atomic.Integer count) ] ->
        Some { Sql.start; count = Some count }
      | _ -> None
    in
    match (window, Metadata.find_database st.registry r.C.db) with
    | Some w, Some db
      when (let caps = Sql_print.capabilities db.Database.vendor in
            caps.Sql_print.supports_window
            && (w.Sql.start <= 1 || caps.Sql_print.supports_window_offset))
           && r.C.select.Sql.window = None ->
      C.Flwor
        { clauses =
            C.Rel { r with C.select = { r.C.select with Sql.window = Some w } }
            :: rest_lets;
          return_ }
    | _ -> e)
  | e -> e

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

(* One bottom-up walk: each FLWOR is pushed after the expressions inside
   it, each call after its arguments. *)
let rec push_expr ~gate st e =
  match C.map_children (push_expr ~gate st) e with
  | C.Flwor { clauses; return_ } ->
    let clauses, return_ = convert_scans st clauses return_ in
    let clauses, return_ = grow_regions st clauses return_ in
    let clauses, return_ = prune_binds clauses return_ in
    C.Flwor { clauses = parameterize_joins ~gate clauses; return_ }
  | e -> push_window st e

let push ?(gate = fun ~outer:_ ~whole:_ _ -> true) registry e =
  push_expr ~gate { registry; counter = ref 0 } e

let rec prune e =
  match C.map_children prune e with
  | C.Flwor { clauses; return_ } ->
    let clauses, return_ = prune_binds clauses return_ in
    C.Flwor { clauses; return_ }
  | e -> e
