open Aldsp_xml

type var = string

type join_method =
  | Nested_loop
  | Index_nested_loop
  | Ppk of { k : int; prefetch : int }

type binop =
  | V_eq | V_ne | V_lt | V_le | V_gt | V_ge
  | G_eq | G_ne | G_lt | G_le | G_gt | G_ge
  | Add | Sub | Mul | Div | Idiv | Mod
  | And | Or
  | Range

type t =
  | Const of Atomic.t
  | Empty
  | Seq of t list
  | Var of var
  | Elem of {
      name : Qname.t;
      optional : bool;
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
  | Data of t
  | Ebv of t
  | Binop of binop * t * t
  | Typematch of t * Stype.t
  | Cast of t * Atomic.atomic_type
  | Castable of t * Atomic.atomic_type
  | Instance_of of t * Stype.t
  | Error_expr of string

and attr = { aname : Qname.t; avalue : t; aoptional : bool }

and clause =
  | For of { var : var; source : t }
  | Let of { var : var; value : t }
  | Where of t
  | Group of { aggs : (var * var) list; keys : (t * var) list; clustered : bool }
  | Order of { keys : (t * bool) list }
  | Join of {
      kind : join_kind;
      method_ : join_method;
      right : clause list;
      on_ : t;
      export : export;
    }
  | Rel of sql_access

and join_kind = J_inner | J_left_outer

and export = Bindings | Grouped of { gvar : var; gexpr : t }

and sql_access = {
  db : string;
  select : Aldsp_relational.Sql_ast.select;
  sql_params : t list;
  binds : sql_bind list;
}

and sql_bind = { bvar : var; btype : Atomic.atomic_type; bcol : string }

let seq exprs =
  let flattened =
    List.concat_map
      (function Seq es -> es | Empty -> [] | e -> [ e ])
      exprs
  in
  match flattened with [] -> Empty | [ e ] -> e | es -> Seq es

(* ------------------------------------------------------------------ *)
(* Traversals                                                          *)

let map_attr f a = { a with avalue = f a.avalue }

let rec map_clause f = function
  | For { var; source } -> For { var; source = f source }
  | Let { var; value } -> Let { var; value = f value }
  | Where e -> Where (f e)
  | Group { aggs; keys; clustered } ->
    Group { aggs; keys = List.map (fun (e, v) -> (f e, v)) keys; clustered }
  | Order { keys } -> Order { keys = List.map (fun (e, d) -> (f e, d)) keys }
  | Join { kind; method_; right; on_; export } ->
    Join
      { kind;
        method_;
        right = List.map (map_clause f) right;
        on_ = f on_;
        export =
          (match export with
          | Bindings -> Bindings
          | Grouped { gvar; gexpr } -> Grouped { gvar; gexpr = f gexpr }) }
  | Rel r -> Rel { r with sql_params = List.map f r.sql_params }

let map_children f = function
  | (Const _ | Empty | Var _ | Error_expr _) as e -> e
  | Seq es -> Seq (List.map f es)
  | Elem { name; optional; attrs; content } ->
    Elem { name; optional; attrs = List.map (map_attr f) attrs;
           content = f content }
  | Flwor { clauses; return_ } ->
    Flwor { clauses = List.map (map_clause f) clauses; return_ = f return_ }
  | If { cond; then_; else_ } ->
    If { cond = f cond; then_ = f then_; else_ = f else_ }
  | Quantified { universal; var; source; pred } ->
    Quantified { universal; var; source = f source; pred = f pred }
  | Call { fn; args } -> Call { fn; args = List.map f args }
  | Child (e, n) -> Child (f e, n)
  | Child_wild e -> Child_wild (f e)
  | Attr_of (e, n) -> Attr_of (f e, n)
  | Filter { input; dot; pos; pred } ->
    Filter { input = f input; dot; pos; pred = f pred }
  | Data e -> Data (f e)
  | Ebv e -> Ebv (f e)
  | Binop (op, a, b) -> Binop (op, f a, f b)
  | Typematch (e, ty) -> Typematch (f e, ty)
  | Cast (e, ty) -> Cast (f e, ty)
  | Castable (e, ty) -> Castable (f e, ty)
  | Instance_of (e, ty) -> Instance_of (f e, ty)

(* ------------------------------------------------------------------ *)
(* Free variables                                                      *)

(* Variables a clause pipeline binds for downstream clauses. *)
let rec clause_vars clauses =
  List.concat_map
    (function
      | For { var; _ } | Let { var; _ } -> [ var ]
      | Where _ | Order _ -> []
      | Group { aggs; keys; _ } -> List.map snd aggs @ List.map snd keys
      | Join { right; export; _ } -> (
        match export with
        | Bindings -> clause_vars right
        | Grouped { gvar; _ } -> [ gvar ])
      | Rel r -> List.map (fun b -> b.bvar) r.binds)
    clauses

let free_vars expr () =
  let table = Hashtbl.create 16 in
  let bound = Hashtbl.create 16 in
  let with_bound vars f =
    List.iter (fun v -> Hashtbl.add bound v ()) vars;
    f ();
    List.iter (fun v -> Hashtbl.remove bound v) vars
  in
  let use v = if not (Hashtbl.mem bound v) then Hashtbl.replace table v () in
  let rec go e =
    match e with
    | Var v -> use v
    | Flwor { clauses; return_ } -> go_clauses clauses (fun () -> go return_)
    | Quantified { var; source; pred; _ } ->
      go source;
      with_bound [ var ] (fun () -> go pred)
    | Filter { input; dot; pos; pred } ->
      go input;
      with_bound [ dot; pos ] (fun () -> go pred)
    | e ->
      ignore
        (map_children
           (fun child ->
             go child;
             child)
           e)
  and go_clauses clauses k =
    match clauses with
    | [] -> k ()
    | For { var; source } :: rest ->
      go source;
      with_bound [ var ] (fun () -> go_clauses rest k)
    | Let { var; value } :: rest ->
      go value;
      with_bound [ var ] (fun () -> go_clauses rest k)
    | Where e :: rest ->
      go e;
      go_clauses rest k
    | Group { aggs; keys; clustered = _ } :: rest ->
      List.iter (fun (e, _) -> go e) keys;
      (* group hides everything except its outputs; inputs are uses *)
      List.iter (fun (v, _) -> use v) aggs;
      let outs = List.map snd aggs @ List.map snd keys in
      with_bound outs (fun () -> go_clauses rest k)
    | Order { keys } :: rest ->
      List.iter (fun (e, _) -> go e) keys;
      go_clauses rest k
    | Join { right; on_; export; _ } :: rest ->
      go_clauses right (fun () ->
          go on_;
          match export with
          | Bindings -> ()
          | Grouped { gexpr; _ } -> go gexpr);
      let exported =
        match export with
        | Bindings -> clause_vars right
        | Grouped { gvar; _ } -> [ gvar ]
      in
      with_bound exported (fun () -> go_clauses rest k)
    | Rel r :: rest ->
      List.iter go r.sql_params;
      with_bound (List.map (fun b -> b.bvar) r.binds) (fun () ->
          go_clauses rest k)
  in
  go expr;
  table

(* Occurrence counting. Names are unique after normalization, so no
   binder bookkeeping is needed — but Group clauses reference their
   aggregation inputs positionally (not as Var nodes), so the traversal
   must be clause-aware. *)
let count_uses v clauses return_ =
  let n = ref 0 in
  let rec go_expr e =
    match e with
    | Var v' -> if String.equal v v' then incr n
    | Flwor { clauses; return_ } ->
      List.iter go_clause clauses;
      go_expr return_
    | e ->
      ignore
        (map_children
           (fun child ->
             go_expr child;
             child)
           e)
  and go_clause = function
    | For { source; _ } -> go_expr source
    | Let { value; _ } -> go_expr value
    | Where e -> go_expr e
    | Group { aggs; keys; _ } ->
      List.iter (fun (v_in, _) -> if String.equal v v_in then incr n) aggs;
      List.iter (fun (e, _) -> go_expr e) keys
    | Order { keys } -> List.iter (fun (e, _) -> go_expr e) keys
    | Join { right; on_; export; _ } ->
      List.iter go_clause right;
      go_expr on_;
      (match export with
      | Bindings -> ()
      | Grouped { gexpr; _ } -> go_expr gexpr)
    | Rel r -> List.iter go_expr r.sql_params
  in
  List.iter go_clause clauses;
  go_expr return_;
  !n

let count_occurrences v e = count_uses v [] e

(* ------------------------------------------------------------------ *)
(* Equi-join keys                                                      *)

let unwrap_ebv = function Ebv e -> e | e -> e

let rec conjuncts pred =
  match unwrap_ebv pred with
  | Binop (And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let reads_only vars e =
  let fv = free_vars e () in
  Hashtbl.length fv > 0
  && Hashtbl.fold (fun v _ acc -> acc && List.mem v vars) fv true

let equi_join_keys ~right_vars on_ =
  let touches_right e =
    let fv = free_vars e () in
    List.exists (fun v -> Hashtbl.mem fv v) right_vars
  in
  let classify e =
    match unwrap_ebv e with
    | Binop ((V_eq | G_eq), a, b) ->
      if reads_only right_vars b && not (touches_right a) then Some (a, b)
      else if reads_only right_vars a && not (touches_right b) then Some (b, a)
      else None
    | _ -> None
  in
  let pairs, residual =
    List.fold_left
      (fun (pairs, residual) conj ->
        match classify conj with
        | Some pair -> (pair :: pairs, residual)
        | None -> (pairs, conj :: residual))
      ([], []) (conjuncts on_)
  in
  if pairs = [] then None else Some (List.rev pairs, List.rev residual)

(* Row reconstruction: element constructors over variables and constants,
   which cannot raise — so skipping a candidate never hides an error. *)
let rec constructor_only = function
  | Const _ | Empty | Var _ -> true
  | Seq es -> List.for_all constructor_only es
  | Elem { attrs; content; _ } ->
    List.for_all (fun a -> constructor_only a.avalue) attrs
    && constructor_only content
  | _ -> false

let hash_keys method_ right on_ =
  let reconstruction = function
    | Let { value; _ } -> constructor_only value
    | _ -> false
  in
  let keyed r (_, rk) = reads_only (List.map (fun b -> b.bvar) r.binds) rk in
  match (method_, right, equi_join_keys ~right_vars:(clause_vars right) on_) with
  | Index_nested_loop, _, Some (pairs, _) -> pairs
  | Ppk _, Rel r :: lets, Some (pairs, [])
    when List.for_all reconstruction lets && List.for_all (keyed r) pairs ->
    pairs
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Substitution                                                        *)

let rec substitute subst e =
  if subst = [] then e
  else
    match e with
    | Var v -> ( match List.assoc_opt v subst with Some r -> r | None -> e)
    | Flwor { clauses; return_ } ->
      let clauses, subst' = substitute_clauses subst clauses in
      Flwor { clauses; return_ = substitute subst' return_ }
    | Quantified { universal; var; source; pred } ->
      let subst' = List.remove_assoc var subst in
      Quantified
        { universal; var; source = substitute subst source;
          pred = substitute subst' pred }
    | Filter { input; dot; pos; pred } ->
      let subst' = List.remove_assoc pos (List.remove_assoc dot subst) in
      Filter
        { input = substitute subst input; dot; pos;
          pred = substitute subst' pred }
    | e -> map_children (substitute subst) e

and substitute_clauses subst = function
  | [] -> ([], subst)
  | For { var; source } :: rest ->
    let source = substitute subst source in
    let subst' = List.remove_assoc var subst in
    let rest, final = substitute_clauses subst' rest in
    (For { var; source } :: rest, final)
  | Let { var; value } :: rest ->
    let value = substitute subst value in
    let subst' = List.remove_assoc var subst in
    let rest, final = substitute_clauses subst' rest in
    (Let { var; value } :: rest, final)
  | Where e :: rest ->
    let rest, final = substitute_clauses subst rest in
    (Where (substitute subst e) :: rest, final)
  | Group { aggs; keys; clustered } :: rest ->
    let keys = List.map (fun (e, v) -> (substitute subst e, v)) keys in
    let aggs =
      List.map
        (fun (v_in, v_out) ->
          (* agg inputs are variable references: substitution of a var by a
             var renames; anything else leaves the input *)
          match List.assoc_opt v_in subst with
          | Some (Var v') -> (v', v_out)
          | _ -> (v_in, v_out))
        aggs
    in
    let outs = List.map snd aggs @ List.map snd keys in
    let subst' =
      List.filter (fun (v, _) -> not (List.mem v outs)) subst
    in
    let rest, final = substitute_clauses subst' rest in
    (Group { aggs; keys; clustered } :: rest, final)
  | Order { keys } :: rest ->
    let keys = List.map (fun (e, d) -> (substitute subst e, d)) keys in
    let rest, final = substitute_clauses subst rest in
    (Order { keys } :: rest, final)
  | Join { kind; method_; right; on_; export } :: rest ->
    let right, subst_in_join = substitute_clauses subst right in
    let on_ = substitute subst_in_join on_ in
    let export, exported =
      match export with
      | Bindings -> (Bindings, [])
      | Grouped { gvar; gexpr } ->
        (Grouped { gvar; gexpr = substitute subst_in_join gexpr }, [ gvar ])
    in
    let subst' =
      List.filter (fun (v, _) -> not (List.mem v exported)) subst_in_join
    in
    let rest, final = substitute_clauses subst' rest in
    (Join { kind; method_; right; on_; export } :: rest, final)
  | Rel r :: rest ->
    let r = { r with sql_params = List.map (substitute subst) r.sql_params } in
    let bound = List.map (fun b -> b.bvar) r.binds in
    let subst' = List.filter (fun (v, _) -> not (List.mem v bound)) subst in
    let rest, final = substitute_clauses subst' rest in
    (Rel r :: rest, final)

(* ------------------------------------------------------------------ *)
(* Bound-variable renaming (inlining hygiene)                          *)

let rename_bound fresh expr =
  let rename_var env v =
    match List.assoc_opt v env with Some v' -> v' | None -> v
  in
  let fresh_var v = Printf.sprintf "%s~%d" v (fresh ()) in
  let rec go env e =
    match e with
    | Var v -> Var (rename_var env v)
    | Flwor { clauses; return_ } ->
      let clauses, env' = go_clauses env clauses in
      Flwor { clauses; return_ = go env' return_ }
    | Quantified { universal; var; source; pred } ->
      let var' = fresh_var var in
      Quantified
        { universal; var = var'; source = go env source;
          pred = go ((var, var') :: env) pred }
    | Filter { input; dot; pos; pred } ->
      let dot' = fresh_var dot and pos' = fresh_var pos in
      Filter
        { input = go env input; dot = dot'; pos = pos';
          pred = go ((dot, dot') :: (pos, pos') :: env) pred }
    | e -> map_children (go env) e
  and go_clauses env = function
    | [] -> ([], env)
    | For { var; source } :: rest ->
      let var' = fresh_var var in
      let source = go env source in
      let rest, env' = go_clauses ((var, var') :: env) rest in
      (For { var = var'; source } :: rest, env')
    | Let { var; value } :: rest ->
      let var' = fresh_var var in
      let value = go env value in
      let rest, env' = go_clauses ((var, var') :: env) rest in
      (Let { var = var'; value } :: rest, env')
    | Where e :: rest ->
      let rest, env' = go_clauses env rest in
      (Where (go env e) :: rest, env')
    | Group { aggs; keys; clustered } :: rest ->
      let keys = List.map (fun (e, v) -> (go env e, v)) keys in
      let aggs = List.map (fun (v_in, v_out) -> (rename_var env v_in, v_out)) aggs in
      let aggs = List.map (fun (v_in, v_out) -> (v_in, v_out, fresh_var v_out)) aggs in
      let keys = List.map (fun (e, v) -> (e, v, fresh_var v)) keys in
      let env' =
        List.map (fun (_, v, v') -> (v, v')) aggs
        @ List.map (fun (_, v, v') -> (v, v')) keys
        @ env
      in
      let rest, env'' =
        go_clauses env' rest
      in
      ( Group
          { aggs = List.map (fun (v_in, _, v') -> (v_in, v')) aggs;
            keys = List.map (fun (e, _, v') -> (e, v')) keys;
            clustered }
        :: rest,
        env'' )
    | Order { keys } :: rest ->
      let keys = List.map (fun (e, d) -> (go env e, d)) keys in
      let rest, env' = go_clauses env rest in
      (Order { keys } :: rest, env')
    | Join { kind; method_; right; on_; export } :: rest ->
      let right, env_in = go_clauses env right in
      let on_ = go env_in on_ in
      let export, env_after =
        match export with
        | Bindings -> (Bindings, env_in)
        | Grouped { gvar; gexpr } ->
          let gvar' = fresh_var gvar in
          ( Grouped { gvar = gvar'; gexpr = go env_in gexpr },
            (gvar, gvar') :: env )
      in
      let rest, env' = go_clauses env_after rest in
      (Join { kind; method_; right; on_; export } :: rest, env')
    | Rel r :: rest ->
      let r = { r with sql_params = List.map (go env) r.sql_params } in
      let binds = List.map (fun b -> (b, fresh_var b.bvar)) r.binds in
      let env' = List.map (fun (b, v') -> (b.bvar, v')) binds @ env in
      let r = { r with binds = List.map (fun (b, v') -> { b with bvar = v' }) binds } in
      let rest, env'' = go_clauses env' rest in
      (Rel r :: rest, env'')
  in
  go [] expr

(* ------------------------------------------------------------------ *)
(* Size / equality                                                     *)

let equal (a : t) (b : t) = a = b

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                     *)

let binop_name = function
  | V_eq -> "eq" | V_ne -> "ne" | V_lt -> "lt" | V_le -> "le"
  | V_gt -> "gt" | V_ge -> "ge"
  | G_eq -> "=" | G_ne -> "!=" | G_lt -> "<" | G_le -> "<="
  | G_gt -> ">" | G_ge -> ">="
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "div"
  | Idiv -> "idiv" | Mod -> "mod"
  | And -> "and" | Or -> "or" | Range -> "to"

let method_name ~right ~on_ = function
  | Nested_loop -> "nl"
  | Index_nested_loop -> "inl"
  | Ppk { k; prefetch } as m ->
    Printf.sprintf "pp-%d%s/%s" k
      (if prefetch > 0 then Printf.sprintf "+%d" prefetch else "")
      (if hash_keys m right on_ = [] then "nl" else "inl")

let rec pp ppf e =
  let open Format in
  match e with
  | Const a -> Atomic.pp ppf a
  | Empty -> pp_print_string ppf "()"
  | Seq es ->
    fprintf ppf "(@[%a@])"
      (pp_print_list ~pp_sep:(fun ppf () -> fprintf ppf ",@ ") pp)
      es
  | Var v -> fprintf ppf "$%s" v
  | Elem { name; optional; attrs; content } ->
    fprintf ppf "@[<hv 2>element %a%s%a {@ %a@] }" Qname.pp name
      (if optional then "?" else "")
      (fun ppf attrs ->
        List.iter
          (fun a ->
            fprintf ppf " @%a%s=%a" Qname.pp a.aname
              (if a.aoptional then "?" else "")
              pp a.avalue)
          attrs)
      attrs pp content
  | Flwor { clauses; return_ } ->
    fprintf ppf "@[<v>%a@ return %a@]"
      (pp_print_list ~pp_sep:pp_print_cut pp_clause)
      clauses pp return_
  | If { cond; then_; else_ } ->
    fprintf ppf "@[<hv>if (%a)@ then %a@ else %a@]" pp cond pp then_ pp else_
  | Quantified { universal; var; source; pred } ->
    fprintf ppf "%s $%s in %a satisfies %a"
      (if universal then "every" else "some")
      var pp source pp pred
  | Call { fn; args } ->
    fprintf ppf "%a(@[%a@])" Qname.pp fn
      (pp_print_list ~pp_sep:(fun ppf () -> fprintf ppf ",@ ") pp)
      args
  | Child (e, n) -> fprintf ppf "%a/%a" pp e Qname.pp n
  | Child_wild e -> fprintf ppf "%a/*" pp e
  | Attr_of (e, n) -> fprintf ppf "%a/@@%a" pp e Qname.pp n
  | Filter { input; dot; pred; _ } ->
    fprintf ppf "%a[%s: %a]" pp input dot pp pred
  | Data e -> fprintf ppf "data(%a)" pp e
  | Ebv e -> fprintf ppf "ebv(%a)" pp e
  | Binop (op, a, b) -> fprintf ppf "(%a %s %a)" pp a (binop_name op) pp b
  | Typematch (e, ty) -> fprintf ppf "typematch(%a, %a)" pp e Stype.pp ty
  | Cast (e, ty) ->
    fprintf ppf "cast(%a as %s)" pp e (Atomic.type_name ty)
  | Castable (e, ty) ->
    fprintf ppf "(%a castable as %s)" pp e (Atomic.type_name ty)
  | Instance_of (e, ty) ->
    fprintf ppf "(%a instance of %a)" pp e Stype.pp ty
  | Error_expr msg -> fprintf ppf "error(%S)" msg

and pp_clause ppf c =
  let open Format in
  match c with
  | For { var; source } -> fprintf ppf "for $%s in %a" var pp source
  | Let { var; value } -> fprintf ppf "let $%s := %a" var pp value
  | Where e -> fprintf ppf "where %a" pp e
  | Group { aggs; keys; clustered } ->
    fprintf ppf "group%s %a by %a"
      (if clustered then "[pre-clustered]" else "")
      (pp_print_list
         ~pp_sep:(fun ppf () -> pp_print_string ppf ", ")
         (fun ppf (a, b) -> fprintf ppf "$%s as $%s" a b))
      aggs
      (pp_print_list
         ~pp_sep:(fun ppf () -> pp_print_string ppf ", ")
         (fun ppf (e, v) -> fprintf ppf "%a as $%s" pp e v))
      keys
  | Order { keys } ->
    fprintf ppf "order by %a"
      (pp_print_list
         ~pp_sep:(fun ppf () -> pp_print_string ppf ", ")
         (fun ppf (e, d) ->
           fprintf ppf "%a%s" pp e (if d then " descending" else "")))
      keys
  | Join { kind; method_; right; on_; export } ->
    fprintf ppf "@[<v 2>%s-join[%s]%s (@,%a@,) on %a@]"
      (match kind with J_inner -> "inner" | J_left_outer -> "left-outer")
      (method_name ~right ~on_ method_)
      (match export with
      | Bindings -> ""
      | Grouped { gvar; _ } -> Printf.sprintf " grouped as $%s" gvar)
      (pp_print_list ~pp_sep:pp_print_cut pp_clause)
      right pp on_
  | Rel r ->
    fprintf ppf "@[<v 2>relational[%s] {@,sql: %s@,binds: %s@]@,}" r.db
      (try
         Aldsp_relational.Sql_print.select_to_string
           Aldsp_relational.Database.Oracle r.select
       with Aldsp_relational.Sql_print.Unsupported reason ->
         "<unprintable: " ^ reason ^ ">")
      (String.concat ", "
         (List.map (fun b -> Printf.sprintf "$%s <- %s" b.bvar b.bcol) r.binds))

let to_string e = Format.asprintf "%a" pp e
