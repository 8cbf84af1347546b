open Aldsp_xml
module C = Cexpr

type env = {
  registry : Metadata.t;
  vars : (C.var * Stype.t) list;
  diag : Diag.collector;
}

let env ?(vars = []) registry diag = { registry; vars; diag }

let phase = "typecheck"

let bind env var ty = { env with vars = (var, ty) :: env.vars }

let bool_type = Stype.atomic Atomic.T_boolean

(* child-step typing: collect matching element item types from the content
   of the input's element types *)
let type_child input_ty name =
  let collect item =
    match item with
    | Stype.It_element { content; _ } ->
      List.filter
        (function
          | Stype.It_element { elem_name = Some n; _ } -> Qname.equal n name
          | Stype.It_element { elem_name = None; _ } -> true
          | _ -> false)
        content.Stype.items
    | Stype.It_item | Stype.It_node ->
      [ Stype.element (Some name) ]
    | _ -> []
  in
  let items = List.concat_map collect input_ty.Stype.items in
  let items =
    if items = [] then [] else items
  in
  { Stype.items; occ = Stype.occ_star }

let numeric_result a b =
  let numeric_items ty =
    List.filter_map
      (function
        | Stype.It_atomic t when Atomic.is_numeric_type t -> Some (Stype.It_atomic t)
        | Stype.It_atomic Atomic.T_untyped -> Some (Stype.It_atomic Atomic.T_double)
        | Stype.It_atomic (Atomic.T_date_time | Atomic.T_date) ->
          Some (Stype.It_atomic Atomic.T_date_time)
        | Stype.It_error -> Some Stype.It_error
        | _ -> None)
      ty.Stype.items
  in
  let items =
    match Stype.merge_items (numeric_items a) (numeric_items b) with
    | [] -> [ Stype.It_atomic Atomic.T_double ]
    | items -> items
  in
  let occ =
    if a.Stype.occ.Stype.at_least_one && b.Stype.occ.Stype.at_least_one then
      Stype.occ_one
    else Stype.occ_opt
  in
  { Stype.items; occ }

(* [ty] once per tuple of a stream of occurrence [tuples]: the bounds
   multiply. *)
let occ_times (tuples : Stype.occurrence) (ty : Stype.t) =
  Stype.with_occ
    { Stype.at_least_one = tuples.at_least_one && ty.occ.at_least_one;
      at_most_one = tuples.at_most_one && ty.occ.at_most_one }
    ty

let rec check env (e : C.t) : Stype.t * C.t =
  match e with
  | C.Const a -> (Stype.atomic (Atomic.type_of a), e)
  | C.Empty -> (Stype.empty_sequence, e)
  | C.Seq es ->
    let typed = List.map (check env) es in
    let ty =
      List.fold_left
        (fun acc (t, _) -> Stype.sequence acc t)
        Stype.empty_sequence typed
    in
    (ty, C.Seq (List.map snd typed))
  | C.Var v -> (
    match List.assoc_opt v env.vars with
    | Some ty -> (ty, e)
    | None ->
      Diag.error env.diag ~phase "unbound variable $%s" v;
      (Stype.error_type, e))
  | C.Elem { name; optional; attrs; content } ->
    let content_ty, content = check env content in
    let attrs =
      List.map
        (fun a ->
          let _, av = check env a.C.avalue in
          { a with C.avalue = av })
        attrs
    in
    (* structural typing: the element type's content is the inferred
       structural type of the constructed content (§3.1) *)
    let simple =
      match content_ty.Stype.items with
      | [ Stype.It_atomic t ] when content_ty.Stype.occ.Stype.at_most_one ->
        Some t
      | _ -> None
    in
    let item =
      match simple with
      | Some t -> Stype.element ~simple:t (Some name)
      | None -> Stype.element ~content:content_ty (Some name)
    in
    let ty = if optional then Stype.opt item else Stype.one item in
    (ty, C.Elem { name; optional; attrs; content })
  | C.Flwor { clauses; return_ } ->
    let env', clauses, tuples = check_clauses env clauses in
    let ret_ty, return_ = check env' return_ in
    (occ_times tuples ret_ty, C.Flwor { clauses; return_ })
  | C.If { cond; then_; else_ } ->
    let _, cond = check env cond in
    let t_ty, then_ = check env then_ in
    let e_ty, else_ = check env else_ in
    (Stype.union t_ty e_ty, C.If { cond; then_; else_ })
  | C.Quantified { universal; var; source; pred } ->
    let src_ty, source = check env source in
    let env' = bind env var (Stype.iterate src_ty) in
    let _, pred = check env' pred in
    (bool_type, C.Quantified { universal; var; source; pred })
  | C.Call { fn; args } -> check_call env fn args
  | C.Child (input, name) ->
    let in_ty, input = check env input in
    (type_child in_ty name, C.Child (input, name))
  | C.Child_wild input ->
    let _, input = check env input in
    (Stype.star Stype.It_node, C.Child_wild input)
  | C.Attr_of (input, name) ->
    let _, input = check env input in
    (Stype.opt (Stype.It_atomic Atomic.T_untyped), C.Attr_of (input, name))
  | C.Filter { input; dot; pos; pred } ->
    let in_ty, input = check env input in
    let item_ty = Stype.iterate in_ty in
    let env' = bind (bind env dot item_ty) pos (Stype.atomic Atomic.T_integer) in
    let _, pred = check env' pred in
    ( { in_ty with Stype.occ = { in_ty.Stype.occ with Stype.at_least_one = false } },
      C.Filter { input; dot; pos; pred } )
  | C.Data input ->
    let in_ty, input = check env input in
    (Stype.atomized in_ty, C.Data input)
  | C.Ebv input ->
    let _, input = check env input in
    (bool_type, C.Ebv input)
  | C.Binop (op, a, b) -> (
    let a_ty, a = check env a in
    let b_ty, b = check env b in
    let e = C.Binop (op, a, b) in
    match op with
    | C.V_eq | C.V_ne | C.V_lt | C.V_le | C.V_gt | C.V_ge ->
      let occ =
        if
          a_ty.Stype.occ.Stype.at_least_one
          && b_ty.Stype.occ.Stype.at_least_one
        then Stype.occ_one
        else Stype.occ_opt
      in
      (Stype.with_occ occ bool_type, e)
    | C.G_eq | C.G_ne | C.G_lt | C.G_le | C.G_gt | C.G_ge -> (bool_type, e)
    | C.And | C.Or -> (bool_type, e)
    | C.Add | C.Sub | C.Mul | C.Div | C.Idiv | C.Mod ->
      (numeric_result a_ty b_ty, e)
    | C.Range ->
      (Stype.star (Stype.It_atomic Atomic.T_integer), e))
  | C.Typematch (input, ty) ->
    let _, input = check env input in
    (ty, C.Typematch (input, ty))
  | C.Cast (input, ty) ->
    let in_ty, input = check env input in
    let occ =
      if in_ty.Stype.occ.Stype.at_least_one then Stype.occ_one else Stype.occ_opt
    in
    (Stype.with_occ occ (Stype.atomic ty), C.Cast (input, ty))
  | C.Castable (input, ty) ->
    let _, input = check env input in
    (bool_type, C.Castable (input, ty))
  | C.Instance_of (input, ty) ->
    let _, input = check env input in
    (bool_type, C.Instance_of (input, ty))
  | C.Error_expr _ -> (Stype.error_type, e)

and check_call env fn args =
  let typed_args = List.map (check env) args in
  let arity = List.length args in
  (* the optimistic rule: accept on non-empty intersection, insert a
     typematch unless subtyping is provable (§4.1) *)
  let apply_rule (params : Stype.t list) (args : (Stype.t * C.t) list) =
    List.map2
      (fun expected (actual_ty, arg) ->
        (* function conversion: atomize node arguments when the parameter
           expects atomic values *)
        let expects_atomic =
          expected.Stype.items <> []
          && List.for_all
               (function
                 | Stype.It_atomic _ | Stype.It_error -> true
                 | _ -> false)
               expected.Stype.items
        in
        let has_nodes =
          List.exists
            (function
              | Stype.It_element _ | Stype.It_attribute _ | Stype.It_text
              | Stype.It_node | Stype.It_item ->
                true
              | _ -> false)
            actual_ty.Stype.items
        in
        let actual_ty, arg =
          if expects_atomic && has_nodes then
            (Stype.atomized actual_ty, C.Data arg)
          else (actual_ty, arg)
        in
        if Stype.is_error actual_ty then arg
        else if Stype.subtype actual_ty expected then arg
        else if Stype.intersects actual_ty expected then
          C.Typematch (arg, expected)
        else begin
          Diag.error env.diag ~phase
            "static type mismatch in call to %s: %s does not intersect %s"
            (Qname.to_string fn) (Stype.to_string actual_ty)
            (Stype.to_string expected);
          C.Error_expr "static type mismatch"
        end)
      params args
  in
  match Metadata.resolve_call env.registry fn arity with
  | Some fd ->
    let params = List.map snd fd.Metadata.fd_params in
    let args = apply_rule params typed_args in
    (* canonicalize the name so later phases see the registered function *)
    (fd.Metadata.fd_return, C.Call { fn = fd.Metadata.fd_name; args })
  | None -> (
    match Fn_lib.find fn arity with
    | Some b ->
      (* pad/cycle declared param types for variadic builtins *)
      let rec take_params declared n =
        if n = 0 then []
        else
          match declared with
          | [] -> [ Stype.any_item_star ]
          | [ last ] -> last :: take_params [ last ] (n - 1)
          | p :: rest -> p :: take_params rest (n - 1)
      in
      let params = take_params b.Fn_lib.param_types arity in
      let args = apply_rule params typed_args in
      (b.Fn_lib.return_type arity, C.Call { fn; args })
    | None ->
      Diag.error env.diag ~phase "unknown function %s/%d" (Qname.to_string fn)
        arity;
      (Stype.error_type, C.Error_expr (Printf.sprintf "unknown function %s" (Qname.to_string fn))))

(* The clauses checked, with the occurrence of the tuple stream they
   produce: each [for] multiplies it by its source's, a [where] drops its
   lower bound and a [group] its upper one. *)
and check_clauses env clauses =
  let rec go env acc tuples = function
    | [] -> (env, List.rev acc, tuples)
    | C.For { var; source } :: rest ->
      let src_ty, source = check env source in
      let env' = bind env var (Stype.iterate src_ty) in
      go env' (C.For { var; source } :: acc) (occ_times tuples src_ty).Stype.occ rest
    | C.Let { var; value } :: rest ->
      let v_ty, value = check env value in
      let env' = bind env var v_ty in
      go env' (C.Let { var; value } :: acc) tuples rest
    | C.Where cond :: rest ->
      let _, cond = check env cond in
      go env (C.Where cond :: acc)
        { tuples with Stype.at_least_one = false }
        rest
    | C.Group { aggs; keys; clustered } :: rest ->
      let keys =
        List.map
          (fun (e, v) ->
            let ty, e = check env e in
            (e, v, ty))
          keys
      in
      let env' =
        List.fold_left
          (fun env (v_in, v_out) ->
            let in_ty =
              match List.assoc_opt v_in env.vars with
              | Some ty -> ty
              | None -> Stype.any_item_star
            in
            bind env v_out { in_ty with Stype.occ = Stype.occ_star })
          env aggs
      in
      let env' =
        List.fold_left
          (fun env (_, v, ty) -> bind env v (Stype.iterate ty))
          env' keys
      in
      go env'
        (C.Group { aggs; keys = List.map (fun (e, v, _) -> (e, v)) keys; clustered } :: acc)
        { tuples with Stype.at_most_one = false }
        rest
    | C.Order { keys } :: rest ->
      let keys = List.map (fun (e, d) -> (snd (check env e), d)) keys in
      go env (C.Order { keys } :: acc) tuples rest
    | C.Join { kind; method_; right; on_; export } :: rest ->
      (* joins are introduced after type checking; type them loosely *)
      let env_r, right, _ = go env [] tuples right in
      let _, on_ = check env_r on_ in
      let env', export =
        match export with
        | C.Bindings -> (env_r, C.Bindings)
        | C.Grouped { gvar; gexpr } ->
          let g_ty, gexpr = check env_r gexpr in
          ( bind env gvar { g_ty with Stype.occ = Stype.occ_star },
            C.Grouped { gvar; gexpr } )
      in
      go env' (C.Join { kind; method_; right; on_; export } :: acc) Stype.occ_star rest
    | C.Rel r :: rest ->
      let env' =
        List.fold_left
          (fun env b -> bind env b.C.bvar (Stype.opt (Stype.It_atomic b.C.btype)))
          env r.C.binds
      in
      go env' (C.Rel r :: acc) Stype.occ_star rest
  in
  go env [] Stype.occ_one clauses

let check_function_body env ~declared body =
  let body_ty, body = check env body in
  if Stype.is_error body_ty || Stype.subtype body_ty declared then
    (body_ty, body)
  else if Stype.intersects body_ty declared then
    (declared, C.Typematch (body, declared))
  else begin
    Diag.error env.diag ~phase
      "function body type %s does not intersect the declared return type %s"
      (Stype.to_string body_ty) (Stype.to_string declared);
    (Stype.error_type, C.Error_expr "return type mismatch")
  end
