open Aldsp_xml
open Xq_ast

let liftable = function
  | Atomic.String _ | Atomic.Integer _ | Atomic.Decimal _ | Atomic.Double _ ->
    true
  | _ -> false

(* A data-service function: a registered [Body] — not a builtin, not an
   external source or service. *)
let data_service registry ctx name arity =
  match
    Metadata.resolve_call registry
      (Normalize.resolve_function_name ctx name)
      arity
  with
  | Some { Metadata.fd_impl = Metadata.Body _; _ } -> true
  | _ -> false

let lift registry (query : query) =
  match query.body with
  | None -> None
  | Some _ when query.prolog.functions <> [] -> None
  | Some body ->
    let ctx =
      Normalize.of_prolog (Diag.collector Diag.Recover) query.prolog
    in
    let lifted = ref [] in
    (* "?n" is no XQuery variable name, so a placeholder never captures
       or shadows one of the query's own *)
    let placeholder a =
      let var = Printf.sprintf "?%d" (List.length !lifted + 1) in
      lifted := (var, a) :: !lifted;
      E_var var
    in
    let rec expr e =
      match e with
      | E_literal _ | E_var _ | E_context_item -> e
      | E_seq es -> E_seq (List.map expr es)
      | E_flwor { clauses; return_ } ->
        E_flwor { clauses = List.map clause clauses; return_ = expr return_ }
      | E_if (c, t, f) -> E_if (expr c, expr t, expr f)
      | E_quantified q ->
        E_quantified
          { q with
            bindings = List.map (fun (v, e) -> (v, expr e)) q.bindings;
            satisfies = expr q.satisfies }
      | E_call (name, args) ->
        let ds = data_service registry ctx name (List.length args) in
        E_call
          ( name,
            List.map
              (function
                | E_literal a when ds && liftable a -> placeholder a
                | a -> expr a)
              args )
      | E_path (base, steps) ->
        E_path
          ( expr base,
            List.map
              (fun s -> { s with predicates = List.map expr s.predicates })
              steps )
      | E_filter (base, preds) -> E_filter (expr base, List.map expr preds)
      | E_element el ->
        E_element
          { el with
            attributes =
              List.map
                (fun a ->
                  { a with
                    attr_value =
                      List.map
                        (function
                          | A_text _ as t -> t
                          | A_enclosed e -> A_enclosed (expr e))
                        a.attr_value })
                el.attributes;
            content = List.map expr el.content }
      | E_binop (op, a, b) -> E_binop (op, expr a, expr b)
      | E_unary_minus a -> E_unary_minus (expr a)
      | E_instance_of (a, t) -> E_instance_of (expr a, t)
      | E_castable (a, t) -> E_castable (expr a, t)
      | E_cast (a, t) -> E_cast (expr a, t)
    and clause = function
      | C_for bs -> C_for (List.map (fun (v, e) -> (v, expr e)) bs)
      | C_let bs -> C_let (List.map (fun (v, e) -> (v, expr e)) bs)
      | C_where e -> C_where (expr e)
      | C_group g ->
        C_group { g with keys = List.map (fun (e, v) -> (expr e, v)) g.keys }
      | C_order keys -> C_order (List.map (fun (e, d) -> (expr e, d)) keys)
    in
    let body = expr body in
    if !lifted = [] then None
    else Some ({ query with body = Some body }, List.rev !lifted)

let key query lifted =
  Marshal.to_string
    (query, List.map (fun (var, a) -> (var, Atomic.type_of a)) lifted)
    [ Marshal.No_sharing ]
