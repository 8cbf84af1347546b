open Aldsp_xml

type uqname = { prefix : string option; local_name : string }

type seq_type =
  | St_atomic of uqname
  | St_element of uqname option
  | St_schema_element of uqname
  | St_item
  | St_empty
  | St_node

and occurrence_marker = Occ_one | Occ_opt | Occ_star | Occ_plus

type sequence_type = { stype : seq_type; occ : occurrence_marker }

type binop =
  | V_eq | V_ne | V_lt | V_le | V_gt | V_ge
  | G_eq | G_ne | G_lt | G_le | G_gt | G_ge
  | Plus | Minus | Mult | Div | Idiv | Mod
  | And | Or
  | To

type expr =
  | E_literal of Atomic.t
  | E_var of string
  | E_context_item
  | E_seq of expr list
  | E_flwor of { clauses : clause list; return_ : expr }
  | E_if of expr * expr * expr
  | E_quantified of {
      universal : bool;
      bindings : (string * expr) list;
      satisfies : expr;
    }
  | E_call of uqname * expr list
  | E_path of expr * step list
  | E_filter of expr * expr list
  | E_element of {
      name : uqname;
      optional : bool;
      attributes : attribute_constructor list;
      content : expr list;
    }
  | E_binop of binop * expr * expr
  | E_unary_minus of expr
  | E_instance_of of expr * sequence_type
  | E_castable of expr * sequence_type
  | E_cast of expr * sequence_type

and step = { axis : axis; test : name_test; predicates : expr list }

and axis = Child | Attribute_axis

and name_test = Name of uqname | Wildcard

and attribute_constructor = {
  attr_name : uqname;
  attr_optional : bool;
  attr_value : attr_piece list;
}

and attr_piece = A_text of string | A_enclosed of expr

and clause =
  | C_for of (string * expr) list
  | C_let of (string * expr) list
  | C_where of expr
  | C_group of {
      aggregations : (string * string) list;
      keys : (expr * string option) list;
    }
  | C_order of (expr * bool) list

type pragma = { pragma_name : string; pragma_attrs : (string * string) list }

type function_decl = {
  fn_name : uqname;
  fn_params : (string * sequence_type option) list;
  fn_return : sequence_type option;
  fn_body : expr option;
  fn_pragmas : pragma list;
}

type prolog = {
  namespaces : (string * string) list;
  default_element_ns : string option;
  schema_imports : (string option * string) list;
  functions : function_decl list;
  variables : (string * sequence_type option * expr) list;
}

type query = {
  prolog : prolog;
  body : expr option;
  query_pragmas : pragma list;
}

let empty_prolog =
  { namespaces = []; default_element_ns = None; schema_imports = [];
    functions = []; variables = [] }

let uqname_to_string u =
  match u.prefix with
  | Some p -> p ^ ":" ^ u.local_name
  | None -> u.local_name

let rec pp_expr ppf e =
  let open Format in
  match e with
  | E_literal a -> fprintf ppf "%a" Atomic.pp a
  | E_var v -> fprintf ppf "$%s" v
  | E_context_item -> pp_print_string ppf "."
  | E_seq es ->
    fprintf ppf "(%a)"
      (pp_print_list ~pp_sep:(fun ppf () -> pp_print_string ppf ", ") pp_expr)
      es
  | E_flwor { clauses; return_ } ->
    fprintf ppf "@[<v>%a@ return %a@]"
      (pp_print_list ~pp_sep:pp_print_space pp_clause)
      clauses pp_expr return_
  | E_if (c, t, e) ->
    fprintf ppf "if (%a) then %a else %a" pp_expr c pp_expr t pp_expr e
  | E_quantified { universal; bindings; satisfies } ->
    fprintf ppf "%s %a satisfies %a"
      (if universal then "every" else "some")
      (pp_print_list ~pp_sep:(fun ppf () -> pp_print_string ppf ", ")
         (fun ppf (v, e) -> fprintf ppf "$%s in %a" v pp_expr e))
      bindings pp_expr satisfies
  | E_call (name, args) ->
    fprintf ppf "%s(%a)" (uqname_to_string name)
      (pp_print_list ~pp_sep:(fun ppf () -> pp_print_string ppf ", ") pp_expr)
      args
  | E_path (base, steps) ->
    pp_expr ppf base;
    List.iter
      (fun s ->
        let test =
          match s.test with Name n -> uqname_to_string n | Wildcard -> "*"
        in
        fprintf ppf "/%s%s"
          (match s.axis with Child -> "" | Attribute_axis -> "@")
          test;
        List.iter (fun p -> fprintf ppf "[%a]" pp_expr p) s.predicates)
      steps
  | E_filter (base, preds) ->
    pp_expr ppf base;
    List.iter (fun p -> fprintf ppf "[%a]" pp_expr p) preds
  | E_element { name; optional; attributes; content } ->
    fprintf ppf "<%s%s%a>{%a}</%s>" (uqname_to_string name)
      (if optional then "?" else "")
      (fun ppf attrs ->
        List.iter
          (fun a -> fprintf ppf " %s=..." (uqname_to_string a.attr_name))
          attrs)
      attributes
      (pp_print_list ~pp_sep:(fun ppf () -> pp_print_string ppf ", ") pp_expr)
      content (uqname_to_string name)
  | E_binop (op, a, b) ->
    let sym =
      match op with
      | V_eq -> "eq" | V_ne -> "ne" | V_lt -> "lt" | V_le -> "le"
      | V_gt -> "gt" | V_ge -> "ge"
      | G_eq -> "=" | G_ne -> "!=" | G_lt -> "<" | G_le -> "<="
      | G_gt -> ">" | G_ge -> ">="
      | Plus -> "+" | Minus -> "-" | Mult -> "*" | Div -> "div"
      | Idiv -> "idiv" | Mod -> "mod"
      | And -> "and" | Or -> "or" | To -> "to"
    in
    fprintf ppf "(%a %s %a)" pp_expr a sym pp_expr b
  | E_unary_minus e -> fprintf ppf "-(%a)" pp_expr e
  | E_instance_of (e, _) -> fprintf ppf "(%a instance of ...)" pp_expr e
  | E_castable (e, _) -> fprintf ppf "(%a castable as ...)" pp_expr e
  | E_cast (e, _) -> fprintf ppf "(%a cast as ...)" pp_expr e

and pp_clause ppf = function
  | C_for bindings ->
    Format.fprintf ppf "for %a"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf (v, e) -> Format.fprintf ppf "$%s in %a" v pp_expr e))
      bindings
  | C_let bindings ->
    Format.fprintf ppf "let %a"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf (v, e) -> Format.fprintf ppf "$%s := %a" v pp_expr e))
      bindings
  | C_where e -> Format.fprintf ppf "where %a" pp_expr e
  | C_group { aggregations; keys } ->
    Format.fprintf ppf "group %a by %a"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf (a, b) -> Format.fprintf ppf "$%s as $%s" a b))
      aggregations
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf (e, k) ->
           match k with
           | Some k -> Format.fprintf ppf "%a as $%s" pp_expr e k
           | None -> pp_expr ppf e))
      keys
  | C_order keys ->
    Format.fprintf ppf "order by %a"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf (e, desc) ->
           Format.fprintf ppf "%a%s" pp_expr e
             (if desc then " descending" else "")))
      keys
