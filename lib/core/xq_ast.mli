(** Surface abstract syntax of the ALDSP XQuery dialect.

    Covers the data-centric subset the paper exercises, plus both ALDSP
    syntax extensions of §3.1: the FLWGOR [group .. by ..] clause and the
    optional-construction ["?"] marker on element and attribute
    constructors. Names are unresolved here (prefix + local); the
    normalizer resolves them against the prolog's namespace declarations. *)

open Aldsp_xml

(** An unresolved name: optional prefix and local part. *)
type uqname = { prefix : string option; local_name : string }

(** Surface sequence types, e.g. [element(ns0:PROFILE)*] or [xs:string?]. *)
type seq_type =
  | St_atomic of uqname
  | St_element of uqname option  (** [element(N)] / [element()] *)
  | St_schema_element of uqname
  | St_item
  | St_empty
  | St_node

and occurrence_marker = Occ_one | Occ_opt | Occ_star | Occ_plus

type sequence_type = { stype : seq_type; occ : occurrence_marker }

type binop =
  (* value comparisons *)
  | V_eq | V_ne | V_lt | V_le | V_gt | V_ge
  (* general comparisons *)
  | G_eq | G_ne | G_lt | G_le | G_gt | G_ge
  (* arithmetic *)
  | Plus | Minus | Mult | Div | Idiv | Mod
  (* logic *)
  | And | Or
  (* range *)
  | To

type expr =
  | E_literal of Atomic.t
  | E_var of string
  | E_context_item
  | E_seq of expr list  (** Comma; [E_seq []] is [()] . *)
  | E_flwor of { clauses : clause list; return_ : expr }
  | E_if of expr * expr * expr
  | E_quantified of {
      universal : bool;
      bindings : (string * expr) list;
      satisfies : expr;
    }
  | E_call of uqname * expr list
  | E_path of expr * step list
  | E_filter of expr * expr list  (** [primary[p1][p2]]. *)
  | E_element of {
      name : uqname;
      optional : bool;  (** The ALDSP [<E?>] extension. *)
      attributes : attribute_constructor list;
      content : expr list;
    }
  | E_binop of binop * expr * expr
  | E_unary_minus of expr
  | E_instance_of of expr * sequence_type
  | E_castable of expr * sequence_type
  | E_cast of expr * sequence_type

and step = {
  axis : axis;
  test : name_test;
  predicates : expr list;
}

and axis = Child | Attribute_axis

and name_test = Name of uqname | Wildcard

and attribute_constructor = {
  attr_name : uqname;
  attr_optional : bool;
  attr_value : attr_piece list;
}

and attr_piece = A_text of string | A_enclosed of expr

and clause =
  | C_for of (string * expr) list  (** [for $v in e, $w in e']. *)
  | C_let of (string * expr) list
  | C_where of expr
  | C_group of {
      aggregations : (string * string) list;  (** [group $v as $vs]. *)
      keys : (expr * string option) list;  (** [by e as $k]. *)
    }
  | C_order of (expr * bool) list  (** [(key, descending)]. *)

(** One [(::pragma name attr="v" ... ::)] annotation. *)
type pragma = { pragma_name : string; pragma_attrs : (string * string) list }

type function_decl = {
  fn_name : uqname;
  fn_params : (string * sequence_type option) list;
  fn_return : sequence_type option;
  fn_body : expr option;  (** [None] for [external] functions. *)
  fn_pragmas : pragma list;
}

type prolog = {
  namespaces : (string * string) list;  (** prefix -> URI. *)
  default_element_ns : string option;
  schema_imports : (string option * string) list;  (** prefix, URI. *)
  functions : function_decl list;
  variables : (string * sequence_type option * expr) list;
}

type query = {
  prolog : prolog;
  body : expr option;
  query_pragmas : pragma list;
      (** Pragmas preceding the query body: declarative hints (§9). *)
}

val empty_prolog : prolog

val pp_expr : Format.formatter -> expr -> unit
(** Debug rendering of an expression tree. *)
