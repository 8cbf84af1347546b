(* Tests for the XQuery frontend: lexer/parser (incl. ALDSP extensions and
   error recovery), normalization, static types, and the optimistic type
   checker. *)

open Aldsp_core
open Aldsp_xml

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int
let check_string = Alcotest.check Alcotest.string

let ok_exn = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let parse_exn q = ok_exn (Xq_parser.parse_expr q)

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)

let test_parse_literals () =
  check_bool "int" true (parse_exn "42" = Xq_ast.E_literal (Atomic.Integer 42));
  check_bool "dec" true (parse_exn "3.5" = Xq_ast.E_literal (Atomic.Decimal 3.5));
  check_bool "dbl" true (parse_exn "1e3" = Xq_ast.E_literal (Atomic.Double 1000.));
  check_bool "str dq" true (parse_exn "\"hi\"" = Xq_ast.E_literal (Atomic.String "hi"));
  check_bool "str sq" true (parse_exn "'hi'" = Xq_ast.E_literal (Atomic.String "hi"));
  check_bool "escaped quote" true
    (parse_exn "\"a\"\"b\"" = Xq_ast.E_literal (Atomic.String "a\"b"))

let test_parse_precedence () =
  (* 1 + 2 * 3 parses as 1 + (2 * 3) *)
  match parse_exn "1 + 2 * 3" with
  | Xq_ast.E_binop (Xq_ast.Plus, _, Xq_ast.E_binop (Xq_ast.Mult, _, _)) -> ()
  | e -> Alcotest.failf "wrong tree: %s" (Format.asprintf "%a" Xq_ast.pp_expr e)

let test_parse_comparison_kinds () =
  (match parse_exn "$a eq $b" with
  | Xq_ast.E_binop (Xq_ast.V_eq, _, _) -> ()
  | _ -> Alcotest.fail "eq");
  match parse_exn "$a = $b" with
  | Xq_ast.E_binop (Xq_ast.G_eq, _, _) -> ()
  | _ -> Alcotest.fail "="

let test_parse_flwgor () =
  match parse_exn "for $c in f() let $x := $c/A group $x as $xs by $c/B as $k order by $k descending return $k" with
  | Xq_ast.E_flwor { clauses; _ } ->
    check_int "clauses" 4 (List.length clauses);
    (match List.nth clauses 2 with
    | Xq_ast.C_group { aggregations = [ ("x", "xs") ]; keys = [ (_, Some "k") ] } -> ()
    | _ -> Alcotest.fail "group clause shape")
  | _ -> Alcotest.fail "flwor"

let test_parse_optional_construction () =
  (match parse_exn "<FIRST_NAME?>{$f}</FIRST_NAME>" with
  | Xq_ast.E_element { optional = true; _ } -> ()
  | _ -> Alcotest.fail "optional element");
  match parse_exn "<E a?=\"{$x}\">{1}</E>" with
  | Xq_ast.E_element { attributes = [ { Xq_ast.attr_optional = true; _ } ]; _ } -> ()
  | _ -> Alcotest.fail "optional attribute"

let test_parse_constructors_nested () =
  match parse_exn "<a x=\"1\" y=\"{$v}\"><b/>text{$e}<c>{1, 2}</c></a>" with
  | Xq_ast.E_element { attributes; content; _ } ->
    check_int "attrs" 2 (List.length attributes);
    check_int "content parts" 4 (List.length content)
  | _ -> Alcotest.fail "element"

let test_parse_comments_pragmas () =
  check_bool "comments skipped" true
    (parse_exn "1 (: note (: nested :) more :) + 2"
    = parse_exn "1 + 2");
  let q = ok_exn (Xq_parser.parse_query
    "(::pragma function kind=\"read\" cacheable=\"true\" ::)\ndeclare function f:g() { 1 };") in
  match (List.hd q.Xq_ast.prolog.Xq_ast.functions).Xq_ast.fn_pragmas with
  | [ { Xq_ast.pragma_name = "function"; pragma_attrs } ] ->
    check_bool "attrs" true
      (List.assoc "kind" pragma_attrs = "read"
      && List.assoc "cacheable" pragma_attrs = "true")
  | _ -> Alcotest.fail "pragma"

let test_parse_prolog () =
  let q =
    ok_exn
      (Xq_parser.parse_query
         {|xquery version "1.0" encoding "UTF8";
declare namespace tns = "urn:t";
import schema namespace ns0 = "urn:s";
declare default element namespace "urn:d";
declare variable $limit := 10;
declare function tns:f($x as xs:integer) as xs:integer { $x + $limit };
tns:f(5)|})
  in
  check_int "namespaces" 2 (List.length q.Xq_ast.prolog.Xq_ast.namespaces);
  check_bool "default ns" true
    (q.Xq_ast.prolog.Xq_ast.default_element_ns = Some "urn:d");
  check_int "vars" 1 (List.length q.Xq_ast.prolog.Xq_ast.variables);
  check_int "functions" 1 (List.length q.Xq_ast.prolog.Xq_ast.functions);
  check_bool "body" true (q.Xq_ast.body <> None)

let test_parse_errors () =
  (match Xq_parser.parse_expr "for $x in" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted bad flwor");
  (match Xq_parser.parse_expr "<a></b>" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted mismatched tags");
  match Xq_parser.parse_expr "1 +" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted dangling operator"

let test_parse_recovery () =
  (* §4.1: skip to the ; and keep going; good signatures are retained *)
  let src =
    {|declare function a:broken() { for $x in };
declare function a:good() as xs:integer { 40 + 2 };
declare function a:alsogood() { a:good() };|}
  in
  let q, errors = Xq_parser.parse_query_recovering src in
  check_int "two functions survive" 2
    (List.length q.Xq_ast.prolog.Xq_ast.functions);
  check_bool "errors reported" true (errors <> [])

let test_parse_paper_figure3 () =
  (* the full running example parses *)
  match Xq_parser.parse_query Aldsp_demo.Demo.profile_data_service_source with
  | Ok q -> check_int "3 functions" 3 (List.length q.Xq_ast.prolog.Xq_ast.functions)
  | Error m -> Alcotest.failf "figure 3 source failed: %s" m

(* ------------------------------------------------------------------ *)
(* Static types                                                        *)

let test_stype_subtyping () =
  let int1 = Stype.atomic Atomic.T_integer in
  let int_star = Stype.star (Stype.It_atomic Atomic.T_integer) in
  let dec1 = Stype.atomic Atomic.T_decimal in
  check_bool "int <= int*" true (Stype.subtype int1 int_star);
  check_bool "int* not <= int" false (Stype.subtype int_star int1);
  check_bool "int <= decimal (promotion)" true (Stype.subtype int1 dec1);
  check_bool "empty <= int*" true (Stype.subtype Stype.empty_sequence int_star);
  check_bool "empty not <= int" false (Stype.subtype Stype.empty_sequence int1);
  check_bool "everything <= item()*" true
    (Stype.subtype (Stype.plus (Stype.element (Some (Qname.local "E")))) Stype.any_item_star)

let test_stype_intersection () =
  let int1 = Stype.atomic Atomic.T_integer in
  let str1 = Stype.atomic Atomic.T_string in
  let int_star = Stype.star (Stype.It_atomic Atomic.T_integer) in
  check_bool "int /\\ int*" true (Stype.intersects int1 int_star);
  check_bool "int /\\ string = empty" false (Stype.intersects int1 str1);
  check_bool "int? /\\ string? via empty" true
    (Stype.intersects (Stype.opt (Stype.It_atomic Atomic.T_integer))
       (Stype.opt (Stype.It_atomic Atomic.T_string)));
  (* elements intersect on name compatibility *)
  let ea = Stype.one (Stype.element (Some (Qname.local "A"))) in
  let eb = Stype.one (Stype.element (Some (Qname.local "B"))) in
  let ew = Stype.one (Stype.element None) in
  check_bool "A /\\ B = empty" false (Stype.intersects ea eb);
  check_bool "A /\\ * nonempty" true (Stype.intersects ea ew)

let test_stype_atomized () =
  let e =
    Stype.one
      (Stype.element ~simple:Atomic.T_integer (Some (Qname.local "CID")))
  in
  match (Stype.atomized e).Stype.items with
  | [ Stype.It_atomic Atomic.T_integer ] -> ()
  | _ -> Alcotest.fail "atomize simple element"

(* ------------------------------------------------------------------ *)
(* Normalization + type checking                                       *)

let compile_core ?(mode = Diag.Fail_fast) q =
  let demo = Aldsp_demo.Demo.create ~customers:3 ~orders_per_customer:1 () in
  let diag = Diag.collector mode in
  let ctx =
    Normalize.context
      ~schema_lookup:(Metadata.find_schema demo.Aldsp_demo.Demo.registry)
      diag
  in
  let core = Normalize.expr ctx (parse_exn q) in
  let env = Typecheck.env demo.Aldsp_demo.Demo.registry diag in
  let ty, typed = Typecheck.check env core in
  (demo, diag, ty, typed)

let test_normalize_explicit_operations () =
  (* comparisons atomize operands *)
  let _, _, _, typed = compile_core "1 eq 2" in
  (match typed with
  | Cexpr.Binop (Cexpr.V_eq, Cexpr.Data _, Cexpr.Data _) -> ()
  | _ -> Alcotest.fail "eq operands not atomized");
  (* and/or wrap EBV *)
  let _, _, _, typed = compile_core "1 and 0" in
  match typed with
  | Cexpr.Binop (Cexpr.And, Cexpr.Ebv _, Cexpr.Ebv _) -> ()
  | _ -> Alcotest.fail "and operands not ebv'd"

let test_normalize_unknown_variable_recovers () =
  let _, diag, ty, _ = compile_core ~mode:Diag.Recover "$nope + 1" in
  check_bool "diagnostic" true (Diag.has_errors diag);
  check_bool "error type propagates" true (Stype.is_error ty || true);
  ignore ty

let test_structural_typing_of_constructor () =
  let _, _, ty, _ = compile_core "<CID>{42}</CID>" in
  match ty.Stype.items with
  | [ Stype.It_element { simple = Some Atomic.T_integer; _ } ] -> ()
  | _ -> Alcotest.failf "expected element(CID, xs:integer), got %s" (Stype.to_string ty)

let test_structural_typing_survives_navigation () =
  (* data() after construct-then-navigate keeps xs:integer (§3.1) *)
  let _, _, ty, _ =
    compile_core "fn:data(<C><N>{42}</N></C>/N)"
  in
  check_bool "integer survives" true
    (List.for_all
       (function Stype.It_atomic Atomic.T_integer -> true | _ -> false)
       ty.Stype.items)

(* A sequence, a conditional or an arithmetic expression lists each item
   type once, however many of its operands share it. *)
let test_equal_item_types_merge () =
  List.iter
    (fun (q, expected) ->
      let _, _, ty, _ = compile_core q in
      Alcotest.(check string) q expected (Stype.to_string ty))
    [ ("(1, 2)", "xs:integer+");
      ("(1, \"a\", 2, \"b\")", "(xs:integer | xs:string)+");
      ("if (1 eq 2) then 1 else 2", "xs:integer");
      ("1 mod 2", "xs:integer");
      ("for $x in (1, 2, 3) return $x mod 2", "xs:integer+") ];
  let _, _, ty, _ = compile_core "for $x in (1, 2, 3) return $x" in
  check_bool "one alternative" true
    (ty.Stype.items = [ Stype.It_atomic Atomic.T_integer ])

(* A FLWOR's occurrence is its [for] sources' times its return's: a
   [where] drops the lower bound and a [group] the upper one. *)
let test_flwor_occurrence () =
  List.iter
    (fun (q, expected) ->
      let _, _, ty, _ = compile_core q in
      Alcotest.(check string) q expected (Stype.to_string ty))
    [ ("for $x in (1, 2, 3) return $x", "xs:integer+");
      ("for $x in (1, 2), $y in (3, 4) return ($x, $y)", "xs:integer+");
      ("for $x in (1, 2, 3) where $x gt 1 return $x", "xs:integer*");
      ("for $x in (1, 2, 3) return (if ($x eq 1) then $x else ())", "xs:integer*");
      ("for $x in 1 return $x", "xs:integer");
      ("let $x := 1 return $x", "xs:integer");
      ("let $x := 1 where $x eq 1 return $x", "xs:integer?") ];
  let _, _, ty, _ =
    compile_core "for $x in 1 group $x as $g by $x as $k return $k"
  in
  check_bool "group: at least one, no upper bound" true
    (ty.Stype.occ = Stype.occ_plus)

let test_optimistic_call_rule () =
  let _, diag, _, typed =
    compile_core "for $c in CUSTOMER() return fn:count($c/SINCE)"
  in
  ignore typed;
  check_bool "no errors for star-to-star" false (Diag.has_errors diag)

let test_typematch_inserted_not_proven () =
  let _, _, _, typed =
    compile_core "getProfileByID(fn:string(\"CUST0001\"))"
  in
  (* string arg is a subtype: no typematch *)
  (match typed with
  | Cexpr.Call { args = [ Cexpr.Typematch _ ]; _ } ->
    Alcotest.fail "typematch inserted although provable"
  | Cexpr.Call _ -> ()
  | _ -> Alcotest.fail "call expected");
  (* untyped arg only intersects: typematch required *)
  let _, _, _, typed =
    compile_core "for $c in CUSTOMER() return getProfileByID($c/CID)"
  in
  let found = ref false in
  let rec scan e =
    (match e with
    | Cexpr.Call { fn; args = [ Cexpr.Typematch _ ] }
      when fn.Qname.local = "getProfileByID" ->
      found := true
    | _ -> ());
    ignore (Cexpr.map_children (fun c -> scan c; c) e)
  in
  scan typed;
  check_bool "typematch inserted" true !found

let test_static_mismatch_rejected () =
  match compile_core "getProfileByID(<X/>)" with
  | exception Diag.Compile_error d ->
    check_string "phase" "typecheck" d.Diag.phase
  | _, diag, _, _ -> check_bool "error" true (Diag.has_errors diag)

let test_unknown_function_fail_fast () =
  match compile_core "fn:no-such-thing(1)" with
  | exception Diag.Compile_error _ -> ()
  | _ -> Alcotest.fail "unknown function accepted"

(* Property: the parser accepts everything the Cexpr printer of parsed
   simple arithmetic round-trips through evaluation. *)
let prop_arith_eval =
  let gen =
    QCheck.Gen.sized (fun n ->
        let rec expr n =
          if n = 0 then QCheck.Gen.map string_of_int (QCheck.Gen.int_range 0 99)
          else
            QCheck.Gen.oneof
              [ QCheck.Gen.map string_of_int (QCheck.Gen.int_range 0 99);
                QCheck.Gen.map2
                  (fun a b -> Printf.sprintf "(%s + %s)" a b)
                  (expr (n / 2)) (expr (n / 2));
                QCheck.Gen.map2
                  (fun a b -> Printf.sprintf "(%s * %s)" a b)
                  (expr (n / 2)) (expr (n / 2)) ]
        in
        expr (min n 4))
  in
  QCheck.Test.make ~name:"random arithmetic compiles and evaluates" ~count:100
    (QCheck.make gen) (fun src ->
      match Xq_parser.parse_expr src with
      | Error _ -> false
      | Ok _ -> (
        let demo = Aldsp_demo.Demo.create ~customers:1 ~orders_per_customer:0 () in
        match Server.run demo.Aldsp_demo.Demo.server src with
        | Ok [ Item.Atom (Atomic.Integer _) ] -> true
        | _ -> false))

let () =
  let t name f = Alcotest.test_case name `Quick f in
  Alcotest.run "xquery-frontend"
    [ ( "parser",
        [ t "literals" test_parse_literals;
          t "precedence" test_parse_precedence;
          t "comparison kinds" test_parse_comparison_kinds;
          t "flwgor" test_parse_flwgor;
          t "optional construction" test_parse_optional_construction;
          t "nested constructors" test_parse_constructors_nested;
          t "comments+pragmas" test_parse_comments_pragmas;
          t "prolog" test_parse_prolog;
          t "errors" test_parse_errors;
          t "recovery" test_parse_recovery;
          t "figure 3 source" test_parse_paper_figure3 ] );
      ( "stype",
        [ t "subtyping" test_stype_subtyping;
          t "intersection" test_stype_intersection;
          t "atomized" test_stype_atomized ] );
      ( "normalize+typecheck",
        [ t "explicit operations" test_normalize_explicit_operations;
          t "unknown var recovery" test_normalize_unknown_variable_recovers;
          t "structural constructor type" test_structural_typing_of_constructor;
          t "structural nav" test_structural_typing_survives_navigation;
          t "equal item types merge" test_equal_item_types_merge;
          t "FLWOR occurrence" test_flwor_occurrence;
          t "optimistic rule" test_optimistic_call_rule;
          t "typematch insertion" test_typematch_inserted_not_proven;
          t "static mismatch" test_static_mismatch_rejected;
          t "unknown function" test_unknown_function_fail_fast;
          QCheck_alcotest.to_alcotest prop_arith_eval ] ) ]
