(* Tests for the optimizer: view unfolding, source-access elimination, join
   introduction, join method selection, inverse functions, the view
   sub-optimizer cache — plus equivalence checks that optimization
   preserves semantics. *)

open Aldsp_core
open Aldsp_xml

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

let ok_exn = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let setup ?customers:(n = 6) () = Aldsp_demo.Demo.create ~customers:n ()

let stages ?optimizer_options demo q =
  let open Aldsp_demo.Demo in
  let diag = Diag.collector Diag.Fail_fast in
  let ctx =
    Normalize.context ~schema_lookup:(Metadata.find_schema demo.registry) diag
  in
  let core = Normalize.expr ctx (ok_exn (Xq_parser.parse_expr q)) in
  let env = Typecheck.env demo.registry diag in
  let _, typed = Typecheck.check env core in
  let opt = Optimizer.create ?options:optimizer_options demo.registry in
  let optimized, stats = Optimizer.optimize opt typed in
  let final = Optimizer.select_methods opt optimized in
  (typed, optimized, final, stats, opt)

let eval demo e =
  let rt = Eval.runtime demo.Aldsp_demo.Demo.registry in
  ok_exn (Eval.eval rt e)

let rule_fired stats name = List.mem_assoc name stats.Rewrite.applications

(* (method, right side) of every join in a plan *)
let rec find_join e acc =
  let acc =
    match e with
    | Cexpr.Flwor { clauses; _ } ->
      List.fold_left
        (fun acc c ->
          match c with
          | Cexpr.Join { method_; right; _ } -> (method_, right) :: acc
          | _ -> acc)
        acc clauses
    | _ -> acc
  in
  let r = ref acc in
  ignore
    (Cexpr.map_children
       (fun c ->
         r := find_join c !r;
         c)
       e);
  !r

(* ------------------------------------------------------------------ *)

let test_view_unfolding () =
  let demo = setup () in
  let _, _, final, stats, _ =
    stages demo "for $n in getCustomerNames() return $n"
  in
  check_bool "inline fired" true (rule_fired stats "inline-view");
  let calls = ref 0 in
  let rec scan e =
    (match e with
    | Cexpr.Call { fn; _ } when fn.Qname.local = "getCustomerNames" ->
      incr calls
    | _ -> ());
    ignore (Cexpr.map_children (fun c -> scan c; c) e)
  in
  scan final;
  check_int "no residual view calls" 0 !calls

let test_source_access_elimination () =
  (* only LAST_NAME is used: the plan must not call the rating service *)
  let demo = setup () in
  let _, _, final, _, _ =
    stages demo "for $p in getProfile() return $p/LAST_NAME"
  in
  let mentions = ref [] in
  let rec scan e =
    (match e with
    | Cexpr.Call { fn; _ } -> mentions := fn.Qname.local :: !mentions
    | _ -> ());
    ignore (Cexpr.map_children (fun c -> scan c; c) e)
  in
  scan final;
  check_bool "no rating call survives" false (List.mem "getRating" !mentions)

let test_constructor_elimination_example () =
  (* the paper's §4.2 example: the ORDERS branch disappears entirely *)
  let demo = setup () in
  let q =
    "let $x := <CUSTOMER><LAST_NAME>{\"Li\"}</LAST_NAME><ORDERS>{ORDER_T()}</ORDERS></CUSTOMER> \
     return fn:data($x/LAST_NAME)"
  in
  let _, _, final, _, _ = stages demo q in
  check_bool "reduced to the constant" true
    (final = Cexpr.Const (Atomic.String "Li")
    || final = Cexpr.Data (Cexpr.Const (Atomic.String "Li")));
  check_bool "evaluates" true
    (Item.equal_sequence (eval demo final) [ Item.string "Li" ])

let test_join_introduction_inner () =
  let demo = setup () in
  let _, _, final, stats, _ =
    stages demo
      "for $c in CUSTOMER(), $o in ORDER_T() where $c/CID eq $o/CID return $o/OID"
  in
  check_bool "join introduced" true (rule_fired stats "join-introduction");
  check_bool "INL selected for independent equi join" true
    (List.mem_assoc Cexpr.Index_nested_loop (find_join final []))

let test_outer_join_from_nested_flwor () =
  let demo = setup () in
  let _, _, final, stats, _ =
    stages demo
      "for $c in CUSTOMER() return <C>{$c/CID, for $o in ORDER_T() where $o/CID eq $c/CID return $o/OID}</C>"
  in
  check_bool "hoist fired" true (rule_fired stats "return-flwor-hoist");
  let kinds = ref [] in
  let rec scan e =
    (match e with
    | Cexpr.Flwor { clauses; _ } ->
      List.iter
        (function
          | Cexpr.Join { kind; export = Cexpr.Grouped _; _ } ->
            kinds := kind :: !kinds
          | _ -> ())
        clauses
    | _ -> ());
    ignore (Cexpr.map_children (fun c -> scan c; c) e)
  in
  scan final;
  check_bool "grouped left outer join" true (List.mem Cexpr.J_left_outer !kinds)

let test_let_count_to_outer_join () =
  let demo = setup () in
  let _, _, _, stats, _ =
    stages demo
      "for $c in CUSTOMER() let $n := count(for $o in ORDER_T() where $o/CID eq $c/CID return $o) return <C>{$c/CID, $n}</C>"
  in
  check_bool "outer-join rewrite fired" true
    (rule_fired stats "let-flwor-to-outer-join"
    || rule_fired stats "return-flwor-hoist")

let test_inverse_function_rewrite () =
  let demo = setup () in
  let q =
    "for $p in getProfile() where $p/SINCE gt xs:dateTime(\"1970-01-03T00:00:00Z\") return $p/CID"
  in
  let _, _, final, stats, _ = stages demo q in
  check_bool "inverse rule fired" true (rule_fired stats "inverse-function");
  let names = ref [] in
  let rec scan e =
    (match e with
    | Cexpr.Call { fn; _ } -> names := fn.Qname.local :: !names
    | _ -> ());
    ignore (Cexpr.map_children (fun c -> scan c; c) e)
  in
  scan final;
  check_bool "date2int introduced" true (List.mem "date2int" !names)

let test_inverse_disabled_by_option () =
  let demo = setup () in
  let options =
    { Optimizer.default_options with Optimizer.use_inverse_functions = false }
  in
  let _, _, _, stats, _ =
    stages ~optimizer_options:options demo
      "for $p in getProfile() where $p/SINCE gt xs:dateTime(\"1970-01-03T00:00:00Z\") return $p/CID"
  in
  check_bool "rule off" false (rule_fired stats "inverse-function")

let test_view_cache () =
  let demo = setup () in
  let opt = Optimizer.create demo.Aldsp_demo.Demo.registry in
  let q = "for $n in getCustomerNames() return $n" in
  let compile () =
    let diag = Diag.collector Diag.Fail_fast in
    let ctx =
      Normalize.context
        ~schema_lookup:(Metadata.find_schema demo.Aldsp_demo.Demo.registry)
        diag
    in
    let core = Normalize.expr ctx (ok_exn (Xq_parser.parse_expr q)) in
    let env = Typecheck.env demo.Aldsp_demo.Demo.registry diag in
    let _, typed = Typecheck.check env core in
    ignore (Optimizer.optimize opt typed)
  in
  compile ();
  let misses_after_first = Optimizer.view_cache_misses opt in
  compile ();
  compile ();
  check_bool "first compile misses" true (misses_after_first >= 1);
  check_int "no further misses" misses_after_first
    (Optimizer.view_cache_misses opt);
  check_bool "hits recorded" true (Optimizer.view_cache_hits opt >= 2)

let test_cacheable_functions_not_inlined () =
  let demo = setup () in
  Metadata.set_cacheable demo.Aldsp_demo.Demo.registry
    (Qname.make ~uri:"fn" "getCustomerNames")
    true;
  let _, _, final, _, _ = stages demo "getCustomerNames()" in
  match final with
  | Cexpr.Call { fn; _ } when fn.Qname.local = "getCustomerNames" -> ()
  | e ->
    Alcotest.failf "cache-enabled view was inlined: %s" (Cexpr.to_string e)

let test_equi_join_keys () =
  let on_ =
    Cexpr.Ebv
      (Cexpr.Binop
         ( Cexpr.And,
           Cexpr.Ebv (Cexpr.Binop (Cexpr.V_eq, Cexpr.Var "l", Cexpr.Var "r")),
           Cexpr.Ebv
             (Cexpr.Binop
                (Cexpr.V_gt, Cexpr.Var "l2", Cexpr.Const (Atomic.Integer 3)))
         ))
  in
  match Cexpr.equi_join_keys ~right_vars:[ "r" ] on_ with
  | Some ([ (Cexpr.Var "l", Cexpr.Var "r") ], residual) ->
    check_int "one residual" 1 (List.length residual)
  | _ -> Alcotest.fail "equi key extraction"

let equivalence_queries =
  [ "for $c in CUSTOMER() where $c/CID eq \"CUST0002\" return $c/LAST_NAME";
    "for $c in CUSTOMER(), $o in ORDER_T() where $c/CID eq $o/CID return <R>{$c/CID, $o/OID}</R>";
    "for $c in CUSTOMER() return <C>{$c/CID, for $o in ORDER_T() where $o/CID eq $c/CID return $o/OID}</C>";
    "for $c in CUSTOMER() group $c as $g by $c/LAST_NAME as $l return <G>{$l, count($g)}</G>";
    "for $c in CUSTOMER() order by $c/CID descending return $c/LAST_NAME";
    "for $c in CUSTOMER() where some $o in ORDER_T() satisfies $o/CID eq $c/CID return $c/CID";
    "fn:subsequence(for $c in CUSTOMER() order by $c/CID return $c/CID, 2, 3)";
    "for $p in getProfile() return $p/RATING";
    "getProfileByID(\"CUST0003\")" ]

let test_optimizer_preserves_semantics () =
  let demo = setup ~customers:5 () in
  List.iter
    (fun q ->
      let typed, _, final, _, _ = stages demo q in
      let before = eval demo typed in
      let after = eval demo final in
      if not (Item.serialize before = Item.serialize after) then
        Alcotest.failf "query %s changed: %s vs %s" q (Item.serialize before)
          (Item.serialize after))
    equivalence_queries

(* ------------------------------------------------------------------ *)
(* Pushed-predicate selectivity                                        *)

module Sql = Aldsp_relational.Sql_ast
module V = Aldsp_relational.Sql_value

let col name = Sql.Col (Some "t1", name)
let str v = Sql.Lit (V.Str v)
let eq a b = Sql.Binop (Sql.Eq, a, b)

(* rows one execution of an unparameterized region over [table] ships *)
let region_estimate demo ?(db = "CustomerDB") table where =
  let r =
    { Cexpr.db;
      select =
        Sql.select ?where ~projections:[] (Sql.table ~alias:"t1" table);
      sql_params = [];
      binds = [] }
  in
  match Cost_model.rel_cardinality demo.Aldsp_demo.Demo.registry r with
  | Some n -> n
  | None -> Alcotest.fail "no estimate for a registered table"

let test_literal_selectivity () =
  (* 6 customers (CID primary key), 3 orders each (CID foreign key, so
     NDV 6 over 18 rows), 1 card each (CID unindexed) *)
  let demo = setup () in
  let est = region_estimate demo in
  let opaque rows = rows / Cost_model.selection_fraction in
  check_int "no WHERE ships every row" 6 (est "CUSTOMER" None);
  check_int "primary-key equality" 1
    (est "CUSTOMER" (Some (eq (col "CID") (str "CUST0002"))));
  check_int "either operand order" 1
    (est "CUSTOMER" (Some (eq (str "CUST0002") (col "CID"))));
  check_int "FK-indexed equality: rows/NDV" 3
    (est "ORDER_T" (Some (eq (col "CID") (str "CUST0002"))));
  check_int "IN of n literals: n*rows/NDV" 6
    (est "ORDER_T"
       (Some (Sql.In_list (col "CID", [ str "CUST0001"; str "CUST0002" ]))));
  check_int "IN capped at rows" 18
    (est "ORDER_T"
       (Some
          (Sql.In_list
             (col "CID", List.init 9 (fun i -> str (Printf.sprintf "C%d" i))))));
  check_int "unindexed equality keeps 1/3" (opaque 6)
    (est ~db:"CardDB" "CREDIT_CARD" (Some (eq (col "CID") (str "CUST0002"))));
  check_int "range keeps 1/3" (opaque 6)
    (est "CUSTOMER" (Some (Sql.Binop (Sql.Gt, col "CID", str "CUST0002"))));
  check_int "OR keeps 1/3" (opaque 6)
    (est "CUSTOMER"
       (Some
          (Sql.Binop
             ( Sql.Or,
               eq (col "CID") (str "CUST0001"),
               eq (col "CID") (str "CUST0002") ))));
  check_int "AND takes its most selective conjunct" 1
    (est "CUSTOMER"
       (Some
          (Sql.Binop
             ( Sql.And,
               Sql.Binop (Sql.Gt, col "SINCE", Sql.Lit (V.Int 0)),
               eq (col "CID") (str "CUST0002") ))))

let compile_exn server q =
  match Server.compile server q with
  | Ok compiled -> compiled
  | Error _ -> Alcotest.failf "%s does not compile" q

let sql_region_est ir =
  match
    List.find_opt
      (fun (label, _) -> String.starts_with ~prefix:"sql[" label)
      (Plan_ir.operators ir)
  with
  | Some (_, c) -> c.Plan_ir.c_est
  | None -> Alcotest.fail "no pushed region"

let test_selectivity_tracks_live_ndv () =
  let demo = setup () in
  let server = demo.Aldsp_demo.Demo.server in
  let q = "for $o in ORDER_T() where $o/CID eq \"CUST0002\" return $o/OID" in
  let est () = sql_region_est (compile_exn server q).Server.ir in
  check_int "18 rows over 6 keys" 3 (est ());
  let generation = Metadata.stats_generation demo.Aldsp_demo.Demo.registry in
  let misses = (Server.stats server).Server.st_plan_cache_misses in
  let orders =
    Result.get_ok
      (Aldsp_relational.Database.find_table demo.Aldsp_demo.Demo.customer_db
         "ORDER_T")
  in
  (* 12 orders for 12 new customers: 30 rows over 18 keys *)
  for i = 1 to 12 do
    Result.get_ok
      (Aldsp_relational.Table.insert orders
         [| V.Int (900_000 + i); V.Str (Printf.sprintf "NEW%04d" i); V.Null |])
  done;
  check_bool "statistics generation moved" true
    (Metadata.stats_generation demo.Aldsp_demo.Demo.registry > generation);
  check_int "recompiled against the live NDV" 1 (est ());
  check_int "stale plan purged, not served" (misses + 1)
    (Server.stats server).Server.st_plan_cache_misses

(* The paper's Figure 3 point lookup at the benchmark's scale and source
   latency: the CUSTOMER key literal prices the outer at one row, so the
   card database is probed with that key (PP-k) instead of shipped whole. *)
let test_point_lookup_probes_card_db () =
  let module D = Aldsp_demo.Demo in
  let module Db = Aldsp_relational.Database in
  let demo =
    D.create ~customers:2000 ~db_latency:0.0005 ~service_latency:0.001 ()
  in
  let q = "getProfileByID(\"CUST0042\")" in
  let compiled = compile_exn demo.D.server q in
  let card_probed =
    List.exists
      (function
        | Cexpr.Ppk _, Cexpr.Rel r :: _ -> r.Cexpr.db = "CardDB"
        | _ -> false)
      (find_join compiled.Server.plan [])
  in
  check_bool "CardDB region under a pp-k join" true card_probed;
  check_bool "CardDB region parameterized on CID" true
    (List.exists
       (fun (db, sql) ->
         db = "CardDB"
         && Str.string_match (Str.regexp {|.*"CID" = \?|}) sql 0)
       compiled.Server.sql);
  D.reset_stats demo;
  ignore (ok_exn (Server.run demo.D.server q));
  let shipped =
    demo.D.customer_db.Db.stats.Db.rows_shipped
    + demo.D.card_db.Db.stats.Db.rows_shipped
  in
  check_bool
    (Printf.sprintf "ships <= 5 rows (shipped %d)" shipped)
    true (shipped <= 5);
  (* the literal-keyed regions are exact, the merged ORDER_T outer join
     is priced by its CID fan-out and the re-nesting group back at one
     customer *)
  let worst = (Server.stats demo.D.server).Server.st_max_misestimate in
  check_bool
    (Printf.sprintf "worst misestimate <= 1.5 (got %.2f)" worst)
    true (worst <= 1.5)

let () =
  let t name f = Alcotest.test_case name `Quick f in
  Alcotest.run "optimizer"
    [ ( "rules",
        [ t "view unfolding" test_view_unfolding;
          t "source access elimination" test_source_access_elimination;
          t "constructor elimination" test_constructor_elimination_example;
          t "join introduction" test_join_introduction_inner;
          t "nested flwor -> outer join" test_outer_join_from_nested_flwor;
          t "let count -> outer join" test_let_count_to_outer_join;
          t "inverse functions" test_inverse_function_rewrite;
          t "inverse off" test_inverse_disabled_by_option;
          t "equi keys" test_equi_join_keys ] );
      ( "view cache",
        [ t "memoized" test_view_cache;
          t "cacheable not inlined" test_cacheable_functions_not_inlined ] );
      ( "selectivity",
        [ t "literal = / IN on indexed columns" test_literal_selectivity;
          t "recompile uses live NDV" test_selectivity_tracks_live_ndv;
          t "point lookup probes the card db" test_point_lookup_probes_card_db
        ] );
      ( "equivalence",
        [ t "optimized = unoptimized" test_optimizer_preserves_semantics ] ) ]
