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

(* The server keeps each view's sub-optimized body in its body cache:
   three texts over one view optimize it once (§4.2). *)
let test_view_cache () =
  let demo = setup () in
  let server = demo.Aldsp_demo.Demo.server in
  let compile q =
    check_bool ("compiles: " ^ q) true (Result.is_ok (Server.compile server q))
  in
  compile "for $n in getCustomerNames() return $n";
  let misses_after_first = Server.view_cache_misses server in
  compile "for $n in getCustomerNames() return <N>{$n}</N>";
  compile "count(getCustomerNames())";
  check_bool "first compile misses" true (misses_after_first >= 1);
  check_int "no further misses" misses_after_first
    (Server.view_cache_misses server);
  check_bool "hits recorded" true (Server.view_cache_hits server >= 2)

(* The body cache is keyed on (name, arity) and the registry's
   generation: a later query that redeclares a prolog function sees its
   own body, and two arities of one name keep their own bodies. *)
let run_serialized demo q =
  Item.serialize (ok_exn (Server.run demo.Aldsp_demo.Demo.server q))

let test_view_cache_redeclared () =
  let demo = setup () in
  let decl body =
    Printf.sprintf
      "declare namespace my = \"urn:my\";\n\
       declare function my:f($x as xs:integer) as xs:integer { %s };\n\
       my:f(10)"
      body
  in
  Alcotest.(check string) "first body" "11"
    (run_serialized demo (decl "$x + 1"));
  Alcotest.(check string) "redeclared body" "20"
    (run_serialized demo (decl "$x * 2"))

let test_view_cache_arities () =
  let demo = setup () in
  Alcotest.(check string) "g#1 inside g#2" "10312"
    (run_serialized demo
       "declare namespace my = \"urn:my\";\n\
        declare function my:g($x as xs:integer) as xs:integer { $x + 1 };\n\
        declare function my:g($x as xs:integer, $y as xs:integer)\n\
       \  as xs:integer { $x * 100 + $y };\n\
        my:g(my:g(102), 12)")

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

(* The estimate the root pipeline's pushed region was compiled with. *)
let sql_region_est (ir : Plan_ir.t) =
  let ops =
    match ir.Plan_ir.tree.Plan_ir.node with
    | Plan_ir.P_pipeline { ops; _ } -> ops
    | _ -> []
  in
  match
    List.find_map
      (fun (o : Plan_ir.op) ->
        match o.Plan_ir.op_node with
        | Plan_ir.O_sql _ -> Some o.Plan_ir.op_est
        | _ -> None)
      ops
  with
  | Some est -> est
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

(* ------------------------------------------------------------------ *)
(* Plan keys: a cached plan is kept exactly until a statistic the cost
   model reads (row count, index set, index NDV) moves                  *)

let static_explain server q = ok_exn (Server.explain ~analyze:false server q)

let run_dml db sql =
  match Aldsp_relational.Sql_parser.parse sql with
  | Ok (Aldsp_relational.Sql_ast.Dml d) ->
    ignore (ok_exn (Aldsp_relational.Sql_exec.execute_dml db d))
  | _ -> Alcotest.failf "not a DML statement: %s" sql

let test_new_index_replans () =
  let module D = Aldsp_demo.Demo in
  let demo =
    D.create ~customers:200 ~orders_per_customer:0 ~cards_per_customer:5
      ~db_latency:0.0005 ()
  in
  let q =
    "for $c in CUSTOMER(), $x in CREDIT_CARD() where $c/CID eq $x/CID \
     return <R>{$c/CID, $x/NUM}</R>"
  in
  let before = static_explain demo.D.server q in
  let cards =
    ok_exn (Aldsp_relational.Database.find_table demo.D.card_db "CREDIT_CARD")
  in
  ok_exn (Aldsp_relational.Table.create_index cards ~name:"card_cid" [ "CID" ]);
  let after = static_explain demo.D.server q in
  Alcotest.(check string)
    "the long-lived server plans as a fresh one"
    (static_explain (Server.create demo.D.registry) q)
    after;
  check_bool "the index moved the plan" true (before <> after)

let test_ndv_update_replans () =
  let demo = setup () in
  let server = demo.Aldsp_demo.Demo.server in
  let q = "for $o in ORDER_T() where $o/CID eq \"CUST0002\" return $o/OID" in
  let est () = sql_region_est (compile_exn server q).Server.ir in
  check_int "18 rows over 6 keys" 3 (est ());
  let misses = Server.plan_cache_misses server in
  run_dml demo.Aldsp_demo.Demo.customer_db
    "UPDATE ORDER_T SET CID = 'CUST0001'";
  check_int "18 rows over 1 key" 18 (est ());
  check_int "one recompile" (misses + 1) (Server.plan_cache_misses server)

let test_rolled_back_insert_replans () =
  let demo = setup () in
  let server = demo.Aldsp_demo.Demo.server in
  let db = demo.Aldsp_demo.Demo.customer_db in
  let q = "for $o in ORDER_T() where $o/CID eq \"CUST0002\" return $o/OID" in
  let plan = static_explain server q in
  let generation = Metadata.stats_generation demo.Aldsp_demo.Demo.registry in
  let misses = Server.plan_cache_misses server in
  let outcome =
    Aldsp_relational.Txn.with_transaction db (fun () ->
        run_dml db
          "INSERT INTO ORDER_T (OID, CID, AMOUNT) VALUES (900001, 'NEW0001', \
           NULL)";
        Error "abort")
  in
  check_bool "rolled back" true (Result.is_error outcome);
  check_bool "the planning generation only moves forward" true
    (Metadata.stats_generation demo.Aldsp_demo.Demo.registry > generation);
  Alcotest.(check string) "the same plan again" plan (static_explain server q);
  check_int "one recompile" (misses + 1) (Server.plan_cache_misses server)

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

(* ------------------------------------------------------------------ *)
(* PP-k block plan                                                     *)

let probe ?(latency = 0.0005) ?(matches = 1) ?(scan = 0) () =
  { Cost_model.pr_profile =
      { Cost_model.p_latency = latency; p_row_cost = Cost_model.row_cost };
    pr_matches = matches;
    pr_scan_rows = scan }

(* Bounds every (k, prefetch) choice keeps, over a grid of shapes: k is
   within [1, outer], prefetch within [0, workers - 1] and 0 for a single
   block, and scanning the probed table never shrinks the block. *)
let test_ppk_choice_bounds () =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  List.iter
    (fun outer ->
      List.iter
        (fun latency ->
          List.iter
            (fun matches ->
              List.iter
                (fun workers ->
                  let shape =
                    Printf.sprintf "outer=%s latency=%g matches=%d workers=%d"
                      (match outer with
                      | Some o -> string_of_int o
                      | None -> "?")
                      latency matches workers
                  in
                  let choose scan =
                    Cost_model.choose_ppk
                      (probe ~latency ~matches ~scan ())
                      ~outer ~workers
                  in
                  let k, prefetch = choose 0 in
                  let n = Option.value outer ~default:100 in
                  if k < 1 || k > n then fail "%s: k=%d" shape k;
                  if outer = Some 1 && k <> 1 then fail "%s: k=%d" shape k;
                  if prefetch < 0 || prefetch > workers - 1 then
                    fail "%s: prefetch=%d" shape prefetch;
                  if (n + k - 1) / k = 1 && prefetch <> 0 then
                    fail "%s: one block, prefetch=%d" shape prefetch;
                  List.iter
                    (fun scan ->
                      let k', _ = choose scan in
                      if k' < k then
                        fail "%s: scanning %d rows gives k=%d < indexed k=%d"
                          shape scan k' k)
                    [ 1_000; 100_000 ])
                [ 1; 2; 4; 16 ])
            [ 1; 5; 50 ])
        [ 0.; 1e-4; 5e-4; 5e-3 ])
    [ Some 1; Some 2; Some 3; Some 7; Some 20; Some 200; Some 1000; None ];
  check_bool (String.concat "\n" (List.rev !failures)) true (!failures = [])

(* The demo enterprise at 0.5 ms roundtrips with CREDIT_CARD's CID
   indexed and the table padded to [rows] with cards of customers outside
   the joined range: the probe side grows, the join result does not. *)
let padded_cards ~customers ~cards_per_customer rows =
  let module D = Aldsp_demo.Demo in
  let module Table = Aldsp_relational.Table in
  let demo =
    D.create ~customers ~orders_per_customer:0 ~cards_per_customer
      ~db_latency:0.0005 ()
  in
  let cards =
    Result.get_ok
      (Aldsp_relational.Database.find_table demo.D.card_db "CREDIT_CARD")
  in
  Result.get_ok (Table.create_index cards ~name:"card_cid" [ "CID" ]);
  ignore
    (Result.get_ok
       (Table.insert_many cards
          (List.init (rows - (customers * cards_per_customer)) (fun i ->
               [| V.Int (1_000_000 + i);
                  V.Str (Printf.sprintf "PAD%06d" i);
                  V.Str "0000-0000-0000";
                  V.Null |]))));
  demo

let card_join ret =
  "for $c in CUSTOMER(), $x in CREDIT_CARD() where $c/CID eq $x/CID return "
  ^ ret

(* The repository benchmark's ppk_join shape: 200 customers against a
   100k-row CREDIT_CARD with CID indexed, 0.5 ms roundtrips, a pool of 4.
   The model prices blocks of 25 to 50 keys with at least two blocks in
   flight, and the pushdown gate priced the same plan. *)
let test_ppk_join_shape () =
  let module D = Aldsp_demo.Demo in
  let demo = padded_cards ~customers:200 ~cards_per_customer:5 100_000 in
  let workers = 4 in
  let server =
    Server.create ~pool:(Pool.create ~workers ()) demo.D.registry
  in
  let q = card_join "<R>{$c/CID, $x/NUM}</R>" in
  let clauses =
    match (compile_exn server q).Server.plan with
    | Cexpr.Flwor { clauses; _ } -> clauses
    | _ -> Alcotest.fail "plan is not a FLWOR"
  in
  let rec split before = function
    | Cexpr.Join
        { method_ = Cexpr.Ppk { k; prefetch }; right = Cexpr.Rel r :: _; _ }
      :: _ ->
      (List.rev before, k, prefetch, r)
    | c :: rest -> split (c :: before) rest
    | [] -> Alcotest.fail "no PP-k join"
  in
  let before, k, prefetch, r = split [] clauses in
  check_bool (Printf.sprintf "k=%d in [25, 50]" k) true (k >= 25 && k <= 50);
  check_bool (Printf.sprintf "prefetch=%d >= 2" prefetch) true (prefetch >= 2);
  let registry = demo.D.registry in
  let p = Cost_model.ppk_probe registry r in
  check_int "an index serves the probe" 0 p.Cost_model.pr_scan_rows;
  let whole =
    { r with
      Cexpr.select = { r.Cexpr.select with Sql.where = None };
      sql_params = [] }
  in
  check_bool "the gate parameterizes" true
    (Optimizer.parameterize_gate
       (Optimizer.create ~workers registry)
       ~outer:before ~whole r);
  check_bool "the gate priced the plan the join runs" true
    (Cost_model.parameterize_beneficial p
       ~outer:(Cost_model.clauses_cardinality registry before)
       ~workers
       ~inner_rows:(Cost_model.rel_cardinality registry whole)
     = Some (k, prefetch))

(* The PP-k join of a compiled pipeline: the op, its k, whether it hashes
   each fetched block on the join keys, and the let on its right side
   that rebuilds each candidate, if any. *)
let ppk_join_of (ir : Plan_ir.t) =
  let is_let (o : Plan_ir.op) =
    match o.Plan_ir.op_node with Plan_ir.O_let _ -> true | _ -> false
  in
  match ir.Plan_ir.tree.Plan_ir.node with
  | Plan_ir.P_pipeline { ops; _ } ->
    List.find_map
      (fun (o : Plan_ir.op) ->
        match o.Plan_ir.op_node with
        | Plan_ir.O_join { method_ = Cexpr.Ppk { k; _ }; keys; right; _ } ->
          Some (o, k, keys <> [], List.find_opt is_let right)
        | _ -> None)
      ops
  | _ -> None

(* The benchmark's cost-model and access-path sweeps: 100 customers
   against CREDIT_CARD padded to 1k, 10k and 100k rows. The model chooses
   PP-k with k in [5, 50], probing through the index and hashing each
   fetched block (inner=inl), so the whole-card return's per-candidate
   let runs no more often than the join emits rows. Forced k=1, forced
   k=20 and k=20 without indexes return the same rows, and the indexed
   paths scan nothing. A failure prints the chosen plan. *)
let test_cost_model_sweep () =
  let module D = Aldsp_demo.Demo in
  let module Db = Aldsp_relational.Database in
  let forced k =
    { Optimizer.default_options with Optimizer.ppk_k = k; cost_based = false }
  in
  let q = card_join "<R>{$c/CID, $x/NUM}</R>" in
  List.iter
    (fun rows ->
      let demo = padded_cards ~customers:100 ~cards_per_customer:10 rows in
      (* the first run of [q] on a fresh server, so [q]'s plan counters
         hold this run only: the plan, the rows returned, the card
         table's full scans *)
      let run ~indexed options q =
        Db.set_use_indexes demo.D.customer_db indexed;
        Db.set_use_indexes demo.D.card_db indexed;
        let server =
          Server.create ~optimizer_options:options demo.D.registry
        in
        let ir = (compile_exn server q).Server.ir in
        D.reset_stats demo;
        let n = List.length (ok_exn (Server.run server q)) in
        (server, ir, n, demo.D.card_db.Db.stats.Db.full_scans)
      in
      let server, ir, n_chosen, scans =
        run ~indexed:true Optimizer.default_options q
      in
      let explain = ok_exn (Server.explain ~analyze:false server q) in
      let expect ok fmt =
        Printf.ksprintf
          (fun what ->
            if not ok then Alcotest.failf "%d rows: %s\n%s" rows what explain)
          fmt
      in
      (match ppk_join_of ir with
      | Some (_, k, hashed, _) ->
        expect (k >= 5 && k <= 50) "chosen k=%d outside [5, 50]" k;
        expect hashed "the PP-k join does not hash its blocks"
      | None -> expect false "the cost model did not choose PP-k");
      expect (scans = 0) "the chosen plan ran %d full scans" scans;
      (* returning the whole card keeps the per-candidate let live *)
      let _, live, _, _ =
        run ~indexed:true Optimizer.default_options
          (card_join "<R>{$c/CID, $x}</R>")
      in
      (match ppk_join_of live with
      | Some (join, _, _, Some let_) ->
        let act (o : Plan_ir.op) =
          live.Plan_ir.totals.(o.Plan_ir.op_id).Plan_ir.c_rows
        in
        expect
          (act let_ <= act join)
          "per-candidate let act=%d exceeds the join's act=%d" (act let_)
          (act join)
      | _ -> expect false "no PP-k join with a reconstruction let");
      let _, _, n_k1, _ = run ~indexed:true (forced 1) q in
      let _, _, n_k20, scans_k20 = run ~indexed:true (forced 20) q in
      let _, _, n_scan, _ = run ~indexed:false (forced 20) q in
      expect (scans_k20 = 0) "forced k=20 through the index ran %d full scans"
        scans_k20;
      expect
        (n_k1 = n_chosen && n_k20 = n_chosen && n_scan = n_chosen)
        "row counts disagree: chosen %d, k=1 %d, k=20 %d, full scan %d"
        n_chosen n_k1 n_k20 n_scan)
    [ 1_000; 10_000; 100_000 ]

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
          t "redeclared function" test_view_cache_redeclared;
          t "one name, two arities" test_view_cache_arities;
          t "cacheable not inlined" test_cacheable_functions_not_inlined ] );
      ( "selectivity",
        [ t "literal = / IN on indexed columns" test_literal_selectivity;
          t "recompile uses live NDV" test_selectivity_tracks_live_ndv;
          t "point lookup probes the card db" test_point_lookup_probes_card_db
        ] );
      ( "plan keys",
        [ t "a new index re-plans" test_new_index_replans;
          t "an NDV-changing UPDATE re-plans" test_ndv_update_replans;
          t "a rolled-back INSERT re-plans" test_rolled_back_insert_replans
        ] );
      ( "ppk plan",
        [ t "k and prefetch bounds" test_ppk_choice_bounds;
          t "ppk_join shape" test_ppk_join_shape;
          t "cost model sweep" test_cost_model_sweep ] );
      ( "equivalence",
        [ t "optimized = unoptimized" test_optimizer_preserves_semantics ] ) ]
