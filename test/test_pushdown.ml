(* Tests for SQL pushdown: every pattern of Tables 1 and 2, parameter
   passing, vendor capability gating, join parameterization for PP-k, and
   pushed-vs-middleware result equivalence. *)

open Aldsp_core
open Aldsp_xml

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

let ok_exn = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let setup ?customers:(n = 6) () = Aldsp_demo.Demo.create ~customers:n ()

(* full pipeline via the server, returning pushed SQL + result *)
let compile_run demo q =
  let open Aldsp_demo.Demo in
  let compiled = ok_exn (Result.map_error (fun ds -> String.concat ";" (List.map Diag.to_string ds)) (Server.compile demo.server q)) in
  let result = ok_exn (Server.run demo.server q) in
  (compiled.Server.sql, result)

(* middleware-only compile: optimizer with everything on, but no pushdown *)
let run_unpushed demo q =
  let open Aldsp_demo.Demo in
  let diag = Diag.collector Diag.Fail_fast in
  let ctx =
    Normalize.context ~schema_lookup:(Metadata.find_schema demo.registry) diag
  in
  let core = Normalize.expr ctx (ok_exn (Xq_parser.parse_expr q)) in
  let env = Typecheck.env demo.registry diag in
  let _, typed = Typecheck.check env core in
  let rt = Eval.runtime demo.registry in
  ok_exn (Eval.eval rt typed)

let assert_equivalent demo q =
  let _, pushed = compile_run demo q in
  let unpushed = run_unpushed demo q in
  if Item.serialize pushed <> Item.serialize unpushed then
    Alcotest.failf "pushdown changed %s:\n%s\nvs\n%s" q (Item.serialize pushed)
      (Item.serialize unpushed)

let sql_of demo q =
  let sqls, _ = compile_run demo q in
  String.concat "\n" (List.map snd sqls)

(* ------------------------------------------------------------------ *)
(* Patterns of Tables 1 and 2                                          *)

let t1a = "for $c in CUSTOMER() where $c/CID eq \"CUST0001\" return $c/FIRST_NAME"

let t1b =
  "for $c in CUSTOMER(), $o in ORDER_T() where $c/CID eq $o/CID return <CO>{$c/CID, $o/OID}</CO>"

let t1c =
  "for $c in CUSTOMER() return <CUSTOMER>{$c/CID, for $o in ORDER_T() where $c/CID eq $o/CID return $o/OID}</CUSTOMER>"

let t1d =
  "for $c in CUSTOMER() return <C>{data(if ($c/CID eq \"CUST0001\") then $c/LAST_NAME else $c/SSN)}</C>"

let t1e =
  "for $c in CUSTOMER() group $c as $p by $c/LAST_NAME as $l return <G>{$l, count($p)}</G>"

let t1f = "for $c in CUSTOMER() group by $c/LAST_NAME as $l return $l"

let t2g =
  "for $c in CUSTOMER() return <C>{$c/CID, <N>{count(for $o in ORDER_T() where $o/CID eq $c/CID return $o)}</N>}</C>"

let t2h =
  "for $c in CUSTOMER() where some $o in ORDER_T() satisfies $c/CID eq $o/CID return $c/CID"

let t2i =
  "let $cs := for $c in CUSTOMER() let $oc := count(for $o in ORDER_T() where $c/CID eq $o/CID return $o) order by $oc descending return <C>{data($c/CID), $oc}</C> return subsequence($cs, 2, 3)"

let test_t1a_select_project () =
  let demo = setup () in
  let q = t1a in
  let sql = sql_of demo q in
  check_bool "where pushed" true (contains sql "WHERE t");
  check_bool "literal" true (contains sql "'CUST0001'");
  assert_equivalent demo q

let test_t1b_inner_join () =
  let demo = setup () in
  let q = t1b in
  let sql = sql_of demo q in
  check_bool "join" true (contains sql "JOIN \"ORDER_T\"");
  check_bool "not outer" false (contains sql "LEFT OUTER JOIN");
  assert_equivalent demo q

let test_t1c_outer_join () =
  let demo = setup () in
  let q = t1c in
  let sql = sql_of demo q in
  check_bool "left outer join" true (contains sql "LEFT OUTER JOIN \"ORDER_T\"");
  assert_equivalent demo q

let test_t1d_if_then_else_case () =
  let demo = setup () in
  let q = t1d in
  let sql = sql_of demo q in
  check_bool "CASE pushed" true (contains sql "CASE WHEN");
  assert_equivalent demo q

let test_t1e_group_by_aggregation () =
  let demo = setup () in
  let q = t1e in
  let sql = sql_of demo q in
  check_bool "GROUP BY" true (contains sql "GROUP BY t");
  check_bool "COUNT(*)" true (contains sql "COUNT(*)");
  assert_equivalent demo q

let test_t1f_distinct () =
  let demo = setup () in
  let q = t1f in
  let sql = sql_of demo q in
  check_bool "DISTINCT" true (contains sql "SELECT DISTINCT");
  assert_equivalent demo q

let test_t2g_outer_join_aggregation () =
  let demo = setup () in
  let q = t2g in
  let sql = sql_of demo q in
  check_bool "outer join" true (contains sql "LEFT OUTER JOIN");
  check_bool "count of right col" true (contains sql "COUNT(t");
  check_bool "group by" true (contains sql "GROUP BY");
  assert_equivalent demo q

let test_t2h_exists_semijoin () =
  let demo = setup () in
  let q = t2h in
  let sql = sql_of demo q in
  check_bool "EXISTS" true (contains sql "EXISTS(SELECT 1");
  assert_equivalent demo q

let test_t2i_subsequence_window () =
  let demo = setup () in
  let q = t2i in
  let sql = sql_of demo q in
  (* CustomerDB is Oracle in the demo: ROWNUM wrapper *)
  check_bool "ROWNUM" true (contains sql "ROWNUM");
  check_bool "order by count desc" true (contains sql "ORDER BY COUNT(");
  assert_equivalent demo q

(* ------------------------------------------------------------------ *)
(* Parameters, capabilities, cross-database joins                      *)

let test_parameterized_nonpushable () =
  (* the §4.5 example: int2date is opaque until the inverse rewrites it,
     then date2int($start) ships as a parameter *)
  let demo = setup () in
  let q =
    "for $p in getProfile() where $p/SINCE gt xs:dateTime(\"1970-01-03T00:00:00Z\") return $p/CID"
  in
  let sql = sql_of demo q in
  check_bool "SINCE > ?" true (contains sql "\"SINCE\" > ?");
  assert_equivalent demo q

let test_string_function_pushdown () =
  let demo = setup () in
  let q =
    "for $c in CUSTOMER() return <U>{fn:upper-case($c/LAST_NAME)}</U>"
  in
  let sql = sql_of demo q in
  check_bool "UPPER pushed" true (contains sql "UPPER(t");
  assert_equivalent demo q

let test_cross_database_ppk () =
  let demo = setup () in
  let q =
    "for $c in CUSTOMER(), $k in CREDIT_CARD() where $c/CID eq $k/CID return <CK>{$c/CID, $k/NUM}</CK>"
  in
  let compiled =
    match Server.compile demo.Aldsp_demo.Demo.server q with
    | Ok c -> c
    | Error _ -> Alcotest.fail "compile"
  in
  (* the CardDB side must be a parameterized query *)
  let card_sql =
    List.filter (fun (db, _) -> db = "CardDB") compiled.Server.sql
  in
  check_int "one CardDB region" 1 (List.length card_sql);
  check_bool "parameterized" true (contains (snd (List.hd card_sql)) "= ?");
  (* and the join must be PP-k *)
  let rec has_ppk e =
    let found = ref false in
    (match e with
    | Cexpr.Flwor { clauses; _ } ->
      List.iter
        (function
          | Cexpr.Join { method_ = Cexpr.Ppk _; _ } -> found := true
          | _ -> ())
        clauses
    | _ -> ());
    ignore (Cexpr.map_children (fun c -> (if has_ppk c then found := true); c) e);
    !found
  in
  check_bool "PP-k selected" true (has_ppk compiled.Server.plan);
  assert_equivalent demo q

let test_sql92_conservative () =
  (* a Generic_sql92 source must not receive CASE or windows *)
  let open Aldsp_relational in
  let db = Database.create ~vendor:Database.Generic_sql92 "plain" in
  Database.add_table db
    (Table.create ~primary_key:[ "K" ] "T"
       [ Table.column ~nullable:false "K" Table.T_int;
         Table.column ~nullable:false "S" Table.T_varchar ]);
  Result.get_ok (Table.insert (Result.get_ok (Database.find_table db "T")) [| Sql_value.Int 1; Sql_value.Str "a" |]);
  let reg = Metadata.create () in
  Metadata.introspect_relational reg db;
  let server = Server.create reg in
  let q = "for $t in T() return <R>{data(if ($t/K eq 1) then $t/S else $t/S)}</R>" in
  let compiled = ok_exn (Result.map_error (fun _ -> "compile") (Server.compile server q)) in
  check_bool "no CASE for SQL92" false
    (List.exists (fun (_, sql) -> contains sql "CASE") compiled.Server.sql);
  (* and it still evaluates correctly in the middleware *)
  match Server.run server q with
  | Ok items -> check_bool "value" true (contains (Item.serialize items) "<R>a</R>")
  | Error m -> Alcotest.fail m

let test_unused_columns_pruned () =
  let demo = setup () in
  let q = "for $c in CUSTOMER() return $c/LAST_NAME" in
  let sql = sql_of demo q in
  check_bool "SSN not fetched" false (contains sql "SSN");
  check_bool "LAST_NAME fetched" true (contains sql "LAST_NAME");
  assert_equivalent demo q

let test_whole_row_reconstruction () =
  (* returning $c itself must reconstruct the row element with NULLs as
     missing elements *)
  let demo = setup ~customers:8 () in
  let q = "for $c in CUSTOMER() where $c/CID eq \"CUST0007\" return $c" in
  let _, result = compile_run demo q in
  match result with
  | [ Item.Node n ] ->
    (* customer 7 has a NULL first name: element absent *)
    check_int "no FIRST_NAME child" 0
      (List.length (Node.child_elements n (Qname.local "FIRST_NAME")));
    check_int "CID child present" 1
      (List.length (Node.child_elements n (Qname.local "CID")))
  | other -> Alcotest.failf "unexpected: %s" (Item.serialize other)

let test_roundtrips_counted () =
  (* a fully pushed query executes exactly one statement *)
  let demo = setup () in
  let q = "for $c in CUSTOMER() where $c/CID eq \"CUST0002\" return $c/LAST_NAME" in
  ignore (compile_run demo q);
  Aldsp_demo.Demo.reset_stats demo;
  ignore (ok_exn (Server.run demo.Aldsp_demo.Demo.server q));
  check_int "single roundtrip" 1
    demo.Aldsp_demo.Demo.customer_db.Aldsp_relational.Database.stats
      .Aldsp_relational.Database.statements

(* ------------------------------------------------------------------ *)
(* Sibling nestings: a same-database grouped join commutes up to its    *)
(* region past other grouped joins and lets, then merges (§4.2)         *)

let matches_reference demo q =
  let open Aldsp_demo.Demo in
  let reference = ok_exn (Server.run (Server.reference demo.registry) q) in
  let optimized = ok_exn (Server.run demo.server q) in
  if Item.serialize optimized <> Item.serialize reference then
    Alcotest.failf "%s differs from the reference:\n%s\nvs\n%s" q
      (Item.serialize optimized) (Item.serialize reference)

let pushed_sql demo q =
  match Server.compile demo.Aldsp_demo.Demo.server q with
  | Ok c -> c.Server.sql
  | Error ds ->
    Alcotest.failf "compile: %s"
      (String.concat ";" (List.map Diag.to_string ds))

let orders_merged demo q =
  List.exists
    (fun (db, sql) ->
      db = "CustomerDB" && contains sql "LEFT OUTER JOIN \"ORDER_T\"")
    (pushed_sql demo q)

let test_profile_lookup_merges_orders () =
  let module D = Aldsp_demo.Demo in
  let module Db = Aldsp_relational.Database in
  let demo = setup ~customers:2000 () in
  let q = "getProfileByID(\"CUST0042\")" in
  check_int "two pushed regions" 2 (List.length (pushed_sql demo q));
  check_bool "ORDER_T merged into the CUSTOMER statement" true
    (orders_merged demo q);
  D.reset_stats demo;
  ignore (ok_exn (Server.run demo.D.server q));
  let total f = f demo.D.customer_db.Db.stats + f demo.D.card_db.Db.stats in
  check_int "two statements" 2 (total (fun s -> s.Db.statements));
  let shipped = total (fun s -> s.Db.rows_shipped) in
  check_bool (Printf.sprintf "ships <= 4 rows (shipped %d)" shipped) true
    (shipped <= 4);
  (* the unpushed reference builds every profile before filtering, so it
     runs at a smaller scale, where the plan merges the same way *)
  let small = setup ~customers:50 () in
  check_bool "merged at 50 customers too" true (orders_merged small q);
  matches_reference small q

let orders = "<O>{getORDER_T($c)}</O>"
let cards = "<C>{CREDIT_CARD()[CID eq $c/CID]}</C>"

let point_lookup return_ =
  "for $c in CUSTOMER() where $c/CID eq \"CUST0042\" return <P>" ^ return_
  ^ "</P>"

let test_sibling_order_irrelevant () =
  let demo = setup ~customers:2000 () in
  (* aliases and column labels are numbered in rewrite order *)
  let shape q =
    List.map
      (fun (db, sql) -> (db, Str.global_replace (Str.regexp "[0-9]+") "" sql))
      (pushed_sql demo q)
  in
  let orders_first = point_lookup (orders ^ cards)
  and cards_first = point_lookup (cards ^ orders) in
  List.iter
    (fun q ->
      check_bool "ORDER_T merged" true (orders_merged demo q);
      check_int "two pushed regions" 2 (List.length (pushed_sql demo q));
      matches_reference demo q)
    [ orders_first; cards_first ];
  check_bool "same pushed SQL either way" true
    (shape orders_first = shape cards_first);
  (* a count over the moved nesting pushes as pattern (g) *)
  let counted = point_lookup (cards ^ "<N>{count(getORDER_T($c))}</N>") in
  check_bool "ORDER_T count merged" true (orders_merged demo counted);
  matches_reference demo counted

let test_commute_blocked () =
  let demo = setup ~customers:20 () in
  List.iter
    (fun (why, q) ->
      check_bool (why ^ ": ORDER_T not merged") false (orders_merged demo q);
      matches_reference demo q)
    [ ( "reads the card nesting's group variable",
        "for $c in CUSTOMER() where $c/CID eq \"CUST0002\" let $cc := \
         CREDIT_CARD()[CID eq $c/CID] return <P><C>{$cc}</C><O>{for $o in \
         ORDER_T() where $o/CID eq $c/CID and exists($cc) return $o}</O></P>"
      );
      ( "follows a where",
        "for $c in CUSTOMER() let $cc := CREDIT_CARD()[CID eq $c/CID] where \
         count($cc) ge 0 and $c/CID eq \"CUST0002\" return \
         <P><C>{$cc}</C>" ^ orders ^ "</P>" );
      ( "follows an inner join",
        "for $c in CUSTOMER(), $k in CREDIT_CARD() where $k/CID eq $c/CID \
         and $c/CID eq \"CUST0002\" return <P>{$k/NUM}" ^ orders ^ "</P>" ) ]

(* ------------------------------------------------------------------ *)
(* One walk: a merge goes on absorbing, and nothing is left to push     *)

(* [q]'s core through normalization, typing and [Optimizer.optimize], and
   the optimizer that made it *)
let optimized registry q =
  let diag = Diag.collector Diag.Fail_fast in
  let ctx = Normalize.context ~schema_lookup:(Metadata.find_schema registry) diag in
  let core = Normalize.expr ctx (ok_exn (Xq_parser.parse_expr q)) in
  let _, typed = Typecheck.check (Typecheck.env registry diag) core in
  let opt = Optimizer.create registry in
  (opt, fst (Optimizer.optimize opt typed))

let push_is_idempotent registry q =
  let opt, core = optimized registry q in
  let push = Pushdown.push ~gate:(Optimizer.parameterize_gate opt) registry in
  let once = push core in
  if not (Cexpr.equal (push once) once) then
    Alcotest.failf "pushing %s again changed its plan:\n%s" q
      (Cexpr.to_string once)

let test_push_idempotent () =
  let demo = setup () in
  List.iter
    (push_is_idempotent demo.Aldsp_demo.Demo.registry)
    [ t1a; t1b; t1c; t1d; t1e; t1f; t2g; t2h; t2i ];
  for index = 0 to 199 do
    let s = Aldsp_check.Harness.scenario_of ~seed:42 ~index in
    let catalog = Aldsp_check.Catalog.build s.Aldsp_check.Shrink.spec in
    push_is_idempotent catalog.Aldsp_check.Catalog.registry
      (Aldsp_check.Gen.render s.Aldsp_check.Shrink.query)
  done

(* An ORDER BY after a join, a group-by or a grouped count lands in the
   merged statement: one region carrying it, no middleware sort. *)
let test_order_by_after_merge () =
  let demo = setup () in
  List.iter
    (fun (shape, q) ->
      let text = ok_exn (Server.explain ~analyze:false demo.Aldsp_demo.Demo.server q) in
      let lines = String.split_on_char '\n' text in
      let starting prefix =
        List.length
          (List.filter
             (fun l -> String.starts_with ~prefix (String.trim l))
             lines)
      in
      check_int (shape ^ ": one statement") 1 (starting "sql[");
      check_int (shape ^ ": no middleware sort") 0 (starting "sort ");
      check_bool (shape ^ ": ORDER BY in the SQL") true (contains text " ORDER BY "))
    [ ( "join",
        "for $c in CUSTOMER(), $o in ORDER_T() where $c/CID eq $o/CID order by \
         $o/OID return <CO>{$c/CID, $o/OID}</CO>" );
      ( "group-by",
        "for $c in CUSTOMER() group $c as $p by $c/LAST_NAME as $l order by $l \
         return <G>{$l, count($p)}</G>" );
      ( "grouped count",
        "for $c in CUSTOMER() let $oc := count(for $o in ORDER_T() where \
         $c/CID eq $o/CID return $o) order by $oc return <C>{data($c/CID), \
         $oc}</C>" ) ]

(* A return expression that reads a variable bound after a region stays
   in the middleware: the region runs before that variable has a value,
   so it cannot be one of the region's parameters. *)
let test_later_variable_not_a_parameter () =
  let demo = setup ~customers:2 () in
  List.iter
    (fun q ->
      matches_reference demo q;
      let text =
        ok_exn (Server.explain ~analyze:false demo.Aldsp_demo.Demo.server q)
      in
      List.iter
        (fun line ->
          let line = String.trim line in
          if String.starts_with ~prefix:"param ?" line && contains line ":= $x"
          then Alcotest.failf "%s: region parameter %s" q line)
        (String.split_on_char '\n' text))
    [ "for $c in CUSTOMER() for $x in (\"a\",\"b\") return \
       concat($c/LAST_NAME, $x)";
      "for $c in CUSTOMER() let $y := \"z\" for $x in (\"a\",\"b\") \
       return concat($c/LAST_NAME, $x)" ]

(* Property: pushdown preserves results across a family of queries with a
   random filter literal. *)
let prop_pushdown_equivalence =
  QCheck.Test.make ~name:"pushdown preserves semantics on random filters"
    ~count:25
    QCheck.(int_range 1 9)
    (fun i ->
      let demo = setup ~customers:9 () in
      let q =
        Printf.sprintf
          "for $c in CUSTOMER() where $c/CID eq \"CUST%04d\" return <R>{$c/LAST_NAME, count(for $o in ORDER_T() where $o/CID eq $c/CID return $o)}</R>"
          i
      in
      let _, pushed = compile_run demo q in
      let unpushed = run_unpushed demo q in
      Item.serialize pushed = Item.serialize unpushed)

let () =
  let t name f = Alcotest.test_case name `Quick f in
  Alcotest.run "pushdown"
    [ ( "table1",
        [ t "(a) select-project" test_t1a_select_project;
          t "(b) inner join" test_t1b_inner_join;
          t "(c) outer join" test_t1c_outer_join;
          t "(d) if-then-else CASE" test_t1d_if_then_else_case;
          t "(e) group-by aggregation" test_t1e_group_by_aggregation;
          t "(f) distinct" test_t1f_distinct ] );
      ( "table2",
        [ t "(g) outer join aggregation" test_t2g_outer_join_aggregation;
          t "(h) exists semijoin" test_t2h_exists_semijoin;
          t "(i) subsequence window" test_t2i_subsequence_window ] );
      ( "mechanics",
        [ t "parameterized non-pushable" test_parameterized_nonpushable;
          t "string functions" test_string_function_pushdown;
          t "cross-db PP-k" test_cross_database_ppk;
          t "SQL92 conservative" test_sql92_conservative;
          t "column pruning" test_unused_columns_pruned;
          t "row reconstruction" test_whole_row_reconstruction;
          t "roundtrip accounting" test_roundtrips_counted;
          t "profile lookup merges ORDER_T" test_profile_lookup_merges_orders;
          t "sibling nesting order irrelevant" test_sibling_order_irrelevant;
          t "commute blocked" test_commute_blocked;
          t "push is idempotent" test_push_idempotent;
          t "ORDER BY after a merge" test_order_by_after_merge;
          t "later variable is not a parameter"
            test_later_variable_not_a_parameter;
          QCheck_alcotest.to_alcotest prop_pushdown_equivalence ] ) ]
