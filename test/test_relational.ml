(* Tests for the relational substrate: values & 3VL, tables, the SQL
   parser, the executor, dialect printing, DML, and transactions. *)

open Aldsp_relational
module V = Sql_value

let check = Alcotest.check
let check_bool = check Alcotest.bool
let check_int = check Alcotest.int
let check_string = check Alcotest.string

let ok_exn = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let err_exn = function
  | Ok _ -> Alcotest.fail "expected an error"
  | Error msg -> msg

(* Demo database mirroring the paper's running example. *)
let make_db () =
  let db = Database.create ~vendor:Database.Oracle "CustomerDB" in
  let customer =
    Table.create ~primary_key:[ "CID" ] "CUSTOMER"
      [ Table.column ~nullable:false "CID" Table.T_varchar;
        Table.column ~nullable:false "LAST_NAME" Table.T_varchar;
        Table.column "FIRST_NAME" Table.T_varchar;
        Table.column "SINCE" Table.T_int ]
  in
  let order_ =
    Table.create ~primary_key:[ "OID" ]
      ~foreign_keys:
        [ { Table.fk_columns = [ "CID" ];
            references_table = "CUSTOMER";
            references_columns = [ "CID" ] } ]
      "ORDER_T"
      [ Table.column ~nullable:false "OID" Table.T_int;
        Table.column ~nullable:false "CID" Table.T_varchar;
        Table.column "AMOUNT" Table.T_decimal ]
  in
  Database.add_table db customer;
  Database.add_table db order_;
  let ins t row = ok_exn (Table.insert t row) in
  ins customer [| V.Str "C1"; V.Str "Jones"; V.Str "Ann"; V.Int 1000 |];
  ins customer [| V.Str "C2"; V.Str "Smith"; V.Str "Bob"; V.Int 2000 |];
  ins customer [| V.Str "C3"; V.Str "Jones"; V.Null; V.Int 3000 |];
  ins order_ [| V.Int 1; V.Str "C1"; V.Float 10. |];
  ins order_ [| V.Int 2; V.Str "C1"; V.Float 20. |];
  ins order_ [| V.Int 3; V.Str "C2"; V.Float 30. |];
  db

let run db sql =
  match ok_exn (Sql_parser.parse sql) with
  | Sql_ast.Query s -> ok_exn (Sql_exec.query db s)
  | Sql_ast.Dml _ -> Alcotest.fail "expected a query"

let run_dml db ?params sql =
  match ok_exn (Sql_parser.parse sql) with
  | Sql_ast.Dml d -> ok_exn (Sql_exec.execute_dml db ?params d)
  | Sql_ast.Query _ -> Alcotest.fail "expected DML"

(* ------------------------------------------------------------------ *)
(* Values                                                              *)

let test_three_valued_logic () =
  check_bool "null = null is unknown" true
    (V.truth_of_comparison (( = ) 0) V.Null V.Null = V.Unknown);
  check_bool "unknown AND false = false" true
    (V.and_ V.Unknown V.False = V.False);
  check_bool "unknown OR true = true" true (V.or_ V.Unknown V.True = V.True);
  check_bool "not unknown" true (V.not_ V.Unknown = V.Unknown);
  check_bool "grouping equality treats nulls equal" true (V.equal V.Null V.Null)

let test_value_conversions () =
  check_bool "null -> missing" true (V.to_atomic V.Null = None);
  check_bool "int" true
    (V.to_atomic (V.Int 3) = Some (Aldsp_xml.Atomic.Integer 3));
  check_bool "atomic roundtrip" true
    (V.of_atomic (Aldsp_xml.Atomic.String "x") = V.Str "x");
  check_string "literal escaping" "'O''Brien'" (V.to_string (V.Str "O'Brien"))

(* ------------------------------------------------------------------ *)
(* Table constraints                                                   *)

let test_table_constraints () =
  let t =
    Table.create ~primary_key:[ "K" ] "T"
      [ Table.column ~nullable:false "K" Table.T_int;
        Table.column "S" Table.T_varchar ]
  in
  ignore (ok_exn (Table.insert t [| V.Int 1; V.Str "a" |]));
  ignore (err_exn (Table.insert t [| V.Int 1; V.Str "dup" |]));
  ignore (err_exn (Table.insert t [| V.Null; V.Str "null key" |]));
  ignore (err_exn (Table.insert t [| V.Str "wrong type"; V.Null |]));
  ignore (err_exn (Table.insert t [| V.Int 2 |]));
  check_int "rows" 1 (Table.row_count t);
  (* a declared key over an absent column is checked by a scan, under
     the lock the insert already holds *)
  let t = Table.create ~primary_key:[ "NOPE" ] "U" [ Table.column "K" Table.T_int ] in
  ok_exn (Table.insert t [| V.Int 1 |]);
  ignore (err_exn (Table.insert t [| V.Int 2 |]))

(* ------------------------------------------------------------------ *)
(* Executor                                                            *)

let test_select_project () =
  let db = make_db () in
  let r = run db "SELECT c.FIRST_NAME FROM CUSTOMER c WHERE c.CID = 'C1'" in
  check_int "one row" 1 (List.length r.Sql_exec.rows);
  check_bool "value" true ((List.hd r.Sql_exec.rows).(0) = V.Str "Ann")

let test_where_null_filtered () =
  let db = make_db () in
  (* C3 has NULL first name: comparison yields unknown -> filtered out *)
  let r = run db "SELECT c.CID FROM CUSTOMER c WHERE c.FIRST_NAME <> 'Ann'" in
  check_int "only C2" 1 (List.length r.Sql_exec.rows)

let test_inner_join () =
  let db = make_db () in
  let r =
    run db
      "SELECT c.CID, o.OID FROM CUSTOMER c JOIN ORDER_T o ON c.CID = o.CID"
  in
  check_int "three pairs" 3 (List.length r.Sql_exec.rows)

let test_left_outer_join () =
  let db = make_db () in
  let r =
    run db
      "SELECT c.CID, o.OID FROM CUSTOMER c LEFT OUTER JOIN ORDER_T o ON c.CID = o.CID ORDER BY c.CID"
  in
  check_int "3 + null-extended C3" 4 (List.length r.Sql_exec.rows);
  let last = List.nth r.Sql_exec.rows 3 in
  check_bool "C3 null extended" true (last.(1) = V.Null)

let test_group_by_aggregates () =
  let db = make_db () in
  let r =
    run db
      "SELECT c.LAST_NAME, COUNT(*) AS n FROM CUSTOMER c GROUP BY c.LAST_NAME ORDER BY c.LAST_NAME"
  in
  check_int "two groups" 2 (List.length r.Sql_exec.rows);
  let jones = List.hd r.Sql_exec.rows in
  check_bool "Jones x2" true (jones.(0) = V.Str "Jones" && jones.(1) = V.Int 2)

let test_outer_join_aggregation () =
  (* Table 2(g): per-customer order count, zero included *)
  let db = make_db () in
  let r =
    run db
      "SELECT c.CID, COUNT(o.CID) AS n FROM CUSTOMER c LEFT OUTER JOIN ORDER_T o ON c.CID = o.CID GROUP BY c.CID ORDER BY c.CID"
  in
  check_int "three customers" 3 (List.length r.Sql_exec.rows);
  let counts = List.map (fun row -> row.(1)) r.Sql_exec.rows in
  check_bool "counts 2,1,0" true (counts = [ V.Int 2; V.Int 1; V.Int 0 ])

let test_aggregates_skip_nulls () =
  let db = make_db () in
  let r =
    run db "SELECT COUNT(c.FIRST_NAME) AS n, COUNT(*) AS m FROM CUSTOMER c"
  in
  let row = List.hd r.Sql_exec.rows in
  check_bool "count col skips null" true (row.(0) = V.Int 2);
  check_bool "count star does not" true (row.(1) = V.Int 3)

let test_sum_avg_min_max () =
  let db = make_db () in
  let r =
    run db
      "SELECT SUM(o.AMOUNT) AS s, AVG(o.AMOUNT) AS a, MIN(o.OID) AS mn, MAX(o.OID) AS mx FROM ORDER_T o"
  in
  let row = List.hd r.Sql_exec.rows in
  check_bool "sum" true (row.(0) = V.Float 60.);
  check_bool "avg" true (row.(1) = V.Float 20.);
  check_bool "min" true (row.(2) = V.Int 1);
  check_bool "max" true (row.(3) = V.Int 3)

let test_distinct () =
  let db = make_db () in
  let r = run db "SELECT DISTINCT c.LAST_NAME FROM CUSTOMER c" in
  check_int "two distinct names" 2 (List.length r.Sql_exec.rows)

let test_exists_semijoin () =
  (* Table 2(h) *)
  let db = make_db () in
  let r =
    run db
      "SELECT c.CID FROM CUSTOMER c WHERE EXISTS(SELECT 1 AS one FROM ORDER_T o WHERE c.CID = o.CID) ORDER BY c.CID"
  in
  check_int "customers with orders" 2 (List.length r.Sql_exec.rows)

let test_case_expression () =
  (* Table 1(d) *)
  let db = make_db () in
  let r =
    run db
      "SELECT CASE WHEN c.CID = 'C1' THEN c.FIRST_NAME ELSE c.LAST_NAME END AS v FROM CUSTOMER c ORDER BY c.CID"
  in
  let values = List.map (fun row -> row.(0)) r.Sql_exec.rows in
  check_bool "case per row" true
    (values = [ V.Str "Ann"; V.Str "Smith"; V.Str "Jones" ])

let test_scalar_subquery_and_in () =
  let db = make_db () in
  let r =
    run db
      "SELECT c.CID FROM CUSTOMER c WHERE c.CID IN (SELECT o.CID FROM ORDER_T o) ORDER BY c.CID"
  in
  check_int "in-select" 2 (List.length r.Sql_exec.rows);
  let r2 =
    run db
      "SELECT (SELECT COUNT(*) AS n FROM ORDER_T o WHERE o.CID = c.CID) AS cnt FROM CUSTOMER c WHERE c.CID = 'C1'"
  in
  check_bool "correlated scalar" true ((List.hd r2.Sql_exec.rows).(0) = V.Int 2)

let test_order_by_desc_and_window () =
  let db = make_db () in
  let select =
    { (ok_exn (Sql_parser.parse_select
                 "SELECT o.OID FROM ORDER_T o ORDER BY o.OID DESC"))
      with Sql_ast.window = Some { Sql_ast.start = 2; count = Some 1 } }
  in
  let r = ok_exn (Sql_exec.query db select) in
  check_int "windowed" 1 (List.length r.Sql_exec.rows);
  check_bool "second row of desc order" true
    ((List.hd r.Sql_exec.rows).(0) = V.Int 2)

let test_select_star () =
  let db = make_db () in
  let r = run db "SELECT * FROM ORDER_T o WHERE o.OID = 1" in
  check_int "all columns" 3 (List.length r.Sql_exec.columns)

(* A star over a derived table written with a star expands to the
   derived result's columns, through index probes and scans alike. *)
let test_select_star_over_derived_star () =
  let db = make_db () in
  List.iter
    (fun indexed ->
      Database.set_use_indexes db indexed;
      let label what = Printf.sprintf "%s (indexes %b)" what indexed in
      let r =
        run db "SELECT * FROM (SELECT * FROM ORDER_T o WHERE o.OID = 1) d"
      in
      check_int (label "the orders' columns") 3 (List.length r.Sql_exec.columns);
      check_bool (label "the first order") true
        (r.Sql_exec.rows = [ [| V.Int 1; V.Str "C1"; V.Float 10. |] ]);
      let r =
        run db
          "SELECT * FROM CUSTOMER c JOIN (SELECT * FROM ORDER_T o) d ON c.CID = d.CID WHERE d.OID = 3"
      in
      check_int (label "joined columns") 7 (List.length r.Sql_exec.columns);
      check_int (label "one joined row") 1 (List.length r.Sql_exec.rows))
    [ true; false ];
  Database.set_use_indexes db true

let test_params () =
  let db = make_db () in
  let s = ok_exn (Sql_parser.parse_select "SELECT c.CID FROM CUSTOMER c WHERE c.SINCE > ?") in
  let r = ok_exn (Sql_exec.query db ~params:[| V.Int 1500 |] s) in
  check_int "two customers" 2 (List.length r.Sql_exec.rows)

let test_disjunctive_param_query () =
  (* the PP-k request shape: WHERE (c = ?) OR (c = ?) ... *)
  let db = make_db () in
  let s =
    ok_exn
      (Sql_parser.parse_select
         "SELECT o.OID FROM ORDER_T o WHERE o.CID = ? OR o.CID = ?")
  in
  let r = ok_exn (Sql_exec.query db ~params:[| V.Str "C1"; V.Str "C2" |] s) in
  check_int "all three orders" 3 (List.length r.Sql_exec.rows)

let test_string_functions_like () =
  let db = make_db () in
  let r =
    run db
      "SELECT UPPER(c.FIRST_NAME) AS u FROM CUSTOMER c WHERE c.LAST_NAME LIKE 'Jo%' AND c.FIRST_NAME IS NOT NULL"
  in
  check_bool "upper+like" true ((List.hd r.Sql_exec.rows).(0) = V.Str "ANN")

let test_derived_table () =
  let db = make_db () in
  let r =
    run db
      "SELECT t.n AS n FROM (SELECT COUNT(*) AS n FROM ORDER_T o) t"
  in
  check_bool "derived" true ((List.hd r.Sql_exec.rows).(0) = V.Int 3)

let test_having () =
  let db = make_db () in
  let r =
    run db
      "SELECT c.LAST_NAME, COUNT(*) AS n FROM CUSTOMER c GROUP BY c.LAST_NAME HAVING COUNT(*) > 1"
  in
  check_int "only Jones" 1 (List.length r.Sql_exec.rows)

let test_error_cases () =
  let db = make_db () in
  (match Sql_parser.parse "SELECT c.NOPE FROM CUSTOMER c" with
  | Ok (Sql_ast.Query s) -> ignore (err_exn (Sql_exec.query db s))
  | _ -> Alcotest.fail "parse failed");
  (match Sql_parser.parse "SELECT x.y FROM NO_TABLE x" with
  | Ok (Sql_ast.Query s) -> ignore (err_exn (Sql_exec.query db s))
  | _ -> Alcotest.fail "parse failed");
  ignore (err_exn (Sql_parser.parse "SELECT FROM"));
  ignore (err_exn (Sql_parser.parse "SELECT 1 AS x FROM T WHERE"))

(* An unqualified name two joined sources share reads the latest-joined
   one: on the null-extended row of C3, CID is ORDER_T's NULL. *)
let test_unqualified_latest_join () =
  let db = make_db () in
  let r =
    run db
      "SELECT c.CID AS k, CID AS latest FROM CUSTOMER c LEFT OUTER JOIN ORDER_T o ON c.CID = o.CID ORDER BY c.CID"
  in
  check_bool "C1 matched" true ((List.hd r.Sql_exec.rows).(1) = V.Str "C1");
  let last = List.nth r.Sql_exec.rows 3 in
  check_bool "C3 reads the null-extended order" true
    (last.(0) = V.Str "C3" && last.(1) = V.Null);
  (* a derived table null-extends with the columns its select produced *)
  let r =
    run db
      "SELECT c.CID, d.OID FROM CUSTOMER c LEFT OUTER JOIN (SELECT * FROM ORDER_T o) d ON c.CID = d.CID ORDER BY c.CID"
  in
  check_bool "derived null row" true ((List.nth r.Sql_exec.rows 3).(1) = V.Null)

(* A bad column or an unbound parameter raises only when a row is
   evaluated, with the same message as ever. *)
let test_errors_per_row () =
  let db = make_db () in
  let empty = Table.create "EMPTY_T" [ Table.column "X" Table.T_int ] in
  Database.add_table db empty;
  let query sql = Sql_exec.query db (ok_exn (Sql_parser.parse_select sql))
  in
  List.iter
    (fun (sql, message) ->
      check_int ("nothing over no rows: " ^ sql "EMPTY_T") 0
        (List.length (ok_exn (query (sql "EMPTY_T"))).Sql_exec.rows);
      check_string ("raised over rows: " ^ sql "ORDER_T") message
        (err_exn (query (sql "ORDER_T"))))
    [ ((fun t -> "SELECT t.NOPE AS v FROM " ^ t ^ " t"), "unknown column t.NOPE");
      ((fun t -> "SELECT 1 AS v FROM " ^ t ^ " t WHERE NOPE = 1"),
       "unknown column NOPE");
      ((fun t -> "SELECT ? AS v FROM " ^ t ^ " t"), "parameter ?1 not bound");
      ((fun t -> "SELECT 1 AS v FROM " ^ t ^ " t WHERE 1 = ?"),
       "parameter ?1 not bound") ]

(* A correlated subquery reads the enclosing row in its WHERE and in its
   projection. *)
let test_correlated_projection () =
  let db = make_db () in
  let r =
    run db
      "SELECT (SELECT c.FIRST_NAME || o.OID AS v FROM ORDER_T o WHERE o.CID = c.CID AND o.AMOUNT > 15) AS v FROM CUSTOMER c ORDER BY c.CID"
  in
  check_bool "per outer row" true
    (List.map (fun row -> row.(0)) r.Sql_exec.rows
    = [ V.Str "Ann2"; V.Str "Bob3"; V.Null ])

(* An UPDATE decides every row before it writes one: a SET failing on a
   later row leaves the table as it was. *)
let test_update_fails_untouched () =
  let db = make_db () in
  let amounts () =
    List.map
      (fun row -> row.(0))
      (run db "SELECT o.AMOUNT FROM ORDER_T o ORDER BY o.OID").Sql_exec.rows
  in
  let before = amounts () in
  (match Sql_parser.parse "UPDATE ORDER_T SET AMOUNT = 100 / (OID - 3)" with
  | Ok (Sql_ast.Dml d) ->
    check_string "the third row divides by zero" "division by zero"
      (err_exn (Sql_exec.execute_dml db d))
  | _ -> Alcotest.fail "parse failed");
  check_bool "untouched" true (amounts () = before)

(* A filtered scan drained through a cursor allocates at most a few
   minor words per scanned row, and nothing for a row the filter drops
   (a name-resolving interpreter took about 45). The guard counts words,
   not time, so host load cannot move it. *)
let test_scan_allocation () =
  let db = Database.create "CardDB" in
  let t =
    Table.create "CARD"
      [ Table.column "CID" Table.T_varchar; Table.column "NUM" Table.T_varchar ]
  in
  Database.add_table db t;
  let n = 2000 in
  for i = 1 to n do
    ok_exn
      (Table.insert t
         [| V.Str (Printf.sprintf "CUST%04d" (i mod 500));
            V.Str (Printf.sprintf "N%d" i) |])
  done;
  let s = ok_exn (Sql_parser.parse_select "SELECT t.NUM FROM CARD t WHERE t.CID = ?") in
  let drain () =
    let cur = ok_exn (Sql_exec.open_cursor db ~params:[| V.Str "CUST0007" |] s) in
    let rec go k =
      match ok_exn (Sql_exec.fetch_chunk cur) with [] -> k | c -> go (k + List.length c)
    in
    go 0
  in
  check_int "matches" 4 (drain ());
  let before = Gc.minor_words () in
  ignore (drain ());
  let per_row = (Gc.minor_words () -. before) /. float_of_int n in
  check_bool (Printf.sprintf "%.1f words per scanned row <= 8" per_row) true
    (per_row <= 8.)

(* The PP-k block statement on an indexed probe side: 4 blocks of 50
   customer keys over 200 customers x 5 cards, with padding cards no key
   selects. The index candidates are filtered and projected as they are
   fetched, so opening and draining all four blocks allocates a few dozen
   words per selected row. *)
let test_index_probe_allocation () =
  let db = Database.create "CardDB" in
  let t =
    Table.create "CARD"
      [ Table.column "CID" Table.T_varchar; Table.column "NUM" Table.T_varchar ]
  in
  Database.add_table db t;
  ok_exn (Table.create_index t ~name:"card_cid" [ "CID" ]);
  let customers = 200 and cards = 5 and k = 50 in
  let cid i = V.Str (Printf.sprintf "CUST%04d" i) in
  for i = 0 to (customers * cards) - 1 do
    ok_exn
      (Table.insert t [| cid (i mod customers); V.Str (Printf.sprintf "N%d" i) |])
  done;
  for i = 0 to 999 do
    ok_exn (Table.insert t [| V.Str (Printf.sprintf "PAD%04d" i); V.Str "0" |])
  done;
  let s =
    ok_exn
      (Sql_parser.parse_select
         (Printf.sprintf "SELECT t.CID, t.NUM FROM CARD t WHERE t.CID IN (%s)"
            (String.concat ", " (List.init k (fun _ -> "?")))))
  in
  let blocks =
    List.init (customers / k) (fun b -> Array.init k (fun i -> cid ((b * k) + i)))
  in
  let drain () =
    List.fold_left
      (fun n params ->
        let cur = ok_exn (Sql_exec.open_cursor db ~params s) in
        let rec go n =
          match ok_exn (Sql_exec.fetch_chunk cur) with
          | [] -> n
          | c -> go (n + List.length c)
        in
        go n)
      0 blocks
  in
  check_int "selected" (customers * cards) (drain ());
  let before = Gc.minor_words () in
  let selected = drain () in
  let per_row = (Gc.minor_words () -. before) /. float_of_int selected in
  check_bool (Printf.sprintf "%.1f words per selected row <= 40" per_row) true
    (per_row <= 40.)

(* ------------------------------------------------------------------ *)
(* DML + transactions                                                  *)

let test_dml_roundtrip () =
  let db = make_db () in
  check_int "insert" 1
    (run_dml db
       "INSERT INTO ORDER_T (OID, CID, AMOUNT) VALUES (4, 'C3', 5.5)");
  check_int "update" 2
    (run_dml db "UPDATE ORDER_T SET AMOUNT = 99.0 WHERE CID = 'C1'");
  let r = run db "SELECT o.AMOUNT FROM ORDER_T o WHERE o.OID = 1" in
  check_bool "updated" true ((List.hd r.Sql_exec.rows).(0) = V.Float 99.);
  check_int "delete" 1 (run_dml db "DELETE FROM ORDER_T WHERE OID = 4")

let test_optimistic_update_where () =
  (* update conditioned on original values, as submit generates (§6) *)
  let db = make_db () in
  check_int "matches original value" 1
    (run_dml db
       "UPDATE CUSTOMER SET LAST_NAME = 'Smith' WHERE CID = 'C1' AND LAST_NAME = 'Jones'");
  check_int "stale original misses" 0
    (run_dml db
       "UPDATE CUSTOMER SET LAST_NAME = 'Again' WHERE CID = 'C1' AND LAST_NAME = 'Jones'")

let test_transaction_rollback () =
  let db = make_db () in
  let result =
    Txn.with_transaction db (fun () ->
        ignore (run_dml db "DELETE FROM ORDER_T WHERE OID = 1");
        Error "boom")
  in
  ignore (err_exn result);
  check_int "rolled back" 3
    (List.length (run db "SELECT o.OID FROM ORDER_T o").Sql_exec.rows)

(* The protocol under [with_transaction], driven by hand: [begin_txn]
   opens the log, [rollback] undoes every logged write in reverse (an
   update, then a delete of the same row, then an insert), and [commit]
   keeps its writes, so a later transaction's rollback leaves them. *)
let test_begin_commit_rollback () =
  let db = make_db () in
  let orders () =
    (run db "SELECT o.OID, o.CID, o.AMOUNT FROM ORDER_T o ORDER BY o.OID")
      .Sql_exec.rows
  in
  let before = orders () in
  let txn = Txn.begin_txn db in
  check_int "update" 1
    (run_dml db "UPDATE ORDER_T SET AMOUNT = 5.0 WHERE OID = 1");
  check_int "delete" 1 (run_dml db "DELETE FROM ORDER_T WHERE OID = 1");
  check_int "insert" 1
    (run_dml db "INSERT INTO ORDER_T (OID, CID, AMOUNT) VALUES (9, 'C2', 1.0)");
  Txn.rollback txn;
  check_bool "rollback restores every row" true (orders () = before);
  let txn = Txn.begin_txn db in
  check_int "update" 1
    (run_dml db "UPDATE ORDER_T SET AMOUNT = 7.0 WHERE OID = 2");
  Txn.commit txn;
  let committed = orders () in
  check_bool "commit keeps the write" true (committed <> before);
  let txn = Txn.begin_txn db in
  check_int "delete" 1 (run_dml db "DELETE FROM ORDER_T WHERE OID = 2");
  Txn.rollback txn;
  check_bool "a later rollback keeps the commit" true (orders () = committed)

let test_two_phase_commit () =
  let db1 = make_db () in
  let db2 = make_db () in
  let outcome =
    Txn.two_phase_commit ~participants:[ db1; db2 ] ~work:(fun () ->
        ignore (run_dml db1 "UPDATE CUSTOMER SET LAST_NAME = 'A' WHERE CID = 'C1'");
        ignore (run_dml db2 "UPDATE CUSTOMER SET LAST_NAME = 'B' WHERE CID = 'C1'");
        Error "second source failed")
  in
  (match outcome with
  | Txn.Rolled_back _ -> ()
  | Txn.Committed -> Alcotest.fail "should have rolled back");
  let name db =
    (List.hd (run db "SELECT c.LAST_NAME FROM CUSTOMER c WHERE c.CID = 'C1'").Sql_exec.rows).(0)
  in
  check_bool "db1 restored" true (name db1 = V.Str "Jones");
  check_bool "db2 restored" true (name db2 = V.Str "Jones")

(* A rollback undoes its own rows only: a write another transaction
   commits while this one is open, on this thread or another, survives
   it. *)
let test_rollback_keeps_other_commit () =
  let variant label run_b =
    let demo = Aldsp_demo.Demo.create ~customers:4 ~orders_per_customer:1 () in
    let db = demo.Aldsp_demo.Demo.customer_db in
    let last_name cid =
      (List.hd
         (run db
            (Printf.sprintf
               "SELECT c.LAST_NAME FROM CUSTOMER c WHERE c.CID = '%s'" cid))
           .Sql_exec.rows).(0)
    in
    let a_before = last_name "CUST0001" in
    let b_commits () =
      match
        Txn.with_transaction db (fun () ->
            Ok
              (run_dml db
                 "UPDATE CUSTOMER SET LAST_NAME = 'Bwrote' WHERE CID = 'CUST0002'"))
      with
      | Ok 1 -> ()
      | _ -> Alcotest.failf "%s: B did not commit its row" label
    in
    ignore
      (err_exn
         (Txn.with_transaction db (fun () ->
              check_int (label ^ ": A writes") 1
                (run_dml db
                   "UPDATE CUSTOMER SET LAST_NAME = 'Awrote' WHERE CID = 'CUST0001'");
              run_b b_commits;
              Error "A fails")));
    check_bool (label ^ ": B's commit survives") true
      (last_name "CUST0002" = V.Str "Bwrote");
    check_bool (label ^ ": A's write undone") true
      (last_name "CUST0001" = a_before)
  in
  variant "B nested in A" (fun b -> b ());
  variant "B on another thread" (fun b -> Thread.join (Thread.create b ()))

(* Transaction oracle: random INSERT/UPDATE/DELETE sequences, keyed and
   not, with IN lists and with clauses that raise, run inside one
   transaction that commits or rolls back, with and without a scripted
   transport failure partway through. A rollback must bring back the
   state captured at begin: every table's ids and rows, the probe answer
   of every index for every key the sequences can write, and the
   statistics (bar their version, which only moves forward: cached scans
   and plans key on it). Runs with indexes and without must agree on
   contents, row counts and error strings, and every index must answer
   what a scan of its table does. *)
let oracle_oids = List.init 8 (fun k -> V.Int (k + 1))
let oracle_cids = List.map (fun c -> V.Str c) [ "C1"; "C2"; "C3"; "C4" ]

let oracle_statement rng =
  let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
  let oid () = 1 + Random.State.int rng 8 in
  let cid () = pick [ "C1"; "C2"; "C3"; "C4" ] in
  let amount () = pick [ "10.0"; "20.0"; "30.0"; "40.0" ] in
  let sp = Printf.sprintf in
  match Random.State.int rng 12 with
  | 0 ->
    sp "INSERT INTO ORDER_T (OID, CID, AMOUNT) VALUES (%d, '%s', %s)" (oid ())
      (cid ()) (amount ())
  | 1 -> sp "UPDATE ORDER_T SET AMOUNT = %s WHERE OID = %d" (amount ()) (oid ())
  | 2 ->
    sp "UPDATE ORDER_T SET CID = '%s' WHERE OID IN (%d, %d, %d)" (cid ())
      (oid ()) (oid ()) (oid ())
  | 3 -> sp "UPDATE ORDER_T SET OID = %d WHERE OID = %d" (oid ()) (oid ())
  | 4 ->
    sp "UPDATE ORDER_T SET AMOUNT = AMOUNT + 10 WHERE AMOUNT > %s" (amount ())
  | 5 -> sp "DELETE FROM ORDER_T WHERE OID = %d" (oid ())
  | 6 ->
    sp "DELETE FROM ORDER_T WHERE CID = '%s' AND AMOUNT < %s" (cid ())
      (amount ())
  | 7 -> sp "DELETE FROM ORDER_T WHERE OID IN (%d, %d)" (oid ()) (oid ())
  | 8 ->
    (* raises on a row with that OID, wherever it sits *)
    sp "UPDATE ORDER_T SET AMOUNT = 1 WHERE OID = %d AND 10 / (OID - %d) > 0"
      (oid ()) (oid ())
  | 9 -> sp "DELETE FROM ORDER_T WHERE 1 / (AMOUNT - %s) > 0" (amount ())
  | 10 ->
    sp "UPDATE CUSTOMER SET LAST_NAME = '%s' WHERE CID = '%s'"
      (pick [ "Jones"; "Smith"; "Chen" ]) (cid ())
  | _ ->
    (* the SET raises on a selected row with that OID *)
    sp "UPDATE ORDER_T SET AMOUNT = 100 / (OID - %d) WHERE CID = '%s'" (oid ())
      (cid ())

(* Every table's ids, rows, probe answers over the key domain (index,
   key column position, value, ids), and statistics with the version
   zeroed. *)
let oracle_capture db =
  List.map
    (fun name ->
      let t = ok_exn (Database.find_table db name) in
      let ids, rows = Table.scan t in
      let probes =
        List.concat_map
          (fun idx ->
            let domain =
              match Index.columns idx with
              | [ "OID" ] -> oracle_oids
              | [ "CID" ] -> oracle_cids
              | _ -> []
            in
            List.map
              (fun v ->
                ( Index.name idx,
                  (Index.positions idx).(0),
                  v,
                  Table.probe_index t idx [| v |] ))
              domain)
          (Table.indexes t)
      in
      let stats = { (Table.statistics t) with Table.stat_version = 0 } in
      (name, Array.to_list ids, Array.to_list rows, probes, stats))
    (List.sort compare (Database.table_names db))

(* Each probe answer is the ids, ascending, of the rows whose key
   column holds the value. *)
let oracle_indexes_agree captured =
  List.for_all
    (fun (_, ids, rows, probes, _) ->
      List.for_all
        (fun (_, pos, v, got) ->
          got
          = List.filter_map
              (fun (id, row) -> if V.equal row.(pos) v then Some id else None)
              (List.combine ids rows))
        probes)
    captured

let oracle_run ~use_indexes ~txn ~fault stmts =
  let db = make_db () in
  Database.set_use_indexes db use_indexes;
  let begin_state = oracle_capture db in
  let begin_versions =
    List.map (fun name -> Table.version (ok_exn (Database.find_table db name)))
      (List.sort compare (Database.table_names db))
  in
  Option.iter
    (fun p ->
      Aldsp_concurrency.Fault_schedule.(
        set db.Database.faults (List.init p (fun _ -> Proceed) @ [ Fail ])))
    fault;
  let outcomes () = List.map (Sql_exec.execute_dml db) stmts in
  let outcomes =
    match txn with
    | None -> outcomes ()
    | Some commit ->
      let result = ref [] in
      ignore
        (Txn.with_transaction db (fun () ->
             result := outcomes ();
             if commit then Ok () else Error "abort"));
      !result
  in
  Aldsp_concurrency.Fault_schedule.set db.Database.faults [];
  let versions_forward =
    List.for_all2
      (fun name v -> Table.version (ok_exn (Database.find_table db name)) >= v)
      (List.sort compare (Database.table_names db))
      begin_versions
  in
  (begin_state, outcomes, oracle_capture db, versions_forward)

let test_transaction_oracle () =
  for seed = 1 to 60 do
    let rng = Random.State.make [| seed |] in
    let sqls =
      List.init (1 + Random.State.int rng 10) (fun _ -> oracle_statement rng)
    in
    let stmts =
      List.map
        (fun sql ->
          match ok_exn (Sql_parser.parse sql) with
          | Sql_ast.Dml d -> d
          | Sql_ast.Query _ -> Alcotest.fail "expected DML")
        sqls
    in
    let fail fmt =
      Printf.ksprintf
        (fun what ->
          Alcotest.failf "seed %d: %s\n  %s" seed what
            (String.concat ";\n  " sqls))
        fmt
    in
    List.iter
      (fun fault ->
        let run ~use_indexes txn = oracle_run ~use_indexes ~txn ~fault stmts in
        let fault_label =
          match fault with
          | None -> "no fault"
          | Some p -> Printf.sprintf "fault at %d" p
        in
        (* the reference: the same statements outside any transaction *)
        let _, plain_outcomes, plain_end, _ = run ~use_indexes:false None in
        List.iter
          (fun use_indexes ->
            let mode = Printf.sprintf "%s, indexes %b" fault_label use_indexes in
            let _, outcomes, end_state, _ = run ~use_indexes (Some true) in
            if outcomes <> plain_outcomes then
              fail "%s: committed outcomes differ" mode;
            if end_state <> plain_end then fail "%s: committed contents differ" mode;
            if not (oracle_indexes_agree end_state) then
              fail "%s: an index disagrees with its table after commit" mode;
            let begin_state, outcomes, end_state, forward =
              run ~use_indexes (Some false)
            in
            if outcomes <> plain_outcomes then
              fail "%s: rolled-back outcomes differ" mode;
            if end_state <> begin_state then
              fail "%s: rollback did not restore the begin state" mode;
            if not forward then fail "%s: a table version went backwards" mode)
          [ true; false ])
      [ None; Some (Random.State.int rng (List.length stmts)) ]
  done

let test_stats_accounting () =
  let db = make_db () in
  Database.reset_stats db;
  ignore (run db "SELECT c.CID FROM CUSTOMER c");
  ignore (run db "SELECT o.OID FROM ORDER_T o");
  check_int "two roundtrips" 2 db.Database.stats.Database.statements;
  check_int "rows shipped" 6 db.Database.stats.Database.rows_shipped

(* ------------------------------------------------------------------ *)
(* Dialect printing                                                    *)

let parse_select_exn s = ok_exn (Sql_parser.parse_select s)

let test_print_simple_select_paper_shape () =
  (* Table 1(a) *)
  let s =
    parse_select_exn
      "SELECT t1.FIRST_NAME AS c1 FROM CUSTOMER t1 WHERE t1.CID = 'CUST001'"
  in
  check_string "pattern (a)"
    "SELECT t1.\"FIRST_NAME\" AS c1 FROM \"CUSTOMER\" t1 WHERE t1.\"CID\" = 'CUST001'"
    (Sql_print.select_to_string Database.Oracle s)

let test_print_outer_join () =
  let s =
    parse_select_exn
      "SELECT t1.CID AS c1, t2.OID AS c2 FROM CUSTOMER t1 LEFT OUTER JOIN ORDER_T t2 ON t1.CID = t2.CID"
  in
  check_string "pattern (c)"
    "SELECT t1.\"CID\" AS c1, t2.\"OID\" AS c2 FROM \"CUSTOMER\" t1 LEFT OUTER JOIN \"ORDER_T\" t2 ON t1.\"CID\" = t2.\"CID\""
    (Sql_print.select_to_string Database.Oracle s)

let test_print_case_group () =
  let s =
    parse_select_exn
      "SELECT t1.LAST_NAME AS c1, COUNT(*) AS c2 FROM CUSTOMER t1 GROUP BY t1.LAST_NAME"
  in
  check_string "pattern (e)"
    "SELECT t1.\"LAST_NAME\" AS c1, COUNT(*) AS c2 FROM \"CUSTOMER\" t1 GROUP BY t1.\"LAST_NAME\""
    (Sql_print.select_to_string Database.Db2 s)

let test_print_window_dialects () =
  let base =
    { (parse_select_exn
         "SELECT t1.CID AS c1 FROM CUSTOMER t1 ORDER BY t1.CID")
      with Sql_ast.window = Some { Sql_ast.start = 10; count = Some 10 } }
  in
  let oracle = Sql_print.select_to_string Database.Oracle base in
  check_bool "oracle uses ROWNUM wrapper" true
    (let re = Str.regexp_string "ROWNUM" in
     try ignore (Str.search_forward re oracle 0); true with Not_found -> false);
  (* SQL92 cannot push a window *)
  (try
     ignore (Sql_print.select_to_string Database.Generic_sql92 base);
     Alcotest.fail "SQL92 accepted a window"
   with Sql_print.Unsupported _ -> ());
  (* top-1 page on SQL Server uses TOP *)
  let top =
    { base with Sql_ast.window = Some { Sql_ast.start = 1; count = Some 5 } }
  in
  let mssql = Sql_print.select_to_string Database.Sql_server top in
  check_bool "TOP" true
    (try ignore (Str.search_forward (Str.regexp_string "TOP 5") mssql 0); true
     with Not_found -> false)

let test_print_concat_operator () =
  let s = ok_exn (Sql_parser.parse_expr "a.X || a.Y") in
  check_string "oracle ||" "a.\"X\" || a.\"Y\""
    (Sql_print.expr_to_string Database.Oracle s);
  check_string "mssql +" "a.\"X\" + a.\"Y\""
    (Sql_print.expr_to_string Database.Sql_server s)

let test_print_parse_roundtrip () =
  (* printing then reparsing yields an equivalent query (executes same) *)
  let db = make_db () in
  let sqls =
    [ "SELECT c.CID, o.OID FROM CUSTOMER c JOIN ORDER_T o ON c.CID = o.CID WHERE o.AMOUNT > 15.0 ORDER BY o.OID DESC";
      "SELECT c.LAST_NAME, COUNT(*) AS n FROM CUSTOMER c GROUP BY c.LAST_NAME HAVING COUNT(*) > 0";
      "SELECT DISTINCT c.LAST_NAME FROM CUSTOMER c" ]
  in
  List.iter
    (fun sql ->
      let s = parse_select_exn sql in
      let printed = Sql_print.select_to_string Database.Generic_sql92 s in
      let s2 = parse_select_exn printed in
      let r1 = ok_exn (Sql_exec.query db s) in
      let r2 = ok_exn (Sql_exec.query db s2) in
      check_bool ("roundtrip: " ^ sql) true (r1.Sql_exec.rows = r2.Sql_exec.rows))
    sqls

(* ------------------------------------------------------------------ *)
(* Indexing and access-path selection                                  *)

let contains hay needle =
  try
    ignore (Str.search_forward (Str.regexp_string needle) hay 0);
    true
  with Not_found -> false

let test_auto_indexes () =
  let db = make_db () in
  let customer = ok_exn (Database.find_table db "CUSTOMER") in
  let order_ = ok_exn (Database.find_table db "ORDER_T") in
  check_bool "customer pk index" true (Table.pk_index customer <> None);
  check_bool "order fk index on CID" true
    (Table.find_index order_ [ "CID" ] <> None);
  check_int "customer: pk only" 1 (List.length (Table.indexes customer));
  check_int "order: pk + fk" 2 (List.length (Table.indexes order_))

let test_create_index () =
  let db = make_db () in
  let customer = ok_exn (Database.find_table db "CUSTOMER") in
  ok_exn (Table.create_index customer ~name:"cust_name" [ "LAST_NAME" ]);
  check_bool "registered" true
    (Table.find_index customer [ "LAST_NAME" ] <> None);
  ignore (err_exn (Table.create_index customer ~name:"cust_name" [ "CID" ]));
  ignore (err_exn (Table.create_index customer ~name:"bad" [ "NOPE" ]));
  Database.reset_stats db;
  let r = run db "SELECT c.CID FROM CUSTOMER c WHERE c.LAST_NAME = 'Jones'" in
  check_int "two Joneses" 2 (List.length r.Sql_exec.rows);
  check_int "served by the new index" 0
    db.Database.stats.Database.full_scans

let test_index_access_path () =
  let db = make_db () in
  Database.reset_stats db;
  let r = run db "SELECT c.FIRST_NAME FROM CUSTOMER c WHERE c.CID = 'C1'" in
  check_bool "value" true ((List.hd r.Sql_exec.rows).(0) = V.Str "Ann");
  check_int "no full scan" 0 db.Database.stats.Database.full_scans;
  check_int "one probe" 1 db.Database.stats.Database.index_lookups;
  check_bool "explain shows the probe" true
    (contains (Database.explain_last db) "index probe");
  Database.set_use_indexes db false;
  Database.reset_stats db;
  let r2 = run db "SELECT c.FIRST_NAME FROM CUSTOMER c WHERE c.CID = 'C1'" in
  Database.set_use_indexes db true;
  check_bool "same rows either way" true (r.Sql_exec.rows = r2.Sql_exec.rows);
  check_int "scan path scans" 1 db.Database.stats.Database.full_scans;
  check_bool "explain shows the scan" true
    (contains (Database.explain_last db) "scan CUSTOMER")

(* A PP-k block over a one-column key is sent as an IN list. Against the
   OR chain it replaces, over the same parameters (a duplicate key, a
   NULL key, a key with no match) and with indexes on and off, it returns
   the same columns and rows in the same order and leaves the same
   backend plan lines. *)
let test_in_list_matches_or_chain () =
  let db = Database.create ~vendor:Database.Sql_server "CardDB" in
  let card =
    Table.create ~primary_key:[ "CCID" ] "CREDIT_CARD"
      [ Table.column ~nullable:false "CCID" Table.T_int;
        Table.column "CID" Table.T_varchar;
        Table.column "NUM" Table.T_varchar ]
  in
  Database.add_table db card;
  ok_exn (Table.create_index card ~name:"card_cid" [ "CID" ]);
  List.iteri
    (fun i cid ->
      ok_exn
        (Table.insert card
           [| V.Int i; cid; V.Str (Printf.sprintf "N%d" i) |]))
    [ V.Str "C2"; V.Str "C1"; V.Null; V.Str "C2"; V.Str "C3"; V.Str "C1" ];
  let base =
    ok_exn
      (Sql_parser.parse_select
         "SELECT t.CCID, t.CID, t.NUM FROM CREDIT_CARD t WHERE t.CID = ?")
  in
  let in_list =
    ok_exn
      (Sql_parser.parse_select
         "SELECT t.CCID, t.CID, t.NUM FROM CREDIT_CARD t \
          WHERE t.CID IN (?, ?, ?, ?)")
  in
  let or_chain =
    ok_exn
      (Sql_parser.parse_select
         "SELECT t.CCID, t.CID, t.NUM FROM CREDIT_CARD t \
          WHERE t.CID = ? OR t.CID = ? OR t.CID = ? OR t.CID = ?")
  in
  check_bool "a block of four is the IN list" true
    (Aldsp_core.Eval.disjunctive_select base 1 4 = in_list);
  check_bool "a block of one stays col = ?" true
    (Aldsp_core.Eval.disjunctive_select base 1 1 = base);
  let params = [| V.Str "C1"; V.Str "C1"; V.Null; V.Str "C9" |] in
  List.iter
    (fun indexed ->
      Database.set_use_indexes db indexed;
      let run s =
        let r = ok_exn (Sql_exec.query db ~params s) in
        (r, Database.explain_last db)
      in
      let r_in, plan_in = run in_list in
      let r_or, plan_or = run or_chain in
      let label what = Printf.sprintf "%s (indexes %b)" what indexed in
      check (Alcotest.list Alcotest.string) (label "columns")
        r_or.Sql_exec.columns r_in.Sql_exec.columns;
      check_int (label "rows") 2 (List.length r_in.Sql_exec.rows);
      check_bool (label "same rows in the same order") true
        (r_in.Sql_exec.rows = r_or.Sql_exec.rows);
      check_string (label "same plan lines") plan_or plan_in;
      check_bool (label "access path") true
        (contains plan_in (if indexed then "index probe" else "scan")))
    [ true; false ];
  Database.set_use_indexes db true

(* A statement-constant IN list is evaluated through a hashed key set.
   Every case must keep the linear semantics: the same rows in the same
   order for [IN] (TRUE) and [NOT (.. IN ..)] (FALSE), so NULL rows stay
   out of both, with indexes on (index probe, then the set) and off (scan,
   then the set). The reference evaluates the items one by one. *)
let test_in_set_matches_linear () =
  let db = Database.create "SetDB" in
  let t =
    Table.create ~primary_key:[ "ID" ] "T"
      [ Table.column ~nullable:false "ID" Table.T_int;
        Table.column "N" Table.T_decimal;
        Table.column "TS" Table.T_timestamp;
        Table.column "S" Table.T_varchar ]
  in
  Database.add_table db t;
  List.iter
    (fun c -> ok_exn (Table.create_index t ~name:("ix_" ^ c) [ c ]))
    [ "N"; "TS"; "S" ];
  let big = 1 lsl 53 in
  let ns =
    [ V.Int 1; V.Float 1.; V.Float 2.5; V.Int big; V.Int (big + 1);
      V.Float (float_of_int big); V.Float Float.nan; V.Float (-0.);
      V.Float 0.; V.Int 0; V.Null; V.Int 7; V.Int 150; V.Float 150.5 ]
  in
  let tss = [ V.Timestamp 1.; V.Int 2; V.Null; V.Timestamp 7. ] in
  let ss = [ V.Str "a"; V.Str "b"; V.Str "A"; V.Str ""; V.Null; V.Str "1" ] in
  let nth l i = List.nth l (i mod List.length l) in
  let rows = 3 * List.length ns in
  for i = 0 to rows - 1 do
    ok_exn (Table.insert t [| V.Int i; nth ns i; nth tss i; nth ss i |])
  done;
  let column = function "N" -> 1 | "TS" -> 2 | _ -> 3 in
  let linear v items =
    if V.is_null v then V.Unknown
    else if
      List.exists (fun x -> V.truth_of_comparison (( = ) 0) v x = V.True) items
    then V.True
    else if List.exists V.is_null items then V.Unknown
    else V.False
  in
  let lit v = Sql_ast.Lit v in
  let cases =
    [ ( "mixed numerics",
        "N",
        [ V.Int 1; V.Float 2.5; V.Timestamp 7.; V.Int 0 ] );
      ("2^53", "N", [ V.Int big ]);
      ("2^53+1", "N", [ V.Int (big + 1) ]);
      ("float 2^53", "N", [ V.Float (float_of_int big) ]);
      ("NaN", "N", [ V.Float Float.nan ]);
      ("-0.0", "N", [ V.Float (-0.) ]);
      ("timestamps", "TS", [ V.Int 2; V.Timestamp 1.; V.Float 7. ]);
      ("strings", "S", [ V.Str "a"; V.Str "" ]);
      ("duplicates", "S", [ V.Str "b"; V.Str "b"; V.Str "a"; V.Str "b" ]);
      ("NULL item, match", "S", [ V.Str "a"; V.Null ]);
      ("NULL item, no match", "S", [ V.Str "zz"; V.Null ]);
      ("NULL probe value", "S", [ V.Str "A" ]);
      ("other class", "S", [ V.Int 1; V.Bool true ]);
      ( "200 items",
        "N",
        List.init 200 (fun i ->
            if i mod 2 = 0 then V.Int i else V.Float (float_of_int i +. 0.5)) )
    ]
  in
  let ids r = List.map (fun row -> row.(0)) r.Sql_exec.rows in
  let all_rows =
    List.init rows (fun i ->
        match Table.get_row t i with
        | Some row -> row
        | None -> Alcotest.failf "row %d missing" i)
  in
  List.iter
    (fun (name, col, values) ->
      let expect truth =
        List.filter_map
          (fun row ->
            if linear row.(column col) values = truth then Some row.(0)
            else None)
          all_rows
      in
      (* the same list three ways: literals, parameters, and half each *)
      let n = List.length values in
      let params = Array.of_list values in
      let shapes =
        [ ("literals", List.map lit values);
          ("params", List.init n (fun i -> Sql_ast.Param (i + 1)));
          ( "mixed",
            List.mapi
              (fun i v -> if i mod 2 = 0 then lit v else Sql_ast.Param (i + 1))
              values ) ]
      in
      List.iter
        (fun (shape, items) ->
          let select where =
            Sql_ast.select ~where
              ~projections:[ (Sql_ast.col "t" "ID", "ID") ]
              (Sql_ast.table ~alias:"t" "T")
          in
          let pred = Sql_ast.In_list (Sql_ast.col "t" col, items) in
          List.iter
            (fun indexed ->
              Database.set_use_indexes db indexed;
              let label what =
                Printf.sprintf "%s, %s, indexes %b: %s" name shape indexed what
              in
              let query where =
                ok_exn (Sql_exec.query db ~params (select where))
              in
              let check_ids what expected got =
                check_bool (label what) true (expected = got)
              in
              check_ids "TRUE rows" (expect V.True) (ids (query pred));
              if indexed then
                check_bool (label "index probe") true
                  (contains (Database.explain_last db) "index probe");
              check_ids "FALSE rows" (expect V.False)
                (ids (query (Sql_ast.Not pred))))
            [ true; false ])
        shapes)
    cases;
  Database.set_use_indexes db true

let test_join_algorithms () =
  let db = make_db () in
  (* right side carries the fk index on CID: index nested loop *)
  Database.reset_stats db;
  let r =
    run db "SELECT c.CID, o.OID FROM CUSTOMER c JOIN ORDER_T o ON c.CID = o.CID"
  in
  check_int "pairs" 3 (List.length r.Sql_exec.rows);
  check_int "index-nl join" 1 db.Database.stats.Database.index_joins;
  check_int "no plain nested loop" 0 db.Database.stats.Database.nl_joins;
  (* equi-join on an unindexed right column: hash join *)
  Database.reset_stats db;
  let r2 =
    run db
      "SELECT c.CID, d.CID FROM CUSTOMER c JOIN CUSTOMER d ON c.LAST_NAME = d.LAST_NAME"
  in
  check_int "name pairs" 5 (List.length r2.Sql_exec.rows);
  check_int "hash join" 1 db.Database.stats.Database.hash_joins;
  (* non-equality ON condition: nested loop remains *)
  Database.reset_stats db;
  let r3 =
    run db "SELECT c.CID, o.OID FROM CUSTOMER c JOIN ORDER_T o ON c.CID <> o.CID"
  in
  check_int "anti pairs" 6 (List.length r3.Sql_exec.rows);
  check_int "nested loop" 1 db.Database.stats.Database.nl_joins

let test_insert_many_atomicity () =
  let t =
    Table.create ~primary_key:[ "K" ] "T"
      [ Table.column ~nullable:false "K" Table.T_int ]
  in
  check_int "bulk ok" 3
    (ok_exn (Table.insert_many t [ [| V.Int 1 |]; [| V.Int 2 |]; [| V.Int 3 |] ]));
  ignore
    (err_exn (Table.insert_many t [ [| V.Int 4 |]; [| V.Int 2 |]; [| V.Int 5 |] ]));
  check_int "failed batch fully unwound" 3 (Table.row_count t);
  (* the unwound key 4 is gone from the pk index too *)
  check_int "re-insert unwound key" 1
    (ok_exn (Table.insert_many t [ [| V.Int 4 |] ]))

let test_rollback_rebuilds_indexes () =
  let db = make_db () in
  ignore
    (err_exn
       (Txn.with_transaction db (fun () ->
            ignore (run_dml db "DELETE FROM ORDER_T WHERE CID = 'C1'");
            ignore
              (run_dml db
                 "INSERT INTO ORDER_T (OID, CID, AMOUNT) VALUES (9, 'C3', 1.0)");
            Error "boom")));
  Database.reset_stats db;
  let r = run db "SELECT o.OID FROM ORDER_T o WHERE o.CID = 'C1'" in
  check_int "deletes rolled back, via index" 2 (List.length r.Sql_exec.rows);
  check_int "no full scan" 0 db.Database.stats.Database.full_scans;
  let r9 = run db "SELECT o.OID FROM ORDER_T o WHERE o.OID = 9" in
  check_int "insert rolled back" 0 (List.length r9.Sql_exec.rows)

let test_window_early_exit () =
  let db = make_db () in
  let with_window sql start count =
    { (ok_exn (Sql_parser.parse_select sql)) with
      Sql_ast.window = Some { Sql_ast.start; count } }
  in
  let rows s = (ok_exn (Sql_exec.query db s)).Sql_exec.rows in
  let oids = with_window "SELECT o.OID FROM ORDER_T o ORDER BY o.OID" 1 (Some 2) in
  check_bool "first two" true
    (List.map (fun row -> row.(0)) (rows oids) = [ V.Int 1; V.Int 2 ]);
  let distinct_page =
    with_window "SELECT DISTINCT c.LAST_NAME FROM CUSTOMER c ORDER BY c.CID" 2
      (Some 1)
  in
  check_bool "second distinct name" true
    (List.map (fun row -> row.(0)) (rows distinct_page) = [ V.Str "Smith" ]);
  check_int "page past the end" 0
    (List.length (rows (with_window "SELECT c.CID FROM CUSTOMER c" 5 (Some 3))));
  check_int "zero-row page" 0
    (List.length (rows (with_window "SELECT c.CID FROM CUSTOMER c" 1 (Some 0))));
  let oids_from start count =
    List.map (fun row -> row.(0))
      (rows (with_window "SELECT o.OID FROM ORDER_T o ORDER BY o.OID" start count))
  in
  (* a start below 1 counts positions from 1 all the same *)
  check_bool "start 0" true (oids_from 0 (Some 2) = [ V.Int 1 ]);
  check_bool "start -1" true (oids_from (-1) (Some 4) = [ V.Int 1; V.Int 2 ]);
  check_bool "start 0, no count" true
    (oids_from 0 None = [ V.Int 1; V.Int 2; V.Int 3 ]);
  check_bool "start -2, count 2" true (oids_from (-2) (Some 2) = []);
  (* [100 / (OID - 3)] raises on the third order only, and
     [1 / (OID - 1)] on the first: no row after the window's last one is
     projected, with and without DISTINCT and ORDER BY *)
  List.iter
    (fun (sql, start, count, expected) ->
      check_int sql expected (List.length (rows (with_window sql start count))))
    [ ("SELECT 100 / (o.OID - 3) FROM ORDER_T o ORDER BY o.OID", 1, Some 2, 2);
      ("SELECT 100 / (o.OID - 3) FROM ORDER_T o", 2, Some 1, 1);
      ("SELECT DISTINCT 100 / (o.OID - 3) FROM ORDER_T o", 1, Some 2, 2);
      ("SELECT DISTINCT o.CID, 100 / (o.OID - 3) FROM ORDER_T o ORDER BY o.OID",
       0, Some 3, 2);
      ("SELECT 1 / (o.OID - 1) FROM ORDER_T o ORDER BY o.OID", 1, Some 0, 0);
      ("SELECT DISTINCT 1 / (o.OID - 1) FROM ORDER_T o", 3, Some 0, 0) ];
  (* DISTINCT streams too: its first chunk comes before the failing row *)
  let cur =
    ok_exn
      (Sql_exec.open_cursor db
         (ok_exn
            (Sql_parser.parse_select
               "SELECT DISTINCT 100 / (o.OID - 3) FROM ORDER_T o ORDER BY o.OID")))
  in
  check_bool "first distinct chunk" true
    (Sql_exec.fetch_chunk ~rows:2 cur = Ok [ [| V.Int (-50) |]; [| V.Int (-100) |] ]);
  check_bool "then the error" true
    (Sql_exec.fetch_chunk ~rows:2 cur = Error "division by zero")

(* Property (fixed derivation from the generated int): index and scan
   access paths agree byte-for-byte on random tables with NULL and
   duplicate keys, across point, IN-list, OR-of-equalities (the PP-k
   probe shape) and join queries; on string keys, on integer keys probed
   with their float image, and on 2^53 and 2^53 + 1, which share a float
   image and so an index bucket that the candidate re-check splits; on a
   50-parameter IN list with duplicate and NULL parameters (a PP-k block);
   on DISTINCT, GROUP BY, COUNT(DISTINCT) and windows over a column that
   holds NULL, 1 and 1.0, 2^53, 2^53 + 1 and the float image they share,
   and NaN; and, read chunk by chunk through a cursor, on a projection
   that raises on a later row, with and without DISTINCT: the rows before
   the error and the error agree. DISTINCT, GROUP BY and the window also
   agree with the list-scan rules: a row is kept when no earlier kept row
   equals it, a row joins the first group whose key equals its own, and
   the window keeps positions [max 1 start] to [start + count - 1]. *)
let prop_index_scan_agree =
  QCheck.Test.make ~name:"index and scan access paths agree" ~count:200
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let st = Random.State.make [| 0xA11CE; seed |] in
      let db = Database.create "fuzzdb" in
      let t1 =
        Table.create "T1"
          [ Table.column "K" Table.T_int;
            Table.column "S" Table.T_varchar;
            Table.column "F" Table.T_decimal ]
      in
      let t2 =
        Table.create "T2"
          [ Table.column "K" Table.T_int; Table.column "V" Table.T_int ]
      in
      List.iter
        (fun (t, name, col) ->
          match Table.create_index t ~name [ col ] with
          | Ok () -> ()
          | Error e -> failwith e)
        [ (t1, "t1_k", "K"); (t1, "t1_s", "S"); (t2, "t2_k", "K") ];
      Database.add_table db t1;
      Database.add_table db t2;
      let big = 1 lsl 53 in
      let rand_key () =
        match Random.State.int st 12 with
        | 0 -> V.Null
        | 1 -> V.Int big
        | 2 -> V.Int (big + 1)
        | _ -> V.Int (Random.State.int st 6)
      in
      (* a probe value: a key, or the float image of one *)
      let rand_probe () =
        match rand_key () with
        | V.Int k when Random.State.int st 4 = 0 -> V.Float (float_of_int k)
        | v -> v
      in
      let rand_str () = V.Str (String.make 1 (Char.chr (97 + Random.State.int st 5))) in
      (* values that V.equal relates but not transitively, and NaN *)
      let rand_num () =
        match Random.State.int st 8 with
        | 0 -> V.Null
        | 1 -> V.Int 1
        | 2 -> V.Float 1.
        | 3 -> V.Int big
        | 4 -> V.Int (big + 1)
        | 5 -> V.Float (float_of_int big)
        | 6 -> V.Float Float.nan
        | _ -> V.Int (Random.State.int st 3)
      in
      for _ = 1 to 5 + Random.State.int st 40 do
        match
          Table.insert t1
            [| rand_key ();
               V.Str (String.make 1 (Char.chr (97 + Random.State.int st 4)));
               rand_num () |]
        with
        | Ok () -> ()
        | Error e -> failwith e
      done;
      for _ = 1 to Random.State.int st 20 do
        match
          Table.insert t2 [| rand_key (); V.Int (Random.State.int st 10) |]
        with
        | Ok () -> ()
        | Error e -> failwith e
      done;
      let block = String.concat ", " (List.init 50 (fun _ -> "?")) in
      let rand_window () =
        { Sql_ast.start = Random.State.int st 5 - 1;
          count =
            (match Random.State.int st 5 with
            | 4 -> None
            | n -> Some n) }
      in
      let parse sql =
        match Sql_parser.parse_select sql with
        | Ok s -> s
        | Error e -> failwith e
      in
      let windowed sql = { (parse sql) with Sql_ast.window = Some (rand_window ()) } in
      let queries =
        [ ("SELECT t.K, t.S FROM T1 t WHERE t.K = ?", [| rand_probe () |]);
          ( "SELECT t.K, t.S FROM T1 t WHERE t.K = ? OR t.K = ?",
            [| rand_probe (); rand_probe () |] );
          ("SELECT t.S FROM T1 t WHERE t.K IN (0, 1, ?)", [| rand_probe () |]);
          ("SELECT t.K FROM T1 t WHERE t.K = ? OR t.K IS NULL", [| rand_probe () |]);
          ("SELECT t.K, t.S FROM T1 t WHERE t.S = ?", [| rand_str () |]);
          ( "SELECT t.K FROM T1 t WHERE t.S IN (?, ?, 'a')",
            [| rand_str (); rand_str () |] );
          ( "SELECT t.K, t.S FROM T1 t WHERE t.K IN (" ^ block ^ ")",
            Array.init 50 (fun _ -> rand_probe ()) );
          ("SELECT a.K, a.S, b.V FROM T1 a JOIN T2 b ON a.K = b.K", [||]);
          ("SELECT a.K, b.V FROM T1 a LEFT OUTER JOIN T2 b ON a.K = b.K", [||]);
          ("SELECT DISTINCT t.F FROM T1 t WHERE t.K IN (0, 1, ?)", [| rand_probe () |]);
          ( "SELECT t.F, COUNT(*), MIN(t.K) FROM T1 t WHERE t.K IN (0, 1, 2, ?) GROUP BY t.F",
            [| rand_probe () |] );
          ( "SELECT t.K, COUNT(DISTINCT t.F) FROM T1 t WHERE t.K IN (0, 1, ?) GROUP BY t.K",
            [| rand_probe () |] );
          ( "SELECT a.F, b.V FROM T1 a JOIN T2 b ON a.K = b.K GROUP BY a.F, b.V",
            [||] ) ]
        |> List.map (fun (sql, params) -> (parse sql, params))
      in
      let queries =
        queries
        @ [ (windowed "SELECT DISTINCT t.F, t.S FROM T1 t WHERE t.K IN (0, 1, ?)",
             [| rand_probe () |]);
            (windowed "SELECT t.F FROM T1 t WHERE t.K = ? OR t.K = ?",
             [| rand_probe (); rand_probe () |]);
            (windowed "SELECT DISTINCT t.F FROM T1 t ORDER BY t.K DESC", [||]) ]
      in
      (* NaN is not [=] to itself *)
      let same a b = compare a b = 0 in
      let both run =
        Database.set_use_indexes db true;
        let indexed = run () in
        Database.set_use_indexes db false;
        let scanned = run () in
        Database.set_use_indexes db true;
        same indexed scanned
      in
      let agree (s, params) =
        both (fun () ->
            match Sql_exec.query db ~params s with
            | Ok r -> Ok r.Sql_exec.rows
            | Error e -> Error e)
      in
      (* [100 / (V - 5)] raises on the first row with V = 5 *)
      let raising = parse "SELECT t.K, 100 / (t.V - 5) FROM T2 t WHERE t.K IN (?, ?, ?)" in
      let params = Array.init 3 (fun _ -> rand_probe ()) in
      let chunked s () =
        match Sql_exec.open_cursor db ~params s with
        | Error e -> ([], Some e)
        | Ok cur ->
          let rec go acc =
            match Sql_exec.fetch_chunk ~rows:2 cur with
            | Ok [] -> (List.rev acc, None)
            | Ok chunk -> go (List.rev_append chunk acc)
            | Error e -> (List.rev acc, Some e)
          in
          go []
      in
      let rows s =
        match Sql_exec.query db s with
        | Ok r -> r.Sql_exec.rows
        | Error e -> failwith e
      in
      let plain = rows (parse "SELECT t.F, t.S FROM T1 t") in
      let kept =
        List.rev
          (List.fold_left
             (fun acc r ->
               if List.exists (fun k -> Array.for_all2 V.equal k r) acc then acc
               else r :: acc)
             [] plain)
      in
      let groups =
        List.rev
          (List.fold_left
             (fun acc r ->
               match
                 List.find_opt (fun (k, _) -> V.equal k r.(0)) (List.rev acc)
               with
               | Some (_, n) ->
                 incr n;
                 acc
               | None -> (r.(0), ref 1) :: acc)
             [] plain)
      in
      let ({ Sql_ast.start; count } as window) = rand_window () in
      let paged =
        List.filteri
          (fun i _ ->
            i + 1 >= start
            && match count with Some n -> i + 1 <= start + n - 1 | None -> true)
          kept
      in
      let distinct_sql = "SELECT DISTINCT t.F, t.S FROM T1 t" in
      let raising_distinct =
        parse "SELECT DISTINCT t.K, 100 / (t.V - 5) FROM T2 t WHERE t.K IN (?, ?, ?)"
      in
      List.for_all agree queries
      && both (chunked raising)
      && both (chunked raising_distinct)
      && same (rows (parse distinct_sql)) kept
      && same (rows { (parse distinct_sql) with Sql_ast.window = Some window }) paged
      && same
           (rows (parse "SELECT t.F, COUNT(*) FROM T1 t GROUP BY t.F"))
           (List.map (fun (k, n) -> [| k; V.Int !n |]) groups))

(* Property (fixed derivation from the generated int): the incrementally
   maintained planner statistics agree with a from-scratch recomputation
   over the live rows after any interleaving of inserts, updates, deletes
   and transactions (committed and rolled back): exact row count, exact
   live NDV on the indexed column, exact numeric min/max, and NDV never
   exceeding the row count. *)
let prop_statistics_maintained =
  QCheck.Test.make ~name:"statistics survive DML and rollback" ~count:150
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let st = Random.State.make [| 0x57A7; seed |] in
      let db = Database.create "statsdb" in
      let t =
        Table.create "T"
          [ Table.column "K" Table.T_int; Table.column "V" Table.T_int ]
      in
      (match Table.create_index t ~name:"t_k" [ "K" ] with
      | Ok () -> ()
      | Error e -> failwith e);
      Database.add_table db t;
      let rand_key () =
        if Random.State.int st 8 = 0 then V.Null
        else V.Int (Random.State.int st 10)
      in
      let live_ids () = List.rev (Array.to_list (fst (Table.scan t))) in
      let random_op () =
        match Random.State.int st 4 with
        | 0 | 1 ->
          ignore
            (Table.insert t [| rand_key (); V.Int (Random.State.int st 100) |])
        | 2 -> (
          match live_ids () with
          | [] -> ()
          | ids ->
            Table.delete_row t
              (List.nth ids (Random.State.int st (List.length ids))))
        | _ -> (
          match live_ids () with
          | [] -> ()
          | ids ->
            Table.update_row t
              (List.nth ids (Random.State.int st (List.length ids)))
              [| rand_key (); V.Int (Random.State.int st 100) |])
      in
      let consistent () =
        let rows = Array.to_list (snd (Table.scan t)) in
        let keys =
          List.filter_map
            (fun row -> match row.(0) with V.Int k -> Some k | _ -> None)
            rows
        in
        (* NULL occupies its own key bucket in the index, so it counts as
           one distinct key when any live row has a NULL key *)
        let has_null =
          List.exists (fun row -> row.(0) = V.Null) rows
        in
        let distinct =
          List.length (List.sort_uniq compare keys)
          + if has_null then 1 else 0
        in
        let stats = Table.statistics t in
        let cs =
          List.find
            (fun cs -> cs.Table.cs_columns = [ "K" ])
            stats.Table.stat_columns
        in
        let bounds_ok =
          cs.Table.cs_distinct >= 0
          && cs.Table.cs_distinct <= stats.Table.stat_rows
        in
        let range_ok =
          match (cs.Table.cs_min, cs.Table.cs_max, keys) with
          | None, None, [] -> true
          | Some lo, Some hi, _ :: _ ->
            lo = float_of_int (List.fold_left min max_int keys)
            && hi = float_of_int (List.fold_left max min_int keys)
          | _ -> false
        in
        stats.Table.stat_rows = List.length rows
        && cs.Table.cs_distinct = distinct
        && bounds_ok && range_ok
      in
      let steps = 10 + Random.State.int st 30 in
      let ok = ref true in
      for _ = 1 to steps do
        (match Random.State.int st 5 with
        | 0 ->
          (* a transaction that makes a few changes then aborts: the
             statistics must roll back with the data *)
          let rows_before = (Table.statistics t).Table.stat_rows in
          ignore
            (Txn.with_transaction db (fun () ->
                 for _ = 1 to 1 + Random.State.int st 4 do
                   random_op ()
                 done;
                 Error "abort"));
          ok := !ok && (Table.statistics t).Table.stat_rows = rows_before
        | 1 ->
          ignore
            (Txn.with_transaction db (fun () ->
                 for _ = 1 to 1 + Random.State.int st 4 do
                   random_op ()
                 done;
                 Ok ()))
        | _ -> random_op ());
        ok := !ok && consistent ()
      done;
      !ok)

(* Concurrent DML on disjoint key ranges: each thread inserts, updates
   and deletes only rows whose K lies in its own range, all against one
   table. After the threads join, the incrementally maintained statistics
   must equal a from-scratch recomputation over the live rows — a lost
   update under the table lock would leave them skewed. *)
let test_statistics_concurrent_dml () =
  let t =
    Table.create "T"
      [ Table.column "K" Table.T_int; Table.column "V" Table.T_int ]
  in
  (match Table.create_index t ~name:"t_k" [ "K" ] with
  | Ok () -> ()
  | Error e -> failwith e);
  let threads = 6 and keys_per = 40 in
  let worker tid () =
    let base = tid * 1000 in
    for k = base to base + keys_per - 1 do
      Result.get_ok (Table.insert t [| V.Int k; V.Int tid |])
    done;
    (* touch only this thread's rows: update every 3rd, delete every 4th *)
    let mine = ref [] in
    let ids, rows = Table.scan t in
    Array.iteri
      (fun i row ->
        match row.(0) with
        | V.Int k when k >= base && k < base + keys_per ->
          mine := (ids.(i), k) :: !mine
        | _ -> ())
      rows;
    List.iter
      (fun (id, k) ->
        if k mod 4 = 0 then Table.delete_row t id
        else if k mod 3 = 0 then
          Table.update_row t id [| V.Int k; V.Int (tid + 100) |])
      !mine
  in
  let ts = List.init threads (fun tid -> Thread.create (worker tid) ()) in
  List.iter Thread.join ts;
  let rows = Array.to_list (snd (Table.scan t)) in
  let keys =
    List.filter_map
      (fun row -> match row.(0) with V.Int k -> Some k | _ -> None)
      rows
  in
  let stats = Table.statistics t in
  let cs =
    List.find (fun cs -> cs.Table.cs_columns = [ "K" ]) stats.Table.stat_columns
  in
  Alcotest.check Alcotest.int "row count matches recompute"
    (List.length rows) stats.Table.stat_rows;
  Alcotest.check Alcotest.int "NDV matches recompute"
    (List.length (List.sort_uniq compare keys))
    cs.Table.cs_distinct;
  Alcotest.check Alcotest.(option (float 0.)) "min matches recompute"
    (Some (float_of_int (List.fold_left min max_int keys)))
    cs.Table.cs_min;
  Alcotest.check Alcotest.(option (float 0.)) "max matches recompute"
    (Some (float_of_int (List.fold_left max min_int keys)))
    cs.Table.cs_max

(* Property: LIKE matching agrees with a reference regex translation. *)
let prop_like =
  let pat_gen =
    QCheck.Gen.string_size ~gen:(QCheck.Gen.oneofl [ 'a'; 'b'; '%'; '_' ])
      (QCheck.Gen.int_range 0 6)
  in
  let txt_gen =
    QCheck.Gen.string_size ~gen:(QCheck.Gen.oneofl [ 'a'; 'b' ])
      (QCheck.Gen.int_range 0 6)
  in
  QCheck.Test.make ~name:"LIKE agrees with regex reference" ~count:500
    (QCheck.make (QCheck.Gen.pair pat_gen txt_gen))
    (fun (pattern, text) ->
      let regex =
        let buf = Buffer.create 16 in
        String.iter
          (function
            | '%' -> Buffer.add_string buf ".*"
            | '_' -> Buffer.add_char buf '.'
            | c -> Buffer.add_char buf c)
          pattern;
        Str.regexp ("^" ^ Buffer.contents buf ^ "$")
      in
      let expected = Str.string_match regex text 0 in
      let db = Database.create "t" in
      let tbl = Table.create "T" [ Table.column "S" Table.T_varchar ] in
      (match Table.insert tbl [| V.Str text |] with Ok () -> () | Error _ -> ());
      Database.add_table db tbl;
      let s =
        match Sql_parser.parse_select "SELECT t.S FROM T t WHERE t.S LIKE ?" with
        | Ok s -> s
        | Error e -> failwith e
      in
      match Sql_exec.query db ~params:[| V.Str pattern |] s with
      | Ok r -> List.length r.Sql_exec.rows = if expected then 1 else 0
      | Error e -> failwith e)

let () =
  let t name f = Alcotest.test_case name `Quick f in
  Alcotest.run "relational"
    [ ( "values",
        [ t "three-valued logic" test_three_valued_logic;
          t "conversions" test_value_conversions ] );
      ("table", [ t "constraints" test_table_constraints ]);
      ( "executor",
        [ t "select-project" test_select_project;
          t "where null" test_where_null_filtered;
          t "inner join" test_inner_join;
          t "left outer join" test_left_outer_join;
          t "group by" test_group_by_aggregates;
          t "outer join + agg" test_outer_join_aggregation;
          t "aggregates skip nulls" test_aggregates_skip_nulls;
          t "sum/avg/min/max" test_sum_avg_min_max;
          t "distinct" test_distinct;
          t "exists semijoin" test_exists_semijoin;
          t "case" test_case_expression;
          t "subqueries" test_scalar_subquery_and_in;
          t "order+window" test_order_by_desc_and_window;
          t "select *" test_select_star;
          t "select * over a derived select *"
            test_select_star_over_derived_star;
          t "params" test_params;
          t "disjunctive params (PP-k shape)" test_disjunctive_param_query;
          t "IN list = OR chain (PP-k block)" test_in_list_matches_or_chain;
          t "hashed IN list = linear IN list" test_in_set_matches_linear;
          t "string funcs + like" test_string_functions_like;
          t "derived table" test_derived_table;
          t "having" test_having;
          t "errors" test_error_cases;
          t "unqualified name: latest join" test_unqualified_latest_join;
          t "errors per evaluated row" test_errors_per_row;
          t "correlated WHERE and projection" test_correlated_projection;
          t "failed UPDATE leaves table" test_update_fails_untouched;
          t "scan allocation per row" test_scan_allocation;
          t "index probe allocation per selected row" test_index_probe_allocation;
          QCheck_alcotest.to_alcotest prop_like ] );
      ( "indexing",
        [ t "auto pk/fk indexes" test_auto_indexes;
          t "create index" test_create_index;
          t "point lookup path" test_index_access_path;
          t "join algorithms" test_join_algorithms;
          t "insert_many atomicity" test_insert_many_atomicity;
          t "rollback rebuilds indexes" test_rollback_rebuilds_indexes;
          t "window early exit" test_window_early_exit;
          QCheck_alcotest.to_alcotest prop_index_scan_agree ] );
      ( "dml+txn",
        [ t "dml" test_dml_roundtrip;
          t "optimistic where" test_optimistic_update_where;
          t "rollback" test_transaction_rollback;
          t "begin, commit, rollback" test_begin_commit_rollback;
          t "two-phase commit" test_two_phase_commit;
          t "rollback keeps another transaction's commit"
            test_rollback_keeps_other_commit;
          t "transaction oracle" test_transaction_oracle;
          t "stats" test_stats_accounting;
          t "statistics under concurrent DML" test_statistics_concurrent_dml;
          QCheck_alcotest.to_alcotest prop_statistics_maintained ] );
      ( "dialects",
        [ t "paper pattern (a)" test_print_simple_select_paper_shape;
          t "outer join" test_print_outer_join;
          t "group-by" test_print_case_group;
          t "window dialects" test_print_window_dialects;
          t "concat operator" test_print_concat_operator;
          t "print/parse roundtrip" test_print_parse_roundtrip ] ) ]
