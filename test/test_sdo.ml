(* Tests for SDO updates (§6): change tracking, lineage analysis, update
   propagation with optimistic concurrency, inverse functions on the write
   path, two-phase commit, and update overrides. *)

open Aldsp_core
open Aldsp_xml
open Aldsp_relational
open Aldsp_sdo

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int
let check_string = Alcotest.check Alcotest.string

let ok_exn = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let err_exn = function
  | Ok _ -> Alcotest.fail "expected an error"
  | Error msg -> msg

let provider = Qname.make ~uri:"fn" "getProfile"

let setup () = Aldsp_demo.Demo.create ~customers:4 ~orders_per_customer:1 ()

let read_profile demo cid =
  match
    ok_exn
      (Server.run demo.Aldsp_demo.Demo.server
         (Printf.sprintf "getProfileByID(\"%s\")" cid))
  with
  | [ Item.Node n ] -> Sdo.of_result ~ds_function:provider n
  | other -> Alcotest.failf "unexpected profile: %s" (Item.serialize other)

let last_name demo cid =
  match
    ok_exn
      (Server.run demo.Aldsp_demo.Demo.server
         (Printf.sprintf
            "for $c in CUSTOMER() where $c/CID eq \"%s\" return fn:data($c/LAST_NAME)"
            cid))
  with
  | [ Item.Atom a ] -> Atomic.to_string a
  | other -> Alcotest.failf "unexpected: %s" (Item.serialize other)

let path names = List.map Qname.local names

(* ------------------------------------------------------------------ *)
(* SDO change tracking                                                 *)

let test_change_tracking () =
  let demo = setup () in
  let sdo = read_profile demo "CUST0001" in
  check_bool "fresh object unchanged" false (Sdo.is_changed sdo);
  ok_exn (Sdo.set_field sdo (path [ "PROFILE"; "LAST_NAME" ]) (Atomic.String "Lee"));
  check_bool "changed" true (Sdo.is_changed sdo);
  (match sdo.Sdo.change_log with
  | [ { Sdo.old_value = Some old; new_value = Some nv; change_path } ] ->
    check_string "old" "Smith"
      (* CUST0001 has last name from the demo table *)
      (match old with Atomic.String s -> s | a -> Atomic.to_string a)
    |> ignore;
    ignore nv;
    check_int "path depth" 2 (List.length change_path)
  | _ -> Alcotest.fail "one change expected");
  (* current reflects the change, original does not *)
  check_bool "current updated" true
    (Sdo.get_field sdo (path [ "PROFILE"; "LAST_NAME" ]) = Some (Atomic.String "Lee"))

let test_set_same_value_is_noop () =
  let demo = setup () in
  let sdo = read_profile demo "CUST0001" in
  let current = Option.get (Sdo.get_field sdo (path [ "PROFILE"; "LAST_NAME" ])) in
  ok_exn (Sdo.set_field sdo (path [ "PROFILE"; "LAST_NAME" ]) current);
  check_bool "no-op" false (Sdo.is_changed sdo)

let test_serialized_change_log () =
  let demo = setup () in
  let sdo = read_profile demo "CUST0002" in
  ok_exn (Sdo.set_field sdo (path [ "PROFILE"; "LAST_NAME" ]) (Atomic.String "Zed"));
  let log = Sdo.serialize_change_log sdo in
  check_bool "has change element" true
    (let rec contains i =
       i + 7 <= String.length log && (String.sub log i 7 = "<change" || contains (i + 1))
     in
     contains 0);
  check_bool "records new value" true
    (let rec contains i =
       i + 8 <= String.length log && (String.sub log i 8 = "<new>Zed" || contains (i + 1))
     in
     contains 0)

(* Removing a field drops the element from the current data only, and
   logs the old value against no new one; the root and an absent field
   cannot be removed. *)
let test_remove_field () =
  let demo = setup () in
  let sdo = read_profile demo "CUST0003" in
  let field = path [ "PROFILE"; "LAST_NAME" ] in
  let old = Sdo.get_field sdo field in
  check_bool "field present" true (old <> None);
  ok_exn (Sdo.remove_field sdo field);
  check_bool "field gone" true (Sdo.get_field sdo field = None);
  check_bool "modified" true (sdo.Sdo.status = Sdo.Modified);
  (match sdo.Sdo.change_log with
  | [ { Sdo.change_path; old_value; new_value = None } ] ->
    check_bool "path logged" true (change_path = field);
    check_bool "old value logged" true (old_value = old)
  | _ -> Alcotest.fail "one removal expected in the change log");
  check_bool "original keeps the field" true
    (Sdo.get_field (Sdo.of_result ~ds_function:provider sdo.Sdo.original) field
     = old);
  ignore (err_exn (Sdo.remove_field sdo field));
  ignore (err_exn (Sdo.remove_field sdo (path [ "PROFILE" ])));
  check_int "failed removals log nothing" 1 (List.length sdo.Sdo.change_log)

(* ------------------------------------------------------------------ *)
(* Lineage (§6)                                                        *)

let test_lineage_of_logical_service () =
  let demo = setup () in
  let lineage = ok_exn (Lineage.analyze demo.Aldsp_demo.Demo.registry provider) in
  (match Lineage.source_of lineage (path [ "PROFILE"; "LAST_NAME" ]) with
  | Some cs ->
    check_string "table" "CUSTOMER" cs.Lineage.cs_table;
    check_string "db" "CustomerDB" cs.Lineage.cs_db;
    check_bool "no transform" true (cs.Lineage.cs_via = None)
  | None -> Alcotest.fail "LAST_NAME lineage missing");
  (* the SINCE path went through int2date *)
  (match Lineage.source_of lineage (path [ "PROFILE"; "SINCE" ]) with
  | Some cs ->
    check_bool "via int2date" true
      (match cs.Lineage.cs_via with
      | Some f -> f.Qname.local = "int2date"
      | None -> false)
  | None -> Alcotest.fail "SINCE lineage missing");
  (* RATING comes from the web service: not updatable *)
  check_bool "rating not updatable" true
    (Lineage.source_of lineage (path [ "PROFILE"; "RATING" ]) = None);
  check_bool "CUSTOMER table updatable" true
    (List.mem ("CustomerDB", "CUSTOMER") (Lineage.updatable_tables lineage))

let test_lineage_of_physical_service () =
  let demo = setup () in
  let lineage =
    ok_exn (Lineage.analyze demo.Aldsp_demo.Demo.registry (Qname.local "CUSTOMER"))
  in
  check_bool "every column mapped" true
    (Lineage.source_of lineage (path [ "CUSTOMER"; "SSN" ]) <> None)

(* ------------------------------------------------------------------ *)
(* Submit (§6, Figure 5)                                               *)

let test_submit_updates_only_affected_source () =
  let demo = setup () in
  let sdo = read_profile demo "CUST0001" in
  ok_exn (Sdo.set_field sdo (path [ "PROFILE"; "LAST_NAME" ]) (Atomic.String "Lee"));
  Aldsp_demo.Demo.reset_stats demo;
  let report = ok_exn (Submit.submit demo.Aldsp_demo.Demo.registry [ sdo ]) in
  check_int "one update" 1 (List.length report.Submit.updates);
  check_bool "only CustomerDB" true
    (report.Submit.sources_touched = [ "CustomerDB" ]);
  check_int "card db untouched" 0
    demo.Aldsp_demo.Demo.card_db.Database.stats.Database.statements;
  check_string "value written" "Lee" (last_name demo "CUST0001");
  check_bool "change log cleared" false (Sdo.is_changed sdo)

let test_submit_optimistic_conflict_rolls_back () =
  let demo = setup () in
  let sdo = read_profile demo "CUST0001" in
  ok_exn (Sdo.set_field sdo (path [ "PROFILE"; "LAST_NAME" ]) (Atomic.String "Lee"));
  (* concurrent writer changes the row after our read *)
  ignore
    (ok_exn
       (Sql_exec.execute_dml demo.Aldsp_demo.Demo.customer_db
          (Result.get_ok
             (Sql_parser.parse
                "UPDATE CUSTOMER SET LAST_NAME = 'Hijacked' WHERE CID = 'CUST0001'")
          |> function
          | Sql_ast.Dml d -> d
          | _ -> assert false)));
  let msg = err_exn (Submit.submit demo.Aldsp_demo.Demo.registry [ sdo ]) in
  check_bool "conflict reported" true
    (let rec contains i =
       i + 8 <= String.length msg && (String.sub msg i 8 = "conflict" || contains (i + 1))
     in
     contains 0);
  check_string "hijacker's value stands" "Hijacked" (last_name demo "CUST0001");
  check_bool "log kept for retry" true (Sdo.is_changed sdo)

(* A keyed write finds its row through the primary key, as a point read
   does: its plan is the probe, and it scans nothing and looks up one
   key. *)
let test_submit_probes_primary_key () =
  let demo = setup () in
  let db = demo.Aldsp_demo.Demo.customer_db in
  let sdo = read_profile demo "CUST0002" in
  ok_exn (Sdo.set_field sdo (path [ "PROFILE"; "LAST_NAME" ]) (Atomic.String "Lee"));
  let scans = db.Database.stats.Database.full_scans
  and lookups = db.Database.stats.Database.index_lookups in
  ignore (ok_exn (Submit.submit demo.Aldsp_demo.Demo.registry [ sdo ]));
  check_string "access path of the write"
    "index probe CUSTOMER.pk_CUSTOMER [CID] keys=1 rows=1"
    (Database.explain_last db);
  check_int "no full scan" scans db.Database.stats.Database.full_scans;
  check_int "one index lookup" (lookups + 1)
    db.Database.stats.Database.index_lookups;
  check_string "value written" "Lee" (last_name demo "CUST0002")

let test_submit_policy_all_read_values () =
  let demo = setup () in
  let sdo = read_profile demo "CUST0002" in
  ok_exn (Sdo.set_field sdo (path [ "PROFILE"; "LAST_NAME" ]) (Atomic.String "Lee"));
  (* a concurrent change to a DIFFERENT column we read *)
  ignore
    (ok_exn
       (Sql_exec.execute_dml demo.Aldsp_demo.Demo.customer_db
          (Result.get_ok (Sql_parser.parse
             "UPDATE CUSTOMER SET SINCE = 999999 WHERE CID = 'CUST0002'")
          |> function Sql_ast.Dml d -> d | _ -> assert false)));
  (* updated-values-only: succeeds *)
  ignore (ok_exn (Submit.submit demo.Aldsp_demo.Demo.registry [ sdo ]));
  (* all-read-values: a second change now conflicts on SINCE *)
  let sdo2 = read_profile demo "CUST0003" in
  ok_exn (Sdo.set_field sdo2 (path [ "PROFILE"; "LAST_NAME" ]) (Atomic.String "Kay"));
  ignore
    (ok_exn
       (Sql_exec.execute_dml demo.Aldsp_demo.Demo.customer_db
          (Result.get_ok (Sql_parser.parse
             "UPDATE CUSTOMER SET SINCE = 123 WHERE CID = 'CUST0003'")
          |> function Sql_ast.Dml d -> d | _ -> assert false)));
  ignore
    (err_exn
       (Submit.submit ~policy:Submit.All_read_values
          demo.Aldsp_demo.Demo.registry [ sdo2 ]))

(* DELETE carries the same read-time WHERE as UPDATE: under
   All_read_values a row changed since the read is not deleted; under
   Updated_values_only (nothing updated) the key alone decides. *)
let test_submit_guarded_delete () =
  let demo = setup () in
  let customers cid =
    match
      ok_exn
        (Server.run demo.Aldsp_demo.Demo.server
           (Printf.sprintf
              "count(for $c in CUSTOMER() where $c/CID eq \"%s\" return $c)" cid))
    with
    | [ Item.Atom (Atomic.Integer n) ] -> n
    | other -> Alcotest.failf "unexpected count: %s" (Item.serialize other)
  in
  let sdo = read_profile demo "CUST0002" in
  ignore
    (ok_exn
       (Sql_exec.execute_dml demo.Aldsp_demo.Demo.customer_db
          (Result.get_ok (Sql_parser.parse
             "UPDATE CUSTOMER SET LAST_NAME = 'Moved' WHERE CID = 'CUST0002'")
          |> function Sql_ast.Dml d -> d | _ -> assert false)));
  Sdo.mark_deleted sdo;
  let msg =
    err_exn
      (Submit.submit ~policy:Submit.All_read_values
         demo.Aldsp_demo.Demo.registry [ sdo ])
  in
  check_bool "conflict reported" true
    (String.starts_with ~prefix:"optimistic concurrency conflict" msg);
  check_int "row kept" 1 (customers "CUST0002");
  check_string "changed value stands" "Moved" (last_name demo "CUST0002");
  ignore
    (ok_exn
       (Submit.submit ~policy:Submit.Updated_values_only
          demo.Aldsp_demo.Demo.registry [ sdo ]));
  check_int "row deleted" 0 (customers "CUST0002");
  check_int "other rows kept" 1 (customers "CUST0003")

let test_submit_designated_policy () =
  let demo = setup () in
  let sdo = read_profile demo "CUST0004" in
  ok_exn (Sdo.set_field sdo (path [ "PROFILE"; "LAST_NAME" ]) (Atomic.String "Kim"));
  (* designate SINCE as the guard; a conflicting SINCE change must abort *)
  ignore
    (ok_exn
       (Sql_exec.execute_dml demo.Aldsp_demo.Demo.customer_db
          (Result.get_ok (Sql_parser.parse
             "UPDATE CUSTOMER SET SINCE = 777 WHERE CID = 'CUST0004'")
          |> function Sql_ast.Dml d -> d | _ -> assert false)));
  ignore
    (err_exn
       (Submit.submit
          ~policy:(Submit.Designated [ path [ "PROFILE"; "SINCE" ] ])
          demo.Aldsp_demo.Demo.registry [ sdo ]))

let test_submit_through_inverse_function () =
  (* Figure 5 + §4.5: updating the transformed SINCE element maps back
     through date2int *)
  let demo = setup () in
  let sdo = read_profile demo "CUST0001" in
  ok_exn
    (Sdo.set_field sdo (path [ "PROFILE"; "SINCE" ]) (Atomic.Date_time 864000.));
  let report = ok_exn (Submit.submit demo.Aldsp_demo.Demo.registry [ sdo ]) in
  check_int "one update" 1 (List.length report.Submit.updates);
  (* the stored value is the epoch integer *)
  match
    ok_exn
      (Server.run demo.Aldsp_demo.Demo.server
         "for $c in CUSTOMER() where $c/CID eq \"CUST0001\" return fn:data($c/SINCE)")
  with
  | [ Item.Atom (Atomic.Integer 864000) ] -> ()
  | other -> Alcotest.failf "stored value wrong: %s" (Item.serialize other)

let test_submit_non_updatable_path_rejected () =
  let demo = setup () in
  let sdo = read_profile demo "CUST0001" in
  ok_exn (Sdo.set_field sdo (path [ "PROFILE"; "RATING" ]) (Atomic.Integer 9));
  let msg = err_exn (Submit.submit demo.Aldsp_demo.Demo.registry [ sdo ]) in
  check_bool "mentions lineage" true
    (let rec contains i =
       i + 7 <= String.length msg && (String.sub msg i 7 = "lineage" || contains (i + 1))
     in
     contains 0);
  (* nothing was written *)
  check_string "last name intact" "Smith" (last_name demo "CUST0001")

let test_submit_multiple_objects_atomic () =
  let demo = setup () in
  let a = read_profile demo "CUST0001" in
  let b = read_profile demo "CUST0002" in
  ok_exn (Sdo.set_field a (path [ "PROFILE"; "LAST_NAME" ]) (Atomic.String "A1"));
  ok_exn (Sdo.set_field b (path [ "PROFILE"; "RATING" ]) (Atomic.Integer 1));
  (* b's change is invalid: the whole submit must roll back, incl. a's *)
  ignore (err_exn (Submit.submit demo.Aldsp_demo.Demo.registry [ a; b ]));
  check_bool "a's change not applied" true (last_name demo "CUST0001" <> "A1")

let test_update_override () =
  let demo = setup () in
  let sdo = read_profile demo "CUST0001" in
  ok_exn (Sdo.set_field sdo (path [ "PROFILE"; "LAST_NAME" ]) (Atomic.String "Ovr"));
  let overrides = Submit.no_overrides () in
  let called = ref false in
  Submit.register_override overrides provider (fun _ ->
      called := true;
      Ok ());
  let report =
    ok_exn (Submit.submit ~overrides demo.Aldsp_demo.Demo.registry [ sdo ])
  in
  check_bool "override called" true !called;
  check_bool "flag set" true report.Submit.overridden;
  (* default propagation skipped: the table is unchanged *)
  check_bool "table untouched" true (last_name demo "CUST0001" <> "Ovr")

(* ------------------------------------------------------------------ *)
(* Multi-argument transformations (§4.5: full name vs first/last name)  *)

let fullname_setup () =
  let db = Database.create ~vendor:Database.Oracle "PeopleDB" in
  Database.add_table db
    (Table.create ~primary_key:[ "ID" ] "PERSON"
       [ Table.column ~nullable:false "ID" Table.T_int;
         Table.column ~nullable:false "FIRST" Table.T_varchar;
         Table.column ~nullable:false "LAST" Table.T_varchar ]);
  let t = Result.get_ok (Database.find_table db "PERSON") in
  List.iter
    (fun r -> Result.get_ok (Table.insert t r))
    [ [| Sql_value.Int 1; Sql_value.Str "Ann"; Sql_value.Str "Smith" |];
      [| Sql_value.Int 2; Sql_value.Str "Bob"; Sql_value.Str "Jones" |] ];
  let registry = Metadata.create () in
  Metadata.introspect_relational registry db;
  let uri = "urn:names" in
  let fullname = Qname.make ~uri "fullname" in
  let first_of = Qname.make ~uri "first-of" in
  let last_of = Qname.make ~uri "last-of" in
  let split full =
    match String.index_opt full ' ' with
    | Some i ->
      ( String.sub full 0 i,
        String.sub full (i + 1) (String.length full - i - 1) )
    | None -> (full, "")
  in
  Metadata.register_custom_function registry
    { Aldsp_services.Custom_function.fn_name = fullname;
      param_types = [ Atomic.T_string; Atomic.T_string ];
      return_type = Atomic.T_string;
      body =
        (function
          | [ Atomic.String f; Atomic.String l ] ->
            Ok (Atomic.String (f ^ " " ^ l))
          | _ -> Error "fullname: bad args") };
  Metadata.register_custom_function registry
    { Aldsp_services.Custom_function.fn_name = first_of;
      param_types = [ Atomic.T_string ];
      return_type = Atomic.T_string;
      body =
        (function
          | [ Atomic.String full ] -> Ok (Atomic.String (fst (split full)))
          | _ -> Error "first-of: bad args") };
  Metadata.register_custom_function registry
    { Aldsp_services.Custom_function.fn_name = last_of;
      param_types = [ Atomic.T_string ];
      return_type = Atomic.T_string;
      body =
        (function
          | [ Atomic.String full ] -> Ok (Atomic.String (snd (split full)))
          | _ -> Error "last-of: bad args") };
  Metadata.register_multi_inverse registry ~f:fullname
    ~projections:[ first_of; last_of ];
  let server = Server.create registry in
  (match
     Server.register_data_service server ~name:"PersonDS"
       {|declare namespace nm = "urn:names";
(::pragma function kind="read" ::)
declare function getPerson() as element(PERSON)* {
  for $p in PERSON()
  return <PERSON>
    <ID>{fn:data($p/ID)}</ID>
    <NAME>{nm:fullname($p/FIRST, $p/LAST)}</NAME>
  </PERSON>
};|}
   with
  | Ok () -> ()
  | Error ds ->
    Alcotest.failf "registration failed: %s"
      (String.concat "; " (List.map Diag.to_string ds)));
  (db, registry, server)

let person_provider = Qname.make ~uri:"fn" "getPerson"

let test_multi_arg_lineage () =
  let _, registry, _ = fullname_setup () in
  let lineage = ok_exn (Lineage.analyze registry person_provider) in
  let sources =
    Lineage.sources_of lineage (path [ "PERSON"; "NAME" ])
  in
  check_int "one path, two columns" 2 (List.length sources);
  let cols = List.map (fun cs -> cs.Lineage.cs_column) sources in
  check_bool "FIRST and LAST" true
    (List.mem "FIRST" cols && List.mem "LAST" cols);
  check_bool "writebacks recorded" true
    (List.for_all (fun cs -> cs.Lineage.cs_writeback <> None) sources)

let test_multi_arg_update () =
  let db, registry, server = fullname_setup () in
  let sdo =
    match Server.run server "getPerson()[ID eq 1]" with
    | Ok [ Item.Node n ] -> Sdo.of_result ~ds_function:person_provider n
    | Ok other -> Alcotest.failf "unexpected: %s" (Item.serialize other)
    | Error m -> Alcotest.fail m
  in
  check_bool "composed on read" true
    (Sdo.get_field sdo (path [ "PERSON"; "NAME" ])
    = Some (Atomic.String "Ann Smith"));
  ok_exn
    (Sdo.set_field sdo (path [ "PERSON"; "NAME" ]) (Atomic.String "Jane Roe"));
  let report = ok_exn (Submit.submit registry [ sdo ]) in
  (* one UPDATE setting both decomposed columns *)
  check_int "one statement" 1 (List.length report.Submit.updates);
  let sql = (List.hd report.Submit.updates).Submit.tu_sql in
  let contains needle =
    let n = String.length needle and h = String.length sql in
    let rec go i = i + n <= h && (String.sub sql i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "FIRST assigned" true (contains "\"FIRST\" = 'Jane'");
  check_bool "LAST assigned" true (contains "\"LAST\" = 'Roe'");
  ignore db;
  (match Server.run server "getPerson()[ID eq 1]" with
  | Ok [ Item.Node n ] ->
    check_bool "recomposed" true
      (let s = Node.serialize n in
       let rec go i =
         i + 8 <= String.length s
         && (String.sub s i 8 = "Jane Roe" || go (i + 1))
       in
       go 0)
  | _ -> Alcotest.fail "read back failed")

let test_multi_arg_equality_pushdown () =
  let _, _, server = fullname_setup () in
  let q = "for $p in getPerson() where $p/NAME eq \"Ann Smith\" return $p/ID" in
  (match Server.compile server q with
  | Ok compiled ->
    let sql = String.concat " " (List.map snd compiled.Aldsp_core.Server.sql) in
    let contains needle =
      let n = String.length needle and h = String.length sql in
      let rec go i = i + n <= h && (String.sub sql i n = needle || go (i + 1)) in
      go 0
    in
    check_bool "decomposed to FIRST = ? AND LAST = ?" true
      (contains "\"FIRST\" = ?" && contains "\"LAST\" = ?")
  | Error _ -> Alcotest.fail "compile failed");
  match Server.run server q with
  | Ok r -> check_bool "selects the right person" true (Item.serialize r = "<ID>1</ID>")
  | Error m -> Alcotest.fail m

let () =
  let t name f = Alcotest.test_case name `Quick f in
  Alcotest.run "sdo"
    [ ( "change-tracking",
        [ t "tracking" test_change_tracking;
          t "same-value no-op" test_set_same_value_is_noop;
          t "serialized log" test_serialized_change_log;
          t "remove field" test_remove_field ] );
      ( "lineage",
        [ t "logical service" test_lineage_of_logical_service;
          t "physical service" test_lineage_of_physical_service ] );
      ( "submit",
        [ t "affected source only" test_submit_updates_only_affected_source;
          t "optimistic conflict" test_submit_optimistic_conflict_rolls_back;
          t "keyed write probes the primary key" test_submit_probes_primary_key;
          t "all-read-values policy" test_submit_policy_all_read_values;
          t "designated policy" test_submit_designated_policy;
          t "guarded delete" test_submit_guarded_delete;
          t "inverse on write path" test_submit_through_inverse_function;
          t "non-updatable path" test_submit_non_updatable_path_rejected;
          t "multi-object atomicity" test_submit_multiple_objects_atomic;
          t "update override" test_update_override ] );
      ( "multi-argument transforms",
        [ t "lineage" test_multi_arg_lineage;
          t "decomposed update" test_multi_arg_update;
          t "equality pushdown" test_multi_arg_equality_pushdown ] ) ]
