(* Figure 5: reading a profile as a Service Data Object, changing a field,
   and submitting the change — lineage analysis routes the update to the
   one affected source, with an optimistic-concurrency WHERE clause.

   Run with: dune exec examples/updates_sdo.exe *)

open Aldsp_core
open Aldsp_xml
open Aldsp_sdo
open Aldsp_demo

let section title = Printf.printf "\n=== %s ===\n" title

let provider = Qname.make ~uri:"fn" "getProfile"

let () =
  let demo = Demo.create ~customers:3 ~orders_per_customer:1 () in
  let server = demo.Demo.server in

  (* PROFILEDoc sdo = ProfileDS.getProfileById("0815");  -- Figure 5 *)
  section "Read a profile";
  let sdo =
    match Server.run server "getProfileByID(\"CUST0001\")" with
    | Ok [ Item.Node profile ] ->
      print_endline (Node.serialize profile);
      Sdo.of_result ~ds_function:provider profile
    | Ok other -> failwith (Item.serialize other)
    | Error m -> failwith m
  in

  (* sdo.setLAST_NAME("Smith");  -- the demo's CUST0001 is already a
     Smith, and setting a field to its value logs no change, so the
     example writes another name *)
  section "Change the last name";
  Result.get_ok
    (Sdo.set_field sdo
       [ Qname.local "PROFILE"; Qname.local "LAST_NAME" ]
       (Atomic.String "Smithers"));
  Printf.printf "change log: %s\n" (Sdo.serialize_change_log sdo);

  section "Lineage of the data service";
  (match Lineage.analyze demo.Demo.registry provider with
  | Ok lineage -> Format.printf "%a@." Lineage.pp lineage
  | Error m -> print_endline m);

  (* ProfileDS.submit(sdo); *)
  section "Submit";
  (match Submit.submit demo.Demo.registry [ sdo ] with
  | Ok report ->
    List.iter
      (fun u ->
        Printf.printf "[%s] %s  (%d row)\n" u.Submit.tu_db u.Submit.tu_sql
          u.Submit.tu_rows)
      report.Submit.updates;
    Printf.printf "sources touched: %s (CardDB and the rating service were \
                   not involved)\n"
      (String.concat ", " report.Submit.sources_touched)
  | Error m -> Printf.printf "submit failed: %s\n" m);

  (* the keyed UPDATE finds its row through the primary-key index *)
  section "Access path of the write";
  print_endline (Aldsp_relational.Database.explain_last demo.Demo.customer_db);

  (* the write changed no key, so no statistic the planner reads moved:
     the read runs the plan cached before the write *)
  section "Read back";
  let misses = Server.plan_cache_misses server in
  (match Server.run server "getProfileByID(\"CUST0001\")" with
  | Ok items -> print_endline (Item.serialize items)
  | Error m -> print_endline m);
  Printf.printf "compiles after submit: %d\n"
    (Server.plan_cache_misses server - misses);

  section "Optimistic concurrency: a stale object is rejected";
  let stale =
    match Server.run server "getProfileByID(\"CUST0002\")" with
    | Ok [ Item.Node profile ] -> Sdo.of_result ~ds_function:provider profile
    | _ -> failwith "read failed"
  in
  Result.get_ok
    (Sdo.set_field stale
       [ Qname.local "PROFILE"; Qname.local "LAST_NAME" ]
       (Atomic.String "Stale"));
  (* concurrent writer gets there first *)
  let concurrent =
    match Server.run server "getProfileByID(\"CUST0002\")" with
    | Ok [ Item.Node profile ] -> Sdo.of_result ~ds_function:provider profile
    | _ -> failwith "read failed"
  in
  Result.get_ok
    (Sdo.set_field concurrent
       [ Qname.local "PROFILE"; Qname.local "LAST_NAME" ]
       (Atomic.String "First"));
  ignore (Result.get_ok (Submit.submit demo.Demo.registry [ concurrent ]));
  (match Submit.submit demo.Demo.registry [ stale ] with
  | Ok _ -> print_endline "unexpected success"
  | Error m -> Printf.printf "rejected as expected: %s\n" m);

  section "Updating a transformed field maps back through the inverse";
  let sdo2 =
    match Server.run server "getProfileByID(\"CUST0003\")" with
    | Ok [ Item.Node profile ] -> Sdo.of_result ~ds_function:provider profile
    | _ -> failwith "read failed"
  in
  Result.get_ok
    (Sdo.set_field sdo2
       [ Qname.local "PROFILE"; Qname.local "SINCE" ]
       (Atomic.Date_time 432000.));
  (match Submit.submit demo.Demo.registry [ sdo2 ] with
  | Ok report ->
    List.iter
      (fun u -> Printf.printf "[%s] %s\n" u.Submit.tu_db u.Submit.tu_sql)
      report.Submit.updates
  | Error m -> print_endline m)
