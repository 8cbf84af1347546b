(* Tests for the observed-cost roadmap feature (§9): instrumentation of
   source calls and cost-based reordering of independent iterations. *)

open Aldsp_core
open Aldsp_xml
open Aldsp_relational
open Aldsp_services

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

let ok_exn = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

(* ------------------------------------------------------------------ *)

let test_recording_and_cost () =
  let obs = Observed.create () in
  let fn = Qname.local "SRC" in
  check_bool "unknown at first" true (Observed.cost obs fn = None);
  Observed.record obs fn ~latency:0.010 ~cardinality:100;
  (match Observed.observed obs fn with
  | Some s ->
    check_int "calls" 1 s.Observed.calls;
    check_bool "latency" true (abs_float (s.Observed.mean_latency -. 0.010) < 1e-9)
  | None -> Alcotest.fail "missing sample");
  (* exponentially weighted: a shift in behaviour moves the mean *)
  for _ = 1 to 30 do
    Observed.record obs fn ~latency:0.002 ~cardinality:10
  done;
  (match Observed.observed obs fn with
  | Some s ->
    check_bool "mean tracks the shift" true (s.Observed.mean_latency < 0.004);
    check_bool "cardinality tracks" true (s.Observed.mean_cardinality < 20.)
  | None -> Alcotest.fail "missing sample");
  check_bool "cost available" true (Observed.cost obs fn <> None)

(* Two independent sources with very different profiles: SLOW (3 rows,
   slow) and FAST (60 rows, fast). The best outer is the small/slow one. *)
let two_source_registry ~slow_latency ~fast_latency =
  let slow_db = Database.create "SlowDB" ~roundtrip_latency:slow_latency in
  Database.add_table slow_db
    (Table.create ~primary_key:[ "K" ] "SLOW"
       [ Table.column ~nullable:false "K" Table.T_int ]);
  let t = Result.get_ok (Database.find_table slow_db "SLOW") in
  for i = 1 to 3 do
    Result.get_ok (Table.insert t [| Sql_value.Int i |])
  done;
  let fast_db = Database.create "FastDB" ~roundtrip_latency:fast_latency in
  Database.add_table fast_db
    (Table.create ~primary_key:[ "K" ] "FAST"
       [ Table.column ~nullable:false "K" Table.T_int ]);
  let t = Result.get_ok (Database.find_table fast_db "FAST") in
  for i = 1 to 60 do
    Result.get_ok (Table.insert t [| Sql_value.Int i |])
  done;
  let registry = Metadata.create () in
  Metadata.introspect_relational registry slow_db;
  Metadata.introspect_relational registry fast_db;
  (registry, slow_db, fast_db)

(* an inequality join: no equi key, so evaluation is a dependent nested
   loop and iteration order matters *)
let query =
  "for $f in FAST(), $s in SLOW() where $s/K gt $f/K order by $f/K return <R>{$f/K, $s/K}</R>"

(* The static cost model already puts the small source outer; with it
   off, only observations can reorder the written sources. *)
let written_order = { Optimizer.default_options with Optimizer.cost_based = false }

let observe registry obs =
  (* one instrumented warm-up call per source *)
  let server =
    Server.create ~optimizer_options:written_order ~observed:obs registry
  in
  ignore (ok_exn (Server.run server "count(SLOW())"));
  ignore (ok_exn (Server.run server "count(FAST())"));
  server

let test_reorder_puts_small_source_outer () =
  let obs = Observed.create () in
  let registry, _, _ = two_source_registry ~slow_latency:0.001 ~fast_latency:0.0001 in
  let server = observe registry obs in
  let rec first_rel e =
    match e with
    | Cexpr.Flwor { clauses; _ } -> (
      match
        List.find_map
          (function Cexpr.Rel r -> Some r.Cexpr.db | _ -> None)
          clauses
      with
      | Some db -> Some db
      | None -> None)
    | _ ->
      let found = ref None in
      ignore
        (Cexpr.map_children
           (fun c ->
             (if !found = None then
                match first_rel c with Some db -> found := Some db | None -> ());
             c)
           e);
      !found
  in
  let outer server expected =
    let compiled =
      ok_exn (Result.map_error (fun _ -> "compile") (Server.compile server query))
    in
    match first_rel compiled.Server.plan with
    | Some db when db = expected -> ()
    | Some other -> Alcotest.failf "outer source is %s, expected %s" other expected
    | None -> Alcotest.fail "no relational access in plan"
  in
  (* the plan's first source access must be SLOW (3 rows) even though the
     query listed FAST first; without observations the written order
     stands *)
  outer server "SlowDB";
  let plain = Server.create ~optimizer_options:written_order registry in
  outer plain "FastDB";
  (* and results are unchanged vs an un-instrumented server *)
  let a = ok_exn (Server.run server query) in
  let b = ok_exn (Server.run plain query) in
  check_bool "same results" true (Item.serialize a = Item.serialize b)

let test_no_reorder_without_order_by () =
  (* without an order-by the FLWOR's tuple order is observable: the
     optimizer must leave the clause order alone *)
  let obs = Observed.create () in
  let registry, _, _ = two_source_registry ~slow_latency:0.001 ~fast_latency:0.0001 in
  let server = observe registry obs in
  let unordered =
    "for $f in FAST(), $s in SLOW() where $s/K gt $f/K return <R>{$f/K, $s/K}</R>"
  in
  let with_obs = ok_exn (Server.run server unordered) in
  let plain = Server.create registry in
  let without = ok_exn (Server.run plain unordered) in
  check_bool "order preserved" true
    (Item.serialize with_obs = Item.serialize without)

let test_report_ranks_by_latency () =
  let obs = Observed.create () in
  Observed.record obs (Qname.local "A") ~latency:0.5 ~cardinality:1;
  Observed.record obs (Qname.local "B") ~latency:0.1 ~cardinality:1;
  Observed.record obs (Qname.local "C") ~latency:0.9 ~cardinality:1;
  match Observed.report obs with
  | (c, _) :: (a, _) :: (b, _) :: [] ->
    check_bool "order" true
      (c.Qname.local = "C" && a.Qname.local = "A" && b.Qname.local = "B")
  | _ -> Alcotest.fail "report shape"

let test_instrumentation_through_server () =
  let obs = Observed.create () in
  let demo = Aldsp_demo.Demo.create ~customers:3 () in
  let server = Server.create ~observed:obs demo.Aldsp_demo.Demo.registry in
  ignore (ok_exn (Server.run server "count(CUSTOMER())"));
  (match Observed.observed obs (Qname.local "CUSTOMER") with
  | Some s ->
    check_int "one observation" 1 s.Observed.calls;
    check_bool "cardinality observed" true
      (abs_float (s.Observed.mean_cardinality -. 3.) < 1e-9)
  | None -> Alcotest.fail "CUSTOMER not observed");
  ignore Web_service.invoke

(* Every data-service call that runs is observed by the evaluator, on
   either delivery route. With views left uninlined, getProfileByID
   stays a non-cacheable body call, which the emitter runs in place: a
   streamed run must leave the same calls and cardinalities as a
   materialized one. *)
let test_streamed_and_materialized_observe_alike () =
  let q = "getProfileByID(\"CUST0001\")" in
  let observations deliver =
    let demo = Aldsp_demo.Demo.create ~customers:3 () in
    let obs = Observed.create () in
    let server =
      Server.create
        ~optimizer_options:
          { Optimizer.default_options with Optimizer.inline_views = false }
        ~observed:obs demo.Aldsp_demo.Demo.registry
    in
    deliver server;
    List.sort compare
      (List.map
         (fun (fn, s) ->
           (Qname.to_string fn, s.Observed.calls, s.Observed.mean_cardinality))
         (Observed.report obs))
  in
  let materialized =
    observations (fun server -> ignore (ok_exn (Server.run server q)))
  in
  let streamed =
    observations (fun server ->
        match Server.session_run_stream (Server.session server ()) q with
        | Error e -> Alcotest.fail (Server.submit_error_to_string e)
        | Ok stream -> (
          match Server.stream_serialize stream ignore with
          | Ok () -> ()
          | Error e -> Alcotest.fail (Server.submit_error_to_string e)))
  in
  check_bool "the body call is observed" true
    (List.exists
       (fun (fn, calls, card) ->
         fn = "{fn}getProfileByID" && calls = 1 && card = 1.)
       materialized);
  Alcotest.(check (list (triple string int (float 1e-9))))
    "same observations" materialized streamed

let () =
  let t name f = Alcotest.test_case name `Quick f in
  Alcotest.run "observed"
    [ ( "statistics",
        [ t "recording + cost" test_recording_and_cost;
          t "report ranking" test_report_ranks_by_latency;
          t "server instrumentation" test_instrumentation_through_server;
          t "streamed and materialized observe alike"
            test_streamed_and_materialized_observe_alike ] );
      ( "reordering",
        [ t "small source becomes outer" test_reorder_puts_small_source_outer;
          t "no reorder without order-by" test_no_reorder_without_order_by ] )
    ]
