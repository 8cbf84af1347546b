(* Bounded fixed-seed slice of the differential fuzzer (lib/check): the
   oracle comparison, scenario determinism, the planted-bug mutation
   self-test with shrinking, SQL round-trips over fixture and generated
   queries, the fault-schedule regression scenarios, the
   recoverable-failure policy, and replay of the shrunk-counterexample
   corpus. The open-ended version of the same machinery is bin/fuzz. *)

open Aldsp_check

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int
let check_string = Alcotest.check Alcotest.string

let slice_seed = 2026

(* every pool in lib/check is cached process-wide; stop them once all
   suites have run *)
let () = at_exit Oracle.shutdown_pools

(* ------------------------------------------------------------------ *)
(* Oracle slice: a bounded run of the exact scenario stream bin/fuzz
   walks, faults included                                              *)

let test_oracle_slice () =
  match Harness.run ~seed:slice_seed ~count:30 () with
  | Ok n -> check_int "all scenarios ran" 30 n
  | Error cx ->
    Alcotest.failf "counterexample:\n%s" (Harness.cx_to_string cx)

let test_determinism () =
  List.iter
    (fun index ->
      let a = Harness.scenario_of ~seed:slice_seed ~index in
      let b = Harness.scenario_of ~seed:slice_seed ~index in
      check_string
        (Printf.sprintf "query %d reproducible" index)
        (Gen.render a.Shrink.query) (Gen.render b.Shrink.query);
      check_string
        (Printf.sprintf "spec %d reproducible" index)
        (Catalog.spec_to_string a.Shrink.spec)
        (Catalog.spec_to_string b.Shrink.spec);
      check_string
        (Printf.sprintf "config %d reproducible" index)
        (Oracle.config_to_string a.Shrink.config)
        (Oracle.config_to_string b.Shrink.config))
    [ 0; 1; 7; 19; 42 ];
  (* different indices do differ (the stream is not constant) *)
  let q i = Gen.render (Harness.scenario_of ~seed:slice_seed ~index:i).Shrink.query in
  check_bool "stream is not constant" true
    (List.sort_uniq compare (List.init 10 q) |> List.length > 1)

let test_vendor_coverage () =
  (* consecutive indices cycle the catalog's main vendor through all five
     dialect printers *)
  let vendors =
    List.init 10 (fun index ->
        let s = Harness.scenario_of ~seed:slice_seed ~index in
        Catalog.vendor_to_string s.Shrink.spec.Catalog.main_vendor)
  in
  check_int "all five dialects appear" 5
    (List.length (List.sort_uniq compare vendors))

(* ------------------------------------------------------------------ *)
(* Mutation self-test: the planted dropped-Where rewrite bug must be
   caught and shrunk to a minimal counterexample                       *)

let test_mutation_caught_and_shrunk () =
  match Harness.run ~mutate:true ~with_faults:false ~seed:1 ~count:50 () with
  | Ok n ->
    Alcotest.failf "planted rewrite bug survived %d scenarios" n
  | Error cx ->
    check_bool "flagged as a mutation catch" true
      (cx.Harness.cx_kind = Harness.K_mutation);
    let query = Gen.render cx.Harness.cx_scenario.Shrink.query in
    let lines = List.length (String.split_on_char '\n' query) in
    check_bool
      (Printf.sprintf "counterexample is <= 5 lines (got %d):\n%s" lines query)
      true (lines <= 5);
    (* the dropped clause must still be present in the minimum — a
       where-free query cannot witness the bug *)
    check_bool "minimal query retains a where clause" true
      (let re = Str.regexp_string "where" in
       try ignore (Str.search_forward re query 0); true
       with Not_found -> false);
    (* and the counterexample replays: the same scenario still fails *)
    check_bool "counterexample replays" true
      (Harness.check ~mutate:true cx.Harness.cx_scenario <> None)

(* ------------------------------------------------------------------ *)
(* SQL round-trip: fixture queries on the demo schema plus the first
   generated queries of the slice stream                               *)

let fixture_queries =
  [ "for $c in CUSTOMER() where $c/CID eq \"CUST0001\" return $c/FIRST_NAME";
    "for $c in CUSTOMER(), $o in ORDER_T() where $c/CID eq $o/CID return <CO>{$c/CID, $o/OID}</CO>";
    "for $c in CUSTOMER() return <CUSTOMER>{$c/CID, for $o in ORDER_T() where $c/CID eq $o/CID return $o/OID}</CUSTOMER>";
    "for $c in CUSTOMER() return <C>{data(if ($c/CID eq \"CUST0001\") then $c/LAST_NAME else $c/SSN)}</C>";
    "for $c in CUSTOMER() group $c as $p by $c/LAST_NAME as $l return <G>{$l, count($p)}</G>";
    "for $c in CUSTOMER() group by $c/LAST_NAME as $l return $l";
    "for $c in CUSTOMER() where some $o in ORDER_T() satisfies $c/CID eq $o/CID return $c/CID";
    "for $c in CUSTOMER() return <U>{fn:upper-case($c/LAST_NAME)}</U>" ]

let test_roundtrip_fixtures () =
  let demo = Aldsp_demo.Demo.create ~customers:12 ~orders_per_customer:2 () in
  let checked =
    List.fold_left
      (fun acc q ->
        match Sql_roundtrip.check_query demo.Aldsp_demo.Demo.server q with
        | Ok n -> acc + n
        | Error e -> Alcotest.failf "round-trip failed on %s:\n%s" q e)
      0 fixture_queries
  in
  (* the CASE fixture passes the vendor-gate leg but is skipped by the
     SQL92 re-parse leg: Generic_sql92 has supports_case = false, so its
     region counts 0 *)
  check_bool
    (Printf.sprintf "fixtures exercised pushdown (%d regions)" checked)
    true (checked >= List.length fixture_queries - 1)

let test_roundtrip_generated () =
  (* same deterministic stream as the oracle slice, through the SQL
     round-trip sweep instead *)
  let checked = ref 0 in
  for index = 0 to 24 do
    let s = Harness.scenario_of ~seed:slice_seed ~index in
    let cat = Catalog.build s.Shrink.spec in
    let server = Oracle.subject_server cat s.Shrink.config in
    match Sql_roundtrip.check_query server (Gen.render s.Shrink.query) with
    | Ok n -> checked := !checked + n
    | Error e ->
      Alcotest.failf "round-trip failed on scenario %d:\n%s" index e
  done;
  check_bool
    (Printf.sprintf "generated queries exercised pushdown (%d regions)"
       !checked)
    true (!checked > 0)

(* ------------------------------------------------------------------ *)
(* Fault-schedule scenarios: the fixed §5.4–5.6 regression set plus a
   deterministic batch of randomized ones                              *)

let fault_spec =
  match (Harness.scenario_of ~seed:slice_seed ~index:0).Shrink.spec with
  | spec -> { spec with Catalog.customers = 3 }

let test_fault_scenarios () =
  List.iter
    (fun sc ->
      (* fresh catalog per scenario: schedules and counters start clean *)
      let cat = Catalog.build fault_spec in
      match sc.Fault.sc_run cat with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" sc.Fault.sc_name e)
    Fault.scenarios

let test_fault_randomized () =
  for i = 0 to 9 do
    let cat = Catalog.build fault_spec in
    let st = Random.State.make [| slice_seed; i; 0xfa17 |] in
    match Fault.run_random cat st with
    | Ok () -> ()
    | Error e -> Alcotest.failf "randomized fault scenario %d: %s" i e
  done

let test_recoverable_failure_policy () =
  (* the fail-over/timeout adaptors may catch operational failures but
     must never swallow programming errors or the control exceptions the
     evaluator steers with *)
  let open Aldsp_core in
  check_bool "Failure is recoverable" true
    (Eval.recoverable_failure (Failure "service down"));
  check_bool "Eval_error is recoverable" true
    (Eval.recoverable_failure (Eval.Eval_error "err:FODC0002"));
  check_bool "Unix_error is recoverable" true
    (Eval.recoverable_failure (Unix.Unix_error (Unix.ECONNREFUSED, "connect", "")));
  check_bool "Not_found is recoverable (adaptor lookup misses)" true
    (Eval.recoverable_failure Not_found);
  check_bool "Assert_failure is not" false
    (Eval.recoverable_failure (Assert_failure ("x", 0, 0)));
  check_bool "Out_of_memory is not" false
    (Eval.recoverable_failure Out_of_memory);
  check_bool "Stack_overflow is not" false
    (Eval.recoverable_failure Stack_overflow)

(* ------------------------------------------------------------------ *)
(* Corpus replay: previously shrunk counterexamples stay fixed         *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let corpus_files () =
  Sys.readdir "corpus" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".txt")
  |> List.sort compare
  |> List.map (fun f -> Filename.concat "corpus" f)

let test_corpus_replay () =
  let files = corpus_files () in
  check_bool "corpus is not empty" true (files <> []);
  List.iter
    (fun path ->
      match Harness.replay_corpus (read_file path) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" path e)
    files

(* Cost-based plan selection must be invisible in results: every corpus
   entry and the head of the scenario stream re-run with [cost_based]
   forced on, compared byte-for-byte against the reference, with the
   backend index layer both on and off. *)
let test_cost_based_agrees () =
  let check_one ?rating_faults what cat config query =
    List.iter
      (fun indexes ->
        let config =
          { config with Oracle.cost_based = true; indexes }
        in
        match Oracle.compare_query cat config ?rating_faults query with
        | Ok () -> ()
        | Error e ->
          Alcotest.failf "%s (indexes=%b) disagrees:\n%s" what indexes e)
      [ true; false ]
  in
  List.iter
    (fun path ->
      match Harness.corpus_entry_of_string (read_file path) with
      | Error e -> Alcotest.failf "%s: %s" path e
      | Ok e ->
        check_one path ~rating_faults:e.Harness.ce_rating_faults
          (Catalog.build e.Harness.ce_spec) e.Harness.ce_config
          e.Harness.ce_query)
    (corpus_files ());
  for index = 0 to 19 do
    let s = Harness.scenario_of ~seed:slice_seed ~index in
    check_one
      (Printf.sprintf "scenario %d" index)
      (Catalog.build s.Shrink.spec)
      s.Shrink.config
      (Gen.render s.Shrink.query)
  done

(* The external sort must be invisible in results: every corpus entry
   and the head of the scenario stream re-run with [spill] forced on — a
   tiny row budget (Oracle.spill_budget) makes every ORDER BY and
   unclustered GROUP BY spill sorted runs to disk and merge them back —
   compared byte-for-byte against the unbounded in-memory reference. *)
let test_spill_agrees () =
  let check_one ?rating_faults what cat config query =
    let config = { config with Oracle.spill = true } in
    match Oracle.compare_query cat config ?rating_faults query with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s (spill forced on) disagrees:\n%s" what e
  in
  List.iter
    (fun path ->
      match Harness.corpus_entry_of_string (read_file path) with
      | Error e -> Alcotest.failf "%s: %s" path e
      | Ok e ->
        check_one path ~rating_faults:e.Harness.ce_rating_faults
          (Catalog.build e.Harness.ce_spec) e.Harness.ce_config
          e.Harness.ce_query)
    (corpus_files ());
  for index = 0 to 19 do
    let s = Harness.scenario_of ~seed:slice_seed ~index in
    check_one
      (Printf.sprintf "scenario %d" index)
      (Catalog.build s.Shrink.spec)
      s.Shrink.config
      (Gen.render s.Shrink.query)
  done

(* ------------------------------------------------------------------ *)
(* Concurrent serving-layer oracle: a bounded fixed-seed slice of the
   stream bin/fuzz --concurrent-sessions walks, plus an explicit
   indexes × cost-based sweep at 16 sessions                           *)

let test_concurrent_slice () =
  match Harness.run_concurrent ~sessions:16 ~seed:slice_seed ~count:6 () with
  | Ok n -> check_int "all concurrent scenarios ran" 6 n
  | Error cx ->
    Alcotest.failf "concurrent counterexample:\n%s" (Harness.cx_to_string cx)

let test_concurrent_matrix () =
  (* 16 sessions against one shared server must stay byte-identical to
     the serial reference whichever way the backend index layer and
     cost-based selection are switched *)
  let s = Harness.scenario_of ~seed:slice_seed ~index:3 in
  let queries = Harness.concurrent_queries ~seed:slice_seed ~index:3 ~count:16 s in
  List.iter
    (fun (indexes, cost_based) ->
      let cat = Catalog.build s.Shrink.spec in
      let config = { s.Shrink.config with Oracle.indexes; cost_based } in
      match Oracle.compare_concurrent cat config ~sessions:16 queries with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "indexes=%b cost=%b diverged under 16 sessions:\n%s"
          indexes cost_based e)
    [ (true, true); (true, false); (false, true); (false, false) ]

let () =
  Alcotest.run "fuzz"
    [ ( "oracle",
        [ Alcotest.test_case "bounded slice" `Slow test_oracle_slice;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "vendor coverage" `Quick test_vendor_coverage ] );
      ( "mutation",
        [ Alcotest.test_case "caught and shrunk" `Slow
            test_mutation_caught_and_shrunk ] );
      ( "sql-roundtrip",
        [ Alcotest.test_case "fixtures" `Quick test_roundtrip_fixtures;
          Alcotest.test_case "generated" `Slow test_roundtrip_generated ] );
      ( "faults",
        [ Alcotest.test_case "regression set" `Slow test_fault_scenarios;
          Alcotest.test_case "randomized" `Slow test_fault_randomized;
          Alcotest.test_case "recoverable-failure policy" `Quick
            test_recoverable_failure_policy ] );
      ( "corpus",
        [ Alcotest.test_case "replay" `Quick test_corpus_replay;
          Alcotest.test_case "cost-based agrees" `Slow
            test_cost_based_agrees;
          Alcotest.test_case "spill agrees" `Slow test_spill_agrees ] );
      ( "concurrent",
        [ Alcotest.test_case "bounded slice" `Slow test_concurrent_slice;
          Alcotest.test_case "indexes x cost-based matrix" `Slow
            test_concurrent_matrix ] ) ]
