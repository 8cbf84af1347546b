(* End-to-end streaming execution: the relational cursor API and the
   streamed session path — pinned against the materialized path
   byte-for-byte, with the bounded-buffer guarantee (at most one 64-token
   chunk pulled ahead of the reader) under a slow consumer, and
   cancellation mid-stream, inside a backend roundtrip and of a stream
   nobody reads. *)

open Aldsp_core
module Db = Aldsp_relational.Database
module Sql_ast = Aldsp_relational.Sql_ast
module Sql_exec = Aldsp_relational.Sql_exec
module Token_stream = Aldsp_tokens.Token_stream

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int
let check_string = Alcotest.check Alcotest.string

(* ------------------------------------------------------------------ *)
(* Relational cursors                                                  *)

let customer_select db =
  match Db.find_table db "CUSTOMER" with
  | Error m -> Alcotest.fail m
  | Ok t ->
    Sql_ast.select
      ~projections:
        (List.map
           (fun c -> (Sql_ast.col "t0" c.Aldsp_relational.Table.col_name,
                      c.Aldsp_relational.Table.col_name))
           t.Aldsp_relational.Table.columns)
      (Sql_ast.Table { table = "CUSTOMER"; alias = "t0" })

(* Each cursor test runs twice: with the database's work sharing off (a
   direct cursor) and on, where the lone statement leads its own flight
   and comes back as a replay of the rows its drain shipped. *)
let share_modes = [ false; true ]

let mode shared = if shared then "replay: " else "direct: "

let test_cursor_matches_query () =
  let demo = Aldsp_demo.Demo.create ~customers:12 ~orders_per_customer:0 () in
  let db = demo.Aldsp_demo.Demo.customer_db in
  let select = customer_select db in
  let expected =
    match Sql_exec.query db select with
    | Ok rs -> rs
    | Error m -> Alcotest.fail m
  in
  let direct_plan = ref None in
  List.iter
    (fun shared ->
      let check_bool what = check_bool (mode shared ^ what) in
      Db.set_share_work db shared;
      match Sql_exec.open_cursor db select with
      | Error m -> Alcotest.fail m
      | Ok cur ->
        check_bool "a lone statement is not served shared" false
          (Sql_exec.cursor_shared cur);
        check_bool "columns match" true
          (Sql_exec.cursor_columns cur = expected.Sql_exec.columns);
        let rec drain acc =
          match Sql_exec.fetch_chunk ~rows:5 cur with
          | Error m -> Alcotest.fail m
          | Ok [] -> List.rev acc
          | Ok rows ->
            check_bool "chunk within requested size" true
              (List.length rows <= 5);
            drain (List.rev_append rows acc)
        in
        let rows = drain [] in
        check_int (mode shared ^ "row count matches")
          (List.length expected.Sql_exec.rows) (List.length rows);
        check_bool "rows byte-identical in order" true
          (rows = expected.Sql_exec.rows);
        (* a drained cursor keeps answering end-of-rows *)
        check_bool "drained cursor stays empty" true
          (Sql_exec.fetch_chunk cur = Ok []);
        let plan = Sql_exec.cursor_plan cur in
        check_bool "plan lines recorded" true (plan <> []);
        match !direct_plan with
        | None -> direct_plan := Some plan
        | Some direct ->
          check_bool "same plan lines as the direct cursor" true
            (plan = direct))
    share_modes

let test_cursor_accounting () =
  let demo = Aldsp_demo.Demo.create ~customers:9 ~orders_per_customer:0 () in
  let db = demo.Aldsp_demo.Demo.customer_db in
  let select = customer_select db in
  List.iter
    (fun shared ->
      let check_int what = check_int (mode shared ^ what) in
      Db.set_share_work db shared;
      Aldsp_demo.Demo.reset_stats demo;
      (match Sql_exec.open_cursor db select with
      | Error m -> Alcotest.fail m
      | Ok cur ->
        check_int "statement accounted at open" 1 db.Db.stats.Db.statements;
        (* a replay's rows were shipped by the leader's drain *)
        check_int "rows shipped at open" (if shared then 9 else 0)
          db.Db.stats.Db.rows_shipped;
        let rec drain () =
          match Sql_exec.fetch_chunk ~rows:4 cur with
          | Error m -> Alcotest.fail m
          | Ok [] -> ()
          | Ok rows ->
            check_bool (mode shared ^ "chunk within requested size") true
              (List.length rows <= 4);
            drain ()
        in
        drain ());
      check_int "one statement total: chunks are engine-side iteration" 1
        db.Db.stats.Db.statements;
      check_int "rows shipped as fetched" 9 db.Db.stats.Db.rows_shipped)
    share_modes

(* A filter that only compares columns cannot raise, so a cursor binds
   and filters a scan's rows as they are fetched. One that can raise
   runs at open, so it fails the open as the materialized query does,
   not a later fetch. *)
let test_cursor_raising_filter_fails_at_open () =
  let demo = Aldsp_demo.Demo.create ~customers:12 ~orders_per_customer:0 () in
  let db = demo.Aldsp_demo.Demo.customer_db in
  let select =
    match
      Aldsp_relational.Sql_parser.parse_select
        "SELECT c.CID FROM CUSTOMER c WHERE 10 / (c.SINCE - c.SINCE) = 1"
    with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  let expected =
    match Sql_exec.query db select with
    | Ok _ -> Alcotest.fail "the raising filter succeeded"
    | Error m -> m
  in
  match Sql_exec.open_cursor db select with
  | Ok _ -> Alcotest.fail "a filter that can raise was left for the fetch"
  | Error m -> check_string "the open fails like the query" expected m

(* ------------------------------------------------------------------ *)
(* Streamed session delivery                                           *)

let stream_queries =
  [ "for $c in CUSTOMER() where $c/SINCE ge 1995 return <R>{$c/CID}{$c/LAST_NAME}</R>";
    "for $c in CUSTOMER(), $o in ORDER_T() where $c/CID eq $o/CID return <CO>{$c/CID, $o/OID}</CO>";
    "for $c in CUSTOMER() group by $c/LAST_NAME as $l return $l";
    "for $c in CUSTOMER() order by $c/LAST_NAME, $c/CID return $c/LAST_NAME";
    "count(CUSTOMER())";
    "getProfile()" ]

(* the most tokens a stream pulls ahead of its reader: one chunk *)
let chunk = 64

let streamed_bytes ?user server q =
  let ses = Server.session server ?user () in
  match Server.session_run_stream ses q with
  | Error e -> Error (Server.submit_error_to_string e)
  | Ok stream -> (
    let buf = Buffer.create 256 in
    match Server.stream_serialize stream (Buffer.add_string buf) with
    | Ok () -> Ok (Buffer.contents buf, Server.stream_peak_buffered stream)
    | Error e -> Error (Server.submit_error_to_string e))

let test_streamed_matches_materialized () =
  let demo = Aldsp_demo.Demo.create ~customers:25 ~orders_per_customer:3 () in
  let server = demo.Aldsp_demo.Demo.server in
  List.iter
    (fun q ->
      let expected =
        match Server.run server q with
        | Ok items -> Server.serialize_result server items
        | Error m -> Alcotest.failf "materialized run failed on %s: %s" q m
      in
      match streamed_bytes server q with
      | Error e -> Alcotest.failf "streamed run failed on %s: %s" q e
      | Ok (got, peak) ->
        check_string q expected got;
        check_bool
          (Printf.sprintf "peak %d within one chunk on %s" peak q)
          true (peak <= chunk))
    stream_queries

(* The qcheck property over the fuzzer's deterministic scenario stream:
   whatever query, catalog and config the generator produces, streamed
   delivery byte-matches the materialized result pushed through the same
   token serializer. (The corpus of shrunk counterexamples replays
   through this same path in test_fuzz via Oracle.compare_query's
   streaming pass.) *)
let test_fuzz_scenarios_stream_identical =
  QCheck.Test.make ~count:25 ~name:"fuzz scenarios: streamed = materialized"
    QCheck.(0 -- 200)
    (fun index ->
      let open Aldsp_check in
      let s = Harness.scenario_of ~seed:4242 ~index in
      let cat = Catalog.build s.Shrink.spec in
      Oracle.set_indexes cat s.Shrink.config.Oracle.indexes;
      let server = Oracle.subject_server cat s.Shrink.config in
      let q = Gen.render s.Shrink.query in
      match Server.run server q with
      | Error _ -> true (* error scenarios are the oracle's business *)
      | Ok items -> (
        let expected = Server.serialize_result server items in
        match streamed_bytes server q with
        | Error e ->
          QCheck.Test.fail_reportf
            "scenario %d: streamed run failed: %s\nquery: %s" index e q
        | Ok (got, peak) ->
          if not (String.equal expected got) then
            QCheck.Test.fail_reportf
              "scenario %d diverged\nquery: %s\nmaterialized: %s\nstreamed: %s"
              index q expected got;
          if peak > chunk then
            QCheck.Test.fail_reportf
              "scenario %d: %d tokens pulled ahead, more than one chunk"
              index peak;
          true))

let test_bounded_buffer_slow_consumer () =
  let demo = Aldsp_demo.Demo.create ~customers:150 ~orders_per_customer:1 () in
  let server = demo.Aldsp_demo.Demo.server in
  let q = "for $c in CUSTOMER() return <R>{$c/CID}{$c/LAST_NAME}{$c/SINCE}</R>" in
  let ses = Server.session server () in
  match Server.session_run_stream ses q with
  | Error e -> Alcotest.fail (Server.submit_error_to_string e)
  | Ok stream ->
    let tokens = ref 0 in
    let rec drain () =
      match Server.stream_read stream with
      | Ok (Some _) ->
        incr tokens;
        (* lag hard every 32 tokens: execution must wait for the reader
           instead of running ahead of it *)
        if !tokens mod 32 = 0 then Thread.delay 0.002;
        drain ()
      | Ok None -> ()
      | Error e -> Alcotest.fail (Server.submit_error_to_string e)
    in
    drain ();
    let peak = Server.stream_peak_buffered stream in
    check_bool "stream produced tokens" true (!tokens > 100);
    check_bool
      (Printf.sprintf "%d tokens pulled ahead, within one chunk" peak)
      true
      (peak >= 1 && peak <= chunk)

(* Reads [after] tokens of [q], so the query is demonstrably mid-flight,
   then cancels and keeps reading: the stream must end in a Cancelled
   error, never a clean end-of-stream for a truncated result. *)
let cancel_mid_stream server q ~after =
  let ses = Server.session server () in
  match Server.session_run_stream ses q with
  | Error e -> Alcotest.fail (Server.submit_error_to_string e)
  | Ok stream ->
    for _ = 1 to after do
      match Server.stream_read stream with
      | Ok (Some _) -> ()
      | Ok None -> Alcotest.fail "stream ended before cancel"
      | Error e -> Alcotest.fail (Server.submit_error_to_string e)
    done;
    Server.stream_cancel stream;
    let rec drain_to_end () =
      match Server.stream_read stream with
      | Ok (Some _) -> drain_to_end ()
      | Ok None -> Alcotest.fail "cancelled stream reported clean completion"
      | Error (Server.Cancelled _) -> ()
      | Error e ->
        Alcotest.failf "expected Cancelled, got %s"
          (Server.submit_error_to_string e)
    in
    drain_to_end ()

(* The benchmark's pushed scan at 1k, 10k and 100k rows, read token by
   token: the streamed bytes are the materialized ones with at most one
   chunk pulled ahead, and at 100k rows a cancel 256 tokens in ends the
   stream in Cancelled. *)
let test_bench_scan () =
  let q =
    "for $c in CUSTOMER() where $c/SINCE ge 1900 return \
     <R>{$c/CID}{$c/LAST_NAME}</R>"
  in
  List.iter
    (fun rows ->
      let server =
        (Aldsp_demo.Demo.create ~customers:rows ~orders_per_customer:0 ())
          .Aldsp_demo.Demo.server
      in
      let expected =
        match Server.run server q with
        | Ok items -> Server.serialize_result server items
        | Error m -> Alcotest.fail m
      in
      let ses = Server.session server () in
      (match Server.session_run_stream ses q with
      | Error e -> Alcotest.fail (Server.submit_error_to_string e)
      | Ok stream ->
        let rec read acc =
          match Server.stream_read stream with
          | Ok (Some tok) -> read (tok :: acc)
          | Ok None -> List.rev acc
          | Error e -> Alcotest.fail (Server.submit_error_to_string e)
        in
        let buf = Buffer.create (String.length expected) in
        Token_stream.serialize_to buf (List.to_seq (read []));
        let peak = Server.stream_peak_buffered stream in
        check_bool
          (Printf.sprintf "%d rows: streamed = materialized" rows)
          true
          (String.equal expected (Buffer.contents buf));
        check_bool
          (Printf.sprintf "%d rows: peak %d within one chunk" rows peak)
          true (peak <= chunk));
      if rows = 100_000 then cancel_mid_stream server q ~after:256)
    [ 1_000; 10_000; 100_000 ]

let test_mid_stream_cancel () =
  let demo = Aldsp_demo.Demo.create ~customers:300 ~orders_per_customer:1 () in
  let server = demo.Aldsp_demo.Demo.server in
  let q = "for $c in CUSTOMER() return <R>{$c/CID}{$c/LAST_NAME}</R>" in
  cancel_mid_stream server q ~after:5;
  (* the stream must release its admission slot: wait for quiescence *)
  let deadline = Unix.gettimeofday () +. 5. in
  let rec wait () =
    let adm = Server.admission_stats server in
    if adm.Server.ad_active = 0 then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "the stream never released its admission slot"
    else begin
      Thread.delay 0.002;
      wait ()
    end
  in
  wait ();
  let adm = Server.admission_stats server in
  check_int "cancel accounted as a deadline abort" 1
    adm.Server.ad_deadline_aborts

(* Token-only wake-ups: a stream's reader blocked in a slow backend
   roundtrip is ended by its session token alone (a cancel from another
   thread, or the deadline), and so is a stream nobody reads; afterwards
   the slot is back and nothing stays registered. *)

let slow_query = "for $c in CUSTOMER() return <R>{$c/CID}{$c/LAST_NAME}</R>"

(* polls [cond] (a test-side observer, not the code under test) and
   returns the time it first held *)
let wait_until what cond =
  let give_up = Unix.gettimeofday () +. 5. in
  let rec go () =
    if cond () then Unix.gettimeofday ()
    else if Unix.gettimeofday () > give_up then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.0005;
      go ()
    end
  in
  go ()

(* a stream over a backend whose every roundtrip takes a second *)
let open_slow ?deadline () =
  let demo =
    Aldsp_demo.Demo.create ~customers:50 ~orders_per_customer:0 ~db_latency:1.0 ()
  in
  let server = demo.Aldsp_demo.Demo.server in
  let ses = Server.session server ?deadline () in
  let opened = Unix.gettimeofday () in
  match Server.session_run_stream ses slow_query with
  | Error e -> Alcotest.fail (Server.submit_error_to_string e)
  | Ok stream -> (server, ses, stream, opened)

let expect_cancelled = function
  | Error (Server.Cancelled _) -> ()
  | Ok (Some _) -> Alcotest.fail "a token arrived from the cancelled stream"
  | Ok None -> Alcotest.fail "cancelled stream reported clean completion"
  | Error e ->
    Alcotest.failf "expected Cancelled, got %s" (Server.submit_error_to_string e)

let check_within_100ms what ms =
  check_bool (Printf.sprintf "%s within 100 ms (%.1f ms)" what ms) true
    (ms < 100.)

(* the slot is back, counted as a deadline abort, and no hook, waiter or
   armed deadline is left behind *)
let check_released server =
  let adm = Server.admission_stats server in
  check_int "no slot held" 0 adm.Server.ad_active;
  check_int "counted as a deadline abort" 1 adm.Server.ad_deadline_aborts;
  check_int "no waiter left registered" 0 (Cancel.waiters ());
  check_int "no deadline left armed" 0 (Cancel.armed_deadlines ())

let test_session_cancel_ends_blocked_read () =
  let server, ses, stream, _ = open_slow () in
  let cancelled_at = ref 0. in
  let canceller =
    Thread.create
      (fun () ->
        (* long enough for the reader to be inside the first roundtrip *)
        Thread.delay 0.05;
        cancelled_at := Unix.gettimeofday ();
        Server.session_cancel ses)
      ()
  in
  let r = Server.stream_read stream in
  let ended = Unix.gettimeofday () in
  Thread.join canceller;
  expect_cancelled r;
  check_within_100ms "read ended after the cancel"
    ((ended -. !cancelled_at) *. 1000.);
  check_released server

let test_deadline_ends_blocked_read () =
  let server, _, stream, opened = open_slow ~deadline:0.05 () in
  let r = Server.stream_read stream in
  let ended = Unix.gettimeofday () in
  expect_cancelled r;
  check_within_100ms "read ended after the deadline"
    ((ended -. (opened +. 0.05)) *. 1000.);
  check_released server

let test_deadline_frees_unread_stream () =
  let server, _, stream, opened = open_slow ~deadline:0.05 () in
  let released =
    wait_until "the unread stream to release its admission slot" (fun () ->
        (Server.admission_stats server).Server.ad_active = 0)
  in
  check_within_100ms "slot freed after the deadline"
    ((released -. (opened +. 0.05)) *. 1000.);
  expect_cancelled (Server.stream_read stream);
  check_released server

let test_tokens_streamed_counter () =
  let demo = Aldsp_demo.Demo.create ~customers:20 ~orders_per_customer:0 () in
  let server = demo.Aldsp_demo.Demo.server in
  let q = "for $c in CUSTOMER() return <R>{$c/CID}</R>" in
  let items =
    match Server.run server q with
    | Ok items -> items
    | Error m -> Alcotest.fail m
  in
  let expected_tokens = Token_stream.length (Token_stream.of_sequence items) in
  let before = (Server.stats server).Server.st_tokens_streamed in
  ignore (Server.serialize_result server items);
  let after_serialize = (Server.stats server).Server.st_tokens_streamed in
  check_int "materialized serialization is counted" expected_tokens
    (after_serialize - before);
  (match streamed_bytes server q with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let after_stream = (Server.stats server).Server.st_tokens_streamed in
  check_int "streamed delivery is counted" expected_tokens
    (after_stream - after_serialize)

(* Constructor shapes the token emitter builds without node trees, and
   the node-path fallbacks beside them. Each runs materialized on one
   fresh server and streamed on another, so each text's view holds that
   one run: the bytes, the tokens counted in [st_tokens_streamed], the
   plan's EXPLAIN ANALYZE and the audit trail, service calls and policy
   events interleaved, must match, and no stream pulls more than a chunk
   ahead. *)
let wide_query =
  "for $c in CUSTOMER() where $c/CID eq \"CUST0002\" return <C id=\"{$c/CID}\">\
   {for $o in ORDER_T() order by $o/OID return <O>{$o/OID}{$o/AMOUNT}</O>}</C>"

let profile_query = "getProfileByID(\"CUST0001\")"

let constructor_shapes =
  [ (* computed attributes: one atom, two atoms joined with a space, an
       optional one a NULL FIRST_NAME drops, and text to escape *)
    "for $c in CUSTOMER() return <R id=\"{$c/CID}\" n=\"{$c/LAST_NAME, \
     $c/SINCE}\" f?=\"{$c/FIRST_NAME}\" e=\"{concat('x&y<z', '\"')}\">{$c/CID}</R>";
    (* <E?> with empty and non-empty content; a NULL column in <G> *)
    "for $c in CUSTOMER() return <R><F?>{$c/FIRST_NAME}</F><G>{$c/FIRST_NAME}</G></R>";
    "for $c in CUSTOMER() return <R><F? a=\"{$c/CID}\">{$c/FIRST_NAME}</F></R>";
    (* escaped text, nested constructors, atoms mixed with elements *)
    "for $c in CUSTOMER() return <T>{'a&b<c\"d'}{$c/SINCE}<N><M>{$c/CID}</M>{\"t\"}\
     </N>{data($c/LAST_NAME)}<X/></T>";
    (* a sequence with an async child falls back to the node path *)
    "for $c in CUSTOMER() return <R>{fn-bea:async($c/CID), $c/LAST_NAME}</R>";
    (* a tuple wider than one chunk: every order under one customer *)
    wide_query;
    (* the §7 profile with its view inlined: getRating runs inside the
       <RATING> a Replace policy masks, so the trail's order tells when
       the filter ran *)
    profile_query ]

(* Calls kept as calls by the reference optimizer options: the emitter
   runs a non-cacheable body in place, a root sequence pushes its
   children in order and awaits an async child in its place. *)
let call_shapes =
  [ "getProfile()";
    "getProfileByID(\"CUST0001\")";
    "(getCustomerNames(), getProfile())";
    "(fn-bea:async(getProfileByID(\"CUST0002\")), getCustomerNames())" ]

(* Element-level policies over the shapes above. A user without "sales"
   loses every <G>, a profile's <ORDERS> and the wide tuple's <AMOUNT>s;
   one without "credit" sees <M>, a profile's <RATING>, every <NAME> and
   the wide tuple's <OID>s masked. *)
let remove_user = { Security.user_name = "remover"; roles = [ "credit" ] }
let replace_user = { Security.user_name = "replacer"; roles = [ "sales" ] }

let add_policies server =
  let sec = Server.security server in
  let add label names roles on_deny =
    Security.add_resource sec
      { Security.resource_label = label;
        resource_path = List.map Aldsp_xml.Qname.local names;
        allowed_roles = roles;
        on_deny }
  in
  let masked = Security.Replace (Aldsp_xml.Atomic.String "***") in
  add "g" [ "R"; "G" ] [ "sales" ] Security.Remove;
  add "m" [ "T"; "N"; "M" ] [ "credit" ] masked;
  add "orders" [ "PROFILE"; "ORDERS" ] [ "sales" ] Security.Remove;
  add "rating" [ "PROFILE"; "RATING" ] [ "credit" ] masked;
  add "name" [ "NAME" ] [ "credit" ] masked;
  add "amount" [ "C"; "O"; "AMOUNT" ] [ "sales" ] Security.Remove;
  add "oid" [ "C"; "O"; "OID" ] [ "credit" ] masked

let tokens_streamed server = (Server.stats server).Server.st_tokens_streamed

(* The audit events of the given categories, in the order recorded —
   sorted when an async child records from a pool worker. *)
let audited audit q categories =
  let events =
    List.filter_map
      (fun e ->
        if List.mem e.Audit.category categories then
          Some (e.Audit.category ^ ": " ^ e.Audit.summary)
        else None)
      (Audit.events audit)
  in
  if Str.string_match (Str.regexp ".*fn-bea:async") q 0 then
    List.sort compare events
  else events

(* Each shape runs as each user on a server built with its optimizer
   options: the constructor shapes on the default options, the call
   shapes on the reference ones. *)
let test_constructor_shapes () =
  let shapes_server optimizer_options =
    let audit = Audit.create ~level:Audit.Summary () in
    let demo =
      Aldsp_demo.Demo.create ~customers:30 ~orders_per_customer:4 ~audit
        ?optimizer_options ()
    in
    let server = demo.Aldsp_demo.Demo.server in
    add_policies server;
    (server, audit)
  in
  let groups =
    [ (None, constructor_shapes);
      (Some Optimizer.reference_options, call_shapes) ]
  in
  let check_shape optimizer_options (user, who) q =
    let what = Printf.sprintf "%s: %s" who q in
    (* a run on a fresh server: its bytes (or error), the tokens it
       counted, the text's EXPLAIN ANALYZE and the events it audited *)
    let run_fresh run =
      let server, audit = shapes_server optimizer_options in
      let ir =
        match Server.compile server q with
        | Ok compiled -> compiled.Server.ir
        | Error _ -> Alcotest.failf "compile failed on %s" what
      in
      let before = tokens_streamed server in
      let result = run server in
      ( result,
        tokens_streamed server - before,
        Plan_ir.render ir,
        audited audit q [ "service-call" ],
        audited audit q [ "security" ],
        audited audit q [ "service-call"; "security" ] )
    in
    let expected, materialized_tokens, materialized_counters,
        materialized_calls, materialized_filtered, materialized_trail =
      run_fresh (fun server ->
          match Server.session_run (Server.session server ~user ()) q with
          | Ok items -> Server.serialize_result server items
          | Error e ->
            Alcotest.failf "materialized run failed on %s: %s" what
              (Server.submit_error_to_string e))
    in
    let (got, peak), streamed_tokens, streamed_counters, streamed_calls,
        streamed_filtered, streamed_trail =
      run_fresh (fun server ->
          match streamed_bytes ~user server q with
          | Ok r -> r
          | Error e -> Alcotest.failf "streamed run failed on %s: %s" what e)
    in
    check_string ("bytes, " ^ what) expected got;
    check_bool
      (Printf.sprintf "peak %d within one chunk on %s" peak what)
      true (peak <= chunk);
    check_int ("tokens, " ^ what) materialized_tokens streamed_tokens;
    check_string ("EXPLAIN ANALYZE counters, " ^ what) materialized_counters
      streamed_counters;
    let check_events what = Alcotest.check Alcotest.(list string) what in
    check_events ("service calls audited, " ^ what) materialized_calls
      streamed_calls;
    check_events ("policies audited, " ^ what) materialized_filtered
      streamed_filtered;
    check_events ("whole trail, " ^ what) materialized_trail streamed_trail
  in
  List.iter
    (fun user ->
      List.iter
        (fun (options, shapes) -> List.iter (check_shape options user) shapes)
        groups)
    [ (Security.admin, "admin");
      (remove_user, "remove");
      (replace_user, "replace") ];
  (* the policies fired: the filtered users saw other bytes than admin *)
  let bytes server user q =
    match Server.session_run (Server.session server ~user ()) q with
    | Ok items -> Server.serialize_result server items
    | Error e -> Alcotest.fail (Server.submit_error_to_string e)
  in
  let shapes = fst (shapes_server None)
  and calls = fst (shapes_server (Some Optimizer.reference_options)) in
  List.iter
    (fun (server, user, q) ->
      check_bool ("the policy changed the result of " ^ q) false
        (String.equal (bytes server Security.admin q) (bytes server user q)))
    [ (shapes, remove_user, List.nth constructor_shapes 1);
      (shapes, replace_user, List.nth constructor_shapes 3);
      (shapes, remove_user, wide_query);
      (shapes, replace_user, wide_query);
      (shapes, replace_user, profile_query);
      (calls, remove_user, List.nth call_shapes 0);
      (calls, replace_user, List.nth call_shapes 2) ]

(* A cancel after the first chunk of a tuple wider than a chunk ends the
   stream at the next read; the slot goes back once, and the tokens
   handed out serialize to a prefix of the materialized result. For a
   restricted user the emitter suspends inside the security filter, and
   the prefix is of that user's filtered result. *)
let test_cancel_inside_wide_tuple () =
  List.iter
    (fun user ->
      let demo =
        Aldsp_demo.Demo.create ~customers:30 ~orders_per_customer:4 ()
      in
      let server = demo.Aldsp_demo.Demo.server in
      add_policies server;
      let expected =
        match Server.run server ~user wide_query with
        | Ok items -> Server.serialize_result server items
        | Error m -> Alcotest.fail m
      in
      let ses = Server.session server ~user () in
      match Server.session_run_stream ses wide_query with
      | Error e -> Alcotest.fail (Server.submit_error_to_string e)
      | Ok stream ->
        let got = Buffer.create 256 in
        let w = Token_stream.chunk_writer (Buffer.add_string got) in
        for _ = 1 to chunk do
          match Server.stream_read stream with
          | Ok (Some token) -> Token_stream.chunk_write w token
          | Ok None -> Alcotest.fail "the wide tuple ended within one chunk"
          | Error e -> Alcotest.fail (Server.submit_error_to_string e)
        done;
        Token_stream.chunk_flush w;
        check_int "one full chunk pulled" chunk
          (Server.stream_peak_buffered stream);
        Server.stream_cancel stream;
        expect_cancelled (Server.stream_read stream);
        check_bool "the ended stream stays ended" true
          (Server.stream_read stream = Ok None);
        let got = Buffer.contents got in
        check_bool "less than the whole result" true
          (String.length got < String.length expected);
        check_string "handed-out tokens are a prefix of the result" got
          (String.sub expected 0 (String.length got));
        check_released server;
        let adm = Server.admission_stats server in
        check_int "admitted = completed + aborted + active"
          adm.Server.ad_admitted
          (adm.Server.ad_completed + adm.Server.ad_deadline_aborts
         + adm.Server.ad_active);
        check_int "submitted = admitted + rejected" adm.Server.ad_submitted
          (adm.Server.ad_admitted + adm.Server.ad_rejected))
    [ Security.admin; remove_user; replace_user ]

(* The emitter suspended on one thread resumes on another: a stream
   opened here, read part way into its wide tuple on one thread and
   drained on a second, delivers the materialized bytes. *)
let test_drain_on_another_thread () =
  let demo = Aldsp_demo.Demo.create ~customers:30 ~orders_per_customer:4 () in
  let server = demo.Aldsp_demo.Demo.server in
  let expected =
    match Server.run server wide_query with
    | Ok items -> Server.serialize_result server items
    | Error m -> Alcotest.fail m
  in
  let ses = Server.session server () in
  match Server.session_run_stream ses wide_query with
  | Error e -> Alcotest.fail (Server.submit_error_to_string e)
  | Ok stream ->
    let got = Buffer.create 256 in
    let w = Token_stream.chunk_writer (Buffer.add_string got) in
    let read n =
      Thread.join
        (Thread.create
           (fun () ->
             let rec go n =
               if n > 0 then
                 match Server.stream_read stream with
                 | Ok (Some token) ->
                   Token_stream.chunk_write w token;
                   go (n - 1)
                 | Ok None -> ()
                 | Error e -> Alcotest.fail (Server.submit_error_to_string e)
             in
             go n)
           ())
    in
    read (chunk + 10);
    read max_int;
    Token_stream.chunk_close w;
    check_string "bytes across threads" expected (Buffer.contents got);
    check_bool "at most one chunk ahead" true
      (Server.stream_peak_buffered stream <= chunk)

(* A stream_serialize cancelled from its own writer after the first chunk
   ends in Cancelled, and what it wrote is the start of the materialized
   result. *)
let test_cancelled_serialize_prefix () =
  let demo = Aldsp_demo.Demo.create ~customers:300 ~orders_per_customer:1 () in
  let server = demo.Aldsp_demo.Demo.server in
  let q = "for $c in CUSTOMER() return <R>{$c/CID}{$c/LAST_NAME}</R>" in
  let expected =
    match Server.run server q with
    | Ok items -> Server.serialize_result server items
    | Error m -> Alcotest.fail m
  in
  let ses = Server.session server () in
  match Server.session_run_stream ses q with
  | Error e -> Alcotest.fail (Server.submit_error_to_string e)
  | Ok stream ->
    let buf = Buffer.create 256 in
    let write chunk =
      if Buffer.length buf = 0 then Server.stream_cancel stream;
      Buffer.add_string buf chunk
    in
    (match Server.stream_serialize stream write with
    | Error (Server.Cancelled _) -> ()
    | Ok () -> Alcotest.fail "cancelled stream serialized to completion"
    | Error e ->
      Alcotest.failf "expected Cancelled, got %s"
        (Server.submit_error_to_string e));
    let got = Buffer.contents buf in
    check_bool "something was written" true (String.length got > 0);
    check_bool "less than the whole result" true
      (String.length got < String.length expected);
    check_string "written bytes are a prefix of the result" got
      (String.sub expected 0 (String.length got))

(* stream_serialize after stream_reads that stopped inside an element:
   the writer meets an end tag it never saw open. The stream fails with
   Failed instead of raising, and gives its admission slot back once. *)
let test_serialize_after_partial_read () =
  let demo = Aldsp_demo.Demo.create ~customers:40 ~orders_per_customer:0 () in
  let server = demo.Aldsp_demo.Demo.server in
  let ses = Server.session server () in
  match
    Server.session_run_stream ses "for $c in CUSTOMER() return <R>{$c/CID}</R>"
  with
  | Error e -> Alcotest.fail (Server.submit_error_to_string e)
  | Ok stream ->
    for _ = 1 to 3 do
      match Server.stream_read stream with
      | Ok (Some _) -> ()
      | Ok None -> Alcotest.fail "stream ended early"
      | Error e -> Alcotest.fail (Server.submit_error_to_string e)
    done;
    (match Server.stream_serialize stream ignore with
    | Error (Server.Failed _) -> ()
    | Ok () -> Alcotest.fail "an unbalanced rest serialized"
    | Error e ->
      Alcotest.failf "expected Failed, got %s"
        (Server.submit_error_to_string e));
    let adm = Server.admission_stats server in
    check_int "no slot held" 0 adm.Server.ad_active;
    check_int "released once" 1 adm.Server.ad_completed;
    check_bool "the stream has ended" true
      (Server.stream_read stream = Ok None)

(* Serializing a materialized result allocates a bounded number of minor
   words per token (about 3 on 64-bit; a closure and a string per token
   would be about 90). The guard counts words, not time, so host load
   cannot move it. *)
let test_serialize_result_allocation () =
  let demo = Aldsp_demo.Demo.create ~customers:1 ~orders_per_customer:0 () in
  let server = demo.Aldsp_demo.Demo.server in
  let leaf name value =
    Aldsp_xml.Node.element (Aldsp_xml.Qname.local name)
      [ Aldsp_xml.Node.atom (Aldsp_xml.Atomic.String value) ]
  in
  let items =
    List.init 4000 (fun i ->
        Aldsp_xml.Item.Node
          (Aldsp_xml.Node.element (Aldsp_xml.Qname.local "R")
             [ leaf "CID" (Printf.sprintf "CUST%04d" i);
               leaf "LAST_NAME" (Printf.sprintf "Name%d" i) ]))
  in
  let tokens = Token_stream.length (Token_stream.of_sequence items) in
  ignore (Server.serialize_result server items);
  let before = Gc.minor_words () in
  ignore (Server.serialize_result server items);
  let words = Gc.minor_words () -. before in
  let per_token = words /. float_of_int tokens in
  check_bool
    (Printf.sprintf "%.1f minor words per token, at most 16" per_token)
    true (per_token <= 16.)

let test_explain_timings_ttft () =
  let demo = Aldsp_demo.Demo.create ~customers:10 ~orders_per_customer:2 () in
  let q = "for $c in CUSTOMER() where $c/SINCE ge 1995 return $c/CID" in
  (match Server.explain ~analyze:true ~timings:true demo.Aldsp_demo.Demo.server q with
  | Error m -> Alcotest.fail m
  | Ok text ->
    check_bool "EXPLAIN ANALYZE --timings reports ttft on the root" true
      (try
         ignore (Str.search_forward (Str.regexp_string "ttft=") text 0);
         true
       with Not_found -> false));
  (* without --timings the field stays out, keeping golden output stable *)
  match Server.explain ~analyze:true ~timings:false demo.Aldsp_demo.Demo.server q with
  | Error m -> Alcotest.fail m
  | Ok text ->
    check_bool "deterministic EXPLAIN omits ttft" true
      (not
         (try
            ignore (Str.search_forward (Str.regexp_string "ttft=") text 0);
            true
          with Not_found -> false))

let () = at_exit Aldsp_check.Oracle.shutdown_pools

let () =
  Alcotest.run "streaming"
    [ ( "cursor",
        [ Alcotest.test_case "chunked drain matches query" `Quick
            test_cursor_matches_query;
          Alcotest.test_case "one statement, rows shipped as fetched" `Quick
            test_cursor_accounting;
          Alcotest.test_case "a filter that can raise fails the open" `Quick
            test_cursor_raising_filter_fails_at_open ] );
      ( "delivery",
        [ Alcotest.test_case "streamed = materialized (fixtures)" `Quick
            test_streamed_matches_materialized;
          QCheck_alcotest.to_alcotest test_fuzz_scenarios_stream_identical;
          Alcotest.test_case "bounded buffer under a slow consumer" `Quick
            test_bounded_buffer_slow_consumer;
          Alcotest.test_case "mid-stream cancel" `Quick test_mid_stream_cancel;
          Alcotest.test_case "bench scan at 1k/10k/100k rows" `Quick
            test_bench_scan;
          Alcotest.test_case "st_tokens_streamed counts every path" `Quick
            test_tokens_streamed_counter;
          Alcotest.test_case "cancelled serialize writes a prefix" `Quick
            test_cancelled_serialize_prefix;
          Alcotest.test_case "serialize after a partial read fails" `Quick
            test_serialize_after_partial_read;
          Alcotest.test_case "constructor shapes: streamed = materialized"
            `Quick test_constructor_shapes;
          Alcotest.test_case "cancel inside a tuple wider than a chunk" `Quick
            test_cancel_inside_wide_tuple;
          Alcotest.test_case "drained on another thread" `Quick
            test_drain_on_another_thread;
          Alcotest.test_case "serialize_result allocation per token" `Quick
            test_serialize_result_allocation;
          Alcotest.test_case "ttft rides with --timings only" `Quick
            test_explain_timings_ttft;
          Alcotest.test_case "session cancel ends a blocked read" `Quick
            test_session_cancel_ends_blocked_read;
          Alcotest.test_case "deadline ends a blocked read" `Quick
            test_deadline_ends_blocked_read;
          Alcotest.test_case "deadline frees an unread stream" `Quick
            test_deadline_frees_unread_stream ] ) ]
