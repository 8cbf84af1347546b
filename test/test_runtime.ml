(* Tests for the runtime: join methods (incl. PP-k block accounting),
   streaming group-by, async/fail-over/timeout, the function cache, the
   plan cache, security filtering, and the server APIs. *)

open Aldsp_core
open Aldsp_xml
open Aldsp_relational
open Aldsp_services

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

let ok_exn = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let err_exn = function
  | Ok _ -> Alcotest.fail "expected an error"
  | Error msg -> msg

let setup ?customers ?orders_per_customer ?service_latency ?function_cache
    ?security ?audit () =
  Aldsp_demo.Demo.create ?customers ?orders_per_customer ?service_latency
    ?function_cache ?security ?audit ()

let run demo q = ok_exn (Server.run demo.Aldsp_demo.Demo.server q)

(* ------------------------------------------------------------------ *)
(* Join methods                                                        *)

let cross_db_join demo ~k =
  (* force a specific PP-k block size via optimizer options; cost-based
     selection would override the knob, so switch it off *)
  let options =
    { Optimizer.default_options with Optimizer.ppk_k = k; cost_based = false }
  in
  let server =
    Server.create ~optimizer_options:options demo.Aldsp_demo.Demo.registry
  in
  ok_exn
    (Server.run server
       "for $c in CUSTOMER(), $x in CREDIT_CARD() where $c/CID eq $x/CID return <R>{$c/CID, $x/NUM}</R>")

let test_ppk_roundtrips_scale_with_k () =
  (* n=20 left tuples: k=5 -> 4 card-db roundtrips; k=20 -> 1 *)
  let demo = setup ~customers:20 () in
  let count_roundtrips k =
    Aldsp_demo.Demo.reset_stats demo;
    let r = cross_db_join demo ~k in
    check_int "result size stable" 20 (List.length r);
    demo.Aldsp_demo.Demo.card_db.Database.stats.Database.statements
  in
  let r5 = count_roundtrips 5 in
  let r20 = count_roundtrips 20 in
  let r1 = count_roundtrips 1 in
  check_int "k=5 -> 4 blocks" 4 r5;
  check_int "k=20 -> 1 block" 1 r20;
  check_int "k=1 -> one per tuple" 20 r1

let test_ppk_results_match_nl () =
  let demo = setup ~customers:7 () in
  let ppk = cross_db_join demo ~k:3 in
  (* nested loop reference: disable join introduction entirely *)
  let options =
    { Optimizer.default_options with Optimizer.introduce_joins = false }
  in
  let server =
    Server.create ~optimizer_options:options demo.Aldsp_demo.Demo.registry
  in
  let nl =
    ok_exn
      (Server.run server
         "for $c in CUSTOMER(), $x in CREDIT_CARD() where $c/CID eq $x/CID return <R>{$c/CID, $x/NUM}</R>")
  in
  check_bool "PP-k == NL" true (Item.serialize ppk = Item.serialize nl)

(* The PP-k block hash join against the reference server (no rewrites,
   no pushdown, nested loops): a check catalog seeded with the data the
   hash must not get wrong — duplicate left keys in one block, NULL join
   columns, integer against decimal keys, customers without cards. *)
let hash_join_catalog () =
  let module Catalog = Aldsp_check.Catalog in
  let module V = Sql_value in
  let cat =
    Catalog.build
      { Catalog.seed = 15;
        main_vendor = Database.Oracle;
        card_vendor = Database.Sql_server;
        customers = 10;
        orders_per_customer = 3;
        cards_per_customer = 2;
        regions = 2 }
  in
  let table db name = ok_exn (Database.find_table db name) in
  let insert db name rows =
    List.iter
      (fun row -> ignore (ok_exn (Table.insert (table db name) row)))
      rows
  in
  (* customers with no card: unmatched left tuples; CUSTY's SINCE meets
     its cards' LIMIT_ *)
  insert cat.Catalog.main_db "CUSTOMER"
    (List.init 3 (fun i ->
         [| V.Str (Printf.sprintf "CUSTX%d" i); V.Str "Nobody"; V.Null;
            V.Str "000-00-0000"; V.Int (i + 1) |])
    @ [ [| V.Str "CUSTY"; V.Str "Somebody"; V.Null; V.Str "000-00-0001";
           V.Int 1000 |] ]);
  (* AMOUNT 1.0 meets CCID 1 and 101.0 meets CCID 101; NULL AMOUNTs *)
  insert cat.Catalog.main_db "ORDER_T"
    [ [| V.Int 9001; V.Str "CUST0001"; V.Float 1.0 |];
      [| V.Int 9002; V.Str "CUST0002"; V.Float 101.0 |];
      [| V.Int 9003; V.Str "CUST0002"; V.Float 101.0 |];
      [| V.Int 9004; V.Str "CUST0003"; V.Null |];
      [| V.Int 9005; V.Str "CUSTY"; V.Float 1000.0 |] ];
  (* NULL LIMIT_s on the right; an integer-keyed card with CCID 1 *)
  insert cat.Catalog.card_db "CREDIT_CARD"
    [ [| V.Int 1; V.Str "CUST0001"; V.Str "4400-0000-0001"; V.Null |];
      [| V.Int 2; V.Str "CUST0002"; V.Str "4400-0000-0002"; V.Null |];
      [| V.Int 3; V.Str "CUSTY"; V.Str "4400-0000-0003"; V.Float 1000.0 |];
      [| V.Int 4; V.Str "CUSTY"; V.Str "4400-0000-0004"; V.Null |];
      [| V.Int 5; V.Str "CUSTY"; V.Str "4400-0000-0005"; V.Float 1000.0 |] ];
  cat

let hash_join_config k =
  { Aldsp_check.Oracle.workers = 2;
    ppk_k = k;
    ppk_prefetch = 1;
    indexes = true;
    cost_based = false;
    spill = false }

let hash_join_ks = [ 1; 3; 16; 64 ]

(* the subject plan must be the hashed PP-k join, or the case tests
   nothing *)
let check_hashed_ppk cat k q =
  let server = Aldsp_check.Oracle.subject_server cat (hash_join_config k) in
  let plan = ok_exn (Server.explain ~analyze:false server q) in
  let contains sub =
    try
      ignore (Str.search_forward (Str.regexp_string sub) plan 0);
      true
    with Not_found -> false
  in
  if not (contains "method=pp-k(" && contains "inner=inl)") then
    Alcotest.failf "k=%d: no hashed PP-k join in\n%s" k plan

let differential_hash_join q () =
  let cat = hash_join_catalog () in
  List.iter
    (fun k ->
      check_hashed_ppk cat k q;
      match Aldsp_check.Oracle.compare_query cat (hash_join_config k) q with
      | Ok () -> ()
      | Error report -> Alcotest.failf "k=%d: %s" k report)
    hash_join_ks

let hash_join_cases =
  [ ( "duplicate left keys",
      "for $o in ORDER_T(), $x in CREDIT_CARD() where $o/CID eq $x/CID \
       return <R>{$o/OID, $x/CCID}</R>" );
    ( "NULL join columns",
      "for $o in ORDER_T(), $x in CREDIT_CARD() where $o/AMOUNT eq $x/LIMIT_ \
       return <R>{$o/OID, $x/CCID}</R>" );
    (* the first pair is not pushed, so rows with a NULL LIMIT_ reach the
       middleware and their key does not normalize *)
    ( "NULL right keys",
      "for $c in CUSTOMER() return <C>{$c/CID}{for $x in CREDIT_CARD() \
       where $x/LIMIT_ + 0 eq $c/SINCE and $x/CID eq $c/CID \
       return $x/CCID}</C>" );
    ( "integer against decimal",
      "for $o in ORDER_T(), $x in CREDIT_CARD() where $o/AMOUNT eq $x/CCID \
       return <R>{$o/OID, $x/CCID}</R>" );
    ( "left outer, unmatched",
      "for $c in CUSTOMER() return <C>{$c/CID}{for $x in CREDIT_CARD() \
       where $x/CID eq $c/CID return $x/NUM}</C>" );
    ( "grouped export",
      "for $o in ORDER_T() let $n := count(for $x in CREDIT_CARD() \
       where $x/CID eq $o/CID return $x) return <N>{$o/OID}{$n}</N>" ) ]

(* A composite key whose first pair compares an integer expression with
   a string: pushdown cannot translate that pair, so the rows the second
   pair fetches reach the middleware, where every comparison on the first
   is a type error. The hash join must raise the reference's error, not
   skip the rows. *)
let test_hash_join_type_mismatch () =
  let cat = hash_join_catalog () in
  let q =
    "for $c in CUSTOMER() return <C>{$c/CID}{for $x in CREDIT_CARD() \
     where $x/CCID + 0 eq $c/CID and $x/CID eq $c/CID return $x/NUM}</C>"
  in
  let reference =
    Aldsp_check.Oracle.run_serialized (Aldsp_check.Oracle.reference_server cat) q
  in
  let expected = err_exn reference in
  List.iter
    (fun k ->
      check_hashed_ppk cat k q;
      let server = Aldsp_check.Oracle.subject_server cat (hash_join_config k) in
      let got = err_exn (Aldsp_check.Oracle.run_serialized server q) in
      Alcotest.check Alcotest.string
        (Printf.sprintf "k=%d error" k)
        expected got)
    hash_join_ks

(* Index nested loop hashes the right side on its join keys, but the keys
   only pick candidates: a key that does not normalize (an empty or
   multi-item sequence, a NULL column) is tried against every tuple, and
   numerics of different types share a key. Each case must print the
   bytes of the same text with join introduction off, a nested loop. *)
let inl_join_cases =
  [ ( "empty key does not match",
      "for $c in CUSTOMER(), $n in (<n/>, <n><f>Ann</f></n>) \
       where $c/FIRST_NAME eq $n/f return <R>{$c/CID}</R>" );
    ( "integer eq decimal",
      "for $x in (1, 2) for $y in (1.0, 2.5) where $x eq $y \
       return <r>{$x}</r>" );
    ( "general comparison over sequences",
      "for $x in (<a><k>1</k><k>2</k></a>, <a><k>3</k></a>) \
       for $y in (<b><k>2</k></b>, <b><k>3</k></b>) \
       where $x/k = $y/k return <r>{$y/k}</r>" ) ]

let inl_join_matches_nl q () =
  let demo = setup ~customers:14 () in
  let server = demo.Aldsp_demo.Demo.server in
  let plan = ok_exn (Server.explain ~analyze:false server q) in
  (match Str.search_forward (Str.regexp_string "method=index-nl") plan 0 with
  | _ -> ()
  | exception Not_found -> Alcotest.failf "no index-NL join in\n%s" plan);
  let serialized q =
    Server.serialize_result server (ok_exn (Server.run server q))
  in
  Alcotest.check Alcotest.string "nested-loop bytes"
    (serialized ("(::pragma hint join-introduction=\"false\"::) " ^ q))
    (serialized q)

(* Row reconstruction runs once per hash candidate: on a PP-k join keyed
   on CID, the per-candidate let builds as many CREDIT_CARD elements as
   the join emits matches, not one per (left tuple, fetched row) pair. *)
let test_ppk_reconstructs_only_matches () =
  let demo = setup ~customers:20 () in
  let options =
    { Optimizer.default_options with Optimizer.ppk_k = 5; cost_based = false }
  in
  let server =
    Server.create ~optimizer_options:options demo.Aldsp_demo.Demo.registry
  in
  (* the whole right element is returned, so the reconstruction let is
     live (a field-only return drops it) *)
  let q =
    "for $c in CUSTOMER(), $x in CREDIT_CARD() where $c/CID eq $x/CID \
     return <R>{$c/CID, $x}</R>"
  in
  let compiled =
    match Server.compile server q with
    | Ok c -> c
    | Error _ -> Alcotest.fail "compile failed"
  in
  (* the text's first run, so its view holds this run's counters only *)
  ignore (run { demo with Aldsp_demo.Demo.server } q);
  let ir = compiled.Server.ir in
  let rows (o : Plan_ir.op) = ir.Plan_ir.totals.(o.Plan_ir.op_id).Plan_ir.c_rows in
  let ops =
    match ir.Plan_ir.tree.Plan_ir.node with
    | Plan_ir.P_pipeline { ops; _ } -> ops
    | _ -> Alcotest.fail "not a pipeline"
  in
  let join_act, let_act =
    match
      List.find_map
        (fun (o : Plan_ir.op) ->
          match o.Plan_ir.op_node with
          | Plan_ir.O_join
              { method_ = Cexpr.Ppk _;
                right = [ _; ({ op_node = Plan_ir.O_let _; _ } as let_) ];
                _ } ->
            Some (rows o, rows let_)
          | _ -> None)
        ops
    with
    | Some acts -> acts
    | None -> Alcotest.fail "no PP-k join with a reconstruction let"
  in
  check_bool "join matched rows" true (join_act > 0);
  check_int "let act = join act" join_act let_act

(* A PP-k join builds and ships only what later clauses read. Returning
   card fields, nothing reads the right row's reconstruction: the right
   side is the bare region, selecting and binding just the key and the
   returned column, and the block join still hashes. Returning the whole
   card keeps the let and every column. Both answer like the unoptimized
   reference. *)
let ppk_plan_shape_demo () =
  let demo =
    Aldsp_demo.Demo.create ~customers:200 ~orders_per_customer:0
      ~cards_per_customer:5 ()
  in
  let cards =
    ok_exn (Database.find_table demo.Aldsp_demo.Demo.card_db "CREDIT_CARD")
  in
  ok_exn (Table.create_index cards ~name:"card_cid" [ "CID" ]);
  demo

let ppk_right_side server q =
  let compiled =
    match Server.compile server q with
    | Ok c -> c
    | Error _ -> Alcotest.fail "compile failed"
  in
  let ops =
    match compiled.Server.ir.Plan_ir.tree.Plan_ir.node with
    | Plan_ir.P_pipeline { ops; _ } -> ops
    | _ -> Alcotest.fail "not a pipeline"
  in
  match
    List.find_map
      (fun (o : Plan_ir.op) ->
        match o.Plan_ir.op_node with
        | Plan_ir.O_join { method_ = Cexpr.Ppk { k; _ }; right; keys; _ } ->
          Some (k, right, keys)
        | _ -> None)
      ops
  with
  | Some shape -> shape
  | None -> Alcotest.fail "no PP-k join"

let check_ppk_plan_shape ~ret ~let_kept ~columns () =
  let demo = ppk_plan_shape_demo () in
  let registry = demo.Aldsp_demo.Demo.registry in
  let q =
    "(::pragma hint ppk-k=\"4\"::) for $c in CUSTOMER(), $x in CREDIT_CARD() \
     where $c/CID eq $x/CID return " ^ ret
  in
  let server = Server.create registry in
  let k, right, keys = ppk_right_side server q in
  check_int "hinted k" 4 k;
  check_bool "inner=inl" true (keys <> []);
  let region, lets =
    match right with
    | { Plan_ir.op_node = Plan_ir.O_sql r; _ } :: rest -> (r, rest)
    | _ -> Alcotest.fail "right side does not start with a region"
  in
  let is_let (o : Plan_ir.op) =
    match o.Plan_ir.op_node with Plan_ir.O_let _ -> true | _ -> false
  in
  check_bool "only lets after the region" true (List.for_all is_let lets);
  check_int "reconstruction lets" (if let_kept then 1 else 0)
    (List.length lets);
  let strings = Alcotest.(list string) in
  let projected =
    List.map
      (fun (e, alias) ->
        match e with
        | Sql_ast.Col (_, name) -> (name, alias)
        | _ -> Alcotest.fail "projection is not a column")
      region.Plan_ir.sql_select.Sql_ast.projections
  in
  Alcotest.check strings "projected columns" columns (List.map fst projected);
  Alcotest.check strings "bound columns" (List.map snd projected)
    (List.map (fun b -> b.Cexpr.bcol) region.Plan_ir.sql_binds);
  let reference =
    Server.create ~optimizer_options:Optimizer.reference_options registry
  in
  let serialized server =
    Server.serialize_result server (ok_exn (Server.run server q))
  in
  Alcotest.check Alcotest.string "same answer as the reference"
    (serialized reference) (serialized server)

let test_ppk_ships_read_columns =
  check_ppk_plan_shape ~ret:"<R>{$c/CID, $x/NUM}</R>" ~let_kept:false
    ~columns:[ "CID"; "NUM" ]

let test_ppk_keeps_live_reconstruction =
  check_ppk_plan_shape ~ret:"<R>{$c/CID, $x}</R>" ~let_kept:true
    ~columns:[ "CCID"; "CID"; "NUM"; "LIMIT_" ]

(* The PP-k join's allocation per joined row, over whole [Server.run]s
   of the bench's cross-database join (200 customers x 5 cards, CID
   index, no latency, no prefetch): the statements, the block join and
   the count, with no result constructed. Fetched rows are keyed from
   their key columns and bound once, onto slot frames; over a string-map
   environment the same runs allocated 495 words per joined row. *)
let test_ppk_allocation_per_row () =
  let demo = ppk_plan_shape_demo () in
  let server = Server.create demo.Aldsp_demo.Demo.registry in
  let q =
    "(::pragma hint ppk-prefetch=\"0\"::) fn:count(for $c in CUSTOMER(), \
     $x in CREDIT_CARD() where $c/CID eq $x/CID return $x/NUM)"
  in
  let count () =
    match ok_exn (Server.run server q) with
    | [ Item.Atom (Atomic.Integer n) ] -> n
    | _ -> Alcotest.fail "expected one integer"
  in
  let rows = count () in
  check_int "joined rows" 1000 rows;
  let runs = 5 in
  let before = Gc.minor_words () in
  for _ = 1 to runs do
    ignore (count ())
  done;
  let per_row = (Gc.minor_words () -. before) /. float_of_int (runs * rows) in
  check_bool
    (Printf.sprintf "%.0f words per joined row <= 247" per_row)
    true (per_row <= 247.)

let read_token stream =
  match Server.stream_read stream with
  | Ok tok -> tok
  | Error e -> Alcotest.fail (Server.submit_error_to_string e)

let rec stream_tokens stream acc =
  match read_token stream with
  | Some tok -> stream_tokens stream (tok :: acc)
  | None -> List.rev acc

let test_streaming_group_constant_memory_shape () =
  (* the pre-clustered group operator must be streaming: consuming the
     first group must not force the whole input. 200 customers x 2
     orders is 400 joined rows, several 64-row cursor fetches. *)
  let demo = setup ~customers:200 ~orders_per_customer:2 () in
  let server = demo.Aldsp_demo.Demo.server in
  let db = demo.Aldsp_demo.Demo.customer_db in
  let q =
    "for $c in CUSTOMER() return <C>{$c/CID, for $o in ORDER_T() where $o/CID eq $c/CID return $o/OID}</C>"
  in
  let stream =
    match Server.session_run_stream (Server.session server ()) q with
    | Ok stream -> stream
    | Error e -> Alcotest.fail (Server.submit_error_to_string e)
  in
  Aldsp_demo.Demo.reset_stats demo;
  check_bool "first token" true (read_token stream <> None);
  let shipped = db.Database.stats.Database.rows_shipped in
  check_bool
    (Printf.sprintf "first token after %d of 400 rows shipped" shipped)
    true (shipped < 400);
  ignore (stream_tokens stream []);
  check_int "whole result shipped once drained" 400
    db.Database.stats.Database.rows_shipped;
  check_int "slot released" 0 (Server.admission_stats server).Server.ad_active

let test_group_fallback_sorts () =
  (* unclustered group-by still groups correctly *)
  let demo = setup ~customers:9 () in
  let r =
    run demo
      "for $c in CUSTOMER() group $c as $g by $c/LAST_NAME as $l order by $l return <G name=\"{$l}\">{count($g)}</G>"
  in
  let total =
    List.fold_left
      (fun acc item ->
        match item with
        | Item.Node n -> acc + int_of_string (Node.string_value n)
        | _ -> acc)
      0 r
  in
  check_int "groups partition the input" 9 total

(* ------------------------------------------------------------------ *)
(* Async / fail-over / timeout (§5.4-5.6)                              *)

let test_async_overlaps_latency () =
  let demo = setup ~customers:1 ~service_latency:0.05 () in
  let q_sync =
    "<R>{getRating(<getRating><lName>{\"a\"}</lName><ssn>{\"1\"}</ssn></getRating>), \
     getRating(<getRating><lName>{\"b\"}</lName><ssn>{\"2\"}</ssn></getRating>), \
     getRating(<getRating><lName>{\"c\"}</lName><ssn>{\"3\"}</ssn></getRating>)}</R>"
  in
  let q_async =
    "<R>{fn-bea:async(getRating(<getRating><lName>{\"a\"}</lName><ssn>{\"1\"}</ssn></getRating>)), \
     fn-bea:async(getRating(<getRating><lName>{\"b\"}</lName><ssn>{\"2\"}</ssn></getRating>)), \
     fn-bea:async(getRating(<getRating><lName>{\"c\"}</lName><ssn>{\"3\"}</ssn></getRating>))}</R>"
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let t_sync, r_sync = time (fun () -> run demo q_sync) in
  let t_async, r_async = time (fun () -> run demo q_async) in
  check_bool "same results" true
    (Item.serialize r_sync = Item.serialize r_async);
  check_bool "sync pays 3 latencies" true (t_sync >= 0.14);
  check_bool "async overlaps" true (t_async < t_sync /. 1.5)

let test_fail_over_to_alternate () =
  let demo = setup ~customers:2 () in
  Web_service.set_unavailable demo.Aldsp_demo.Demo.rating_service true;
  let r =
    run demo
      "fn-bea:fail-over(fn:data(getRating(<getRating><lName>{\"x\"}</lName><ssn>{\"9\"}</ssn></getRating>)/getRatingResult), 0)"
  in
  check_bool "alternate returned" true
    (Item.equal_sequence r [ Item.integer 0 ]);
  Web_service.set_unavailable demo.Aldsp_demo.Demo.rating_service false;
  let r2 =
    run demo
      "fn-bea:fail-over(fn:data(getRating(<getRating><lName>{\"x\"}</lName><ssn>{\"9\"}</ssn></getRating>)/getRatingResult), 0)"
  in
  check_bool "primary when healthy" true (r2 <> [ Item.integer 0 ])

let test_fail_over_empty_partial_result () =
  (* "if a partial result is desired, the empty sequence can be returned as
     the alternate" *)
  let demo = setup ~customers:2 () in
  Web_service.set_unavailable demo.Aldsp_demo.Demo.rating_service true;
  let r =
    run demo
      "<P>{fn-bea:fail-over(getRating(<getRating><lName>{\"x\"}</lName><ssn>{\"9\"}</ssn></getRating>), ())}</P>"
  in
  check_bool "empty partial" true (Item.serialize r = "<P/>")

let test_timeout_slow_source () =
  let demo = setup ~customers:1 ~service_latency:0.2 () in
  let q =
    "fn-bea:timeout(fn:data(getRating(<getRating><lName>{\"x\"}</lName><ssn>{\"9\"}</ssn></getRating>)/getRatingResult), 30, -1)"
  in
  let r = run demo q in
  check_bool "timed out to alternate" true
    (Item.equal_sequence r [ Item.integer (-1) ]);
  (* generous budget: primary completes *)
  demo.Aldsp_demo.Demo.rating_service.Web_service.latency <- 0.0;
  let r2 =
    run demo
      "fn-bea:timeout(fn:data(getRating(<getRating><lName>{\"x\"}</lName><ssn>{\"9\"}</ssn></getRating>)/getRatingResult), 500, -1)"
  in
  check_bool "primary result" true (r2 <> [ Item.integer (-1) ])

let test_timeout_failure_also_fails_over () =
  let demo = setup ~customers:1 () in
  Web_service.set_unavailable demo.Aldsp_demo.Demo.rating_service true;
  let r =
    run demo
      "fn-bea:timeout(fn:data(getRating(<getRating><lName>{\"x\"}</lName><ssn>{\"9\"}</ssn></getRating>)/getRatingResult), 200, -1)"
  in
  check_bool "failure within window fails over" true
    (Item.equal_sequence r [ Item.integer (-1) ])

(* ------------------------------------------------------------------ *)
(* Function cache (§5.5)                                               *)

let make_cache ?clock () =
  let cache_db = Database.create "CacheDB" in
  Function_cache.create ?clock cache_db

let test_function_cache_hits () =
  let now = ref 0. in
  let cache = make_cache ~clock:(fun () -> !now) () in
  let demo = setup ~customers:3 ~function_cache:cache () in
  let name = Qname.make ~uri:"fn" "getCustomerNames" in
  Metadata.set_cacheable demo.Aldsp_demo.Demo.registry name true;
  Function_cache.enable cache name ~ttl_seconds:60.;
  let r1 = ok_exn (Server.call demo.Aldsp_demo.Demo.server name []) in
  check_int "first call misses" 1 (Function_cache.misses cache);
  Aldsp_demo.Demo.reset_stats demo;
  let r2 = ok_exn (Server.call demo.Aldsp_demo.Demo.server name []) in
  check_int "second call hits" 1 (Function_cache.hits cache);
  check_bool "same result" true (Item.serialize r1 = Item.serialize r2);
  (* the backing source is NOT touched on a hit *)
  check_int "no customer-db statement" 0
    demo.Aldsp_demo.Demo.customer_db.Database.stats.Database.statements;
  (* TTL expiry forces recompute *)
  now := 120.;
  ignore (ok_exn (Server.call demo.Aldsp_demo.Demo.server name []));
  check_int "stale entry missed" 2 (Function_cache.misses cache)

let test_function_cache_requires_designer_permission () =
  let cache = make_cache () in
  let demo = setup ~customers:3 ~function_cache:cache () in
  let name = Qname.make ~uri:"fn" "getCustomerNames" in
  (* enabled administratively but NOT designer-allowed: no caching *)
  Function_cache.enable cache name ~ttl_seconds:60.;
  ignore (ok_exn (Server.call demo.Aldsp_demo.Demo.server name []));
  ignore (ok_exn (Server.call demo.Aldsp_demo.Demo.server name []));
  check_int "no hits" 0 (Function_cache.hits cache)

let test_function_cache_args_distinguish () =
  let cache = make_cache () in
  let demo = setup ~customers:3 ~function_cache:cache () in
  let name = Qname.make ~uri:"fn" "getProfileByID" in
  Metadata.set_cacheable demo.Aldsp_demo.Demo.registry name true;
  Function_cache.enable cache name ~ttl_seconds:60.;
  let r1 =
    ok_exn
      (Server.call demo.Aldsp_demo.Demo.server name [ [ Item.string "CUST0001" ] ])
  in
  let r2 =
    ok_exn
      (Server.call demo.Aldsp_demo.Demo.server name [ [ Item.string "CUST0002" ] ])
  in
  check_bool "different args, different results" true
    (Item.serialize r1 <> Item.serialize r2);
  check_int "both missed" 2 (Function_cache.misses cache)

(* Invalidation drops exactly one function's entries, persistent rows
   and typed values alike: [_] in a name is not a wildcard, so
   [getAx]'s entry outlives [invalidate get_x]. *)
let test_function_cache_invalidate () =
  let cache = make_cache () in
  let get_x = Qname.make ~uri:"fn" "get_x" in
  let get_ax = Qname.make ~uri:"fn" "getAx" in
  let arg = [ [ Item.string "k" ] ] in
  Function_cache.store cache get_x arg [ Item.integer 1 ];
  Function_cache.store cache get_ax arg [ Item.integer 2 ];
  Function_cache.invalidate cache get_x;
  check_bool "get_x dropped" true
    (Function_cache.lookup cache get_x arg = None);
  check_int "getAx's typed value kept" 1
    (Function_cache.materialized_count cache);
  match Function_cache.lookup cache get_ax arg with
  | Some v ->
    check_bool "getAx kept" true (Item.equal_sequence v [ Item.integer 2 ])
  | None -> Alcotest.fail "invalidate get_x dropped getAx's entry"

(* A key keeps each argument's item boundaries and atomic types: after
   [countAll(("a", "b"))] the call [countAll("a b")] is a miss, not the
   cached 2; [1] and ["1"], and two arguments against one argument of
   two items, are distinct entries too. *)
let test_function_cache_key_boundaries () =
  let cache = make_cache () in
  let demo = setup ~customers:1 ~function_cache:cache () in
  let server = demo.Aldsp_demo.Demo.server in
  (match
     Server.register_data_service server ~name:"CountDS"
       {|declare function countAll($s as xs:string*) as xs:integer { fn:count($s) };|}
   with
  | Ok () -> ()
  | Error ds ->
    Alcotest.failf "register: %s" (String.concat "; " (List.map Diag.to_string ds)));
  let name =
    (List.find
       (fun fd -> fd.Metadata.fd_name.Qname.local = "countAll")
       (Metadata.functions demo.Aldsp_demo.Demo.registry))
      .Metadata.fd_name
  in
  Metadata.set_cacheable demo.Aldsp_demo.Demo.registry name true;
  Function_cache.enable cache name ~ttl_seconds:60.;
  let count args = Item.serialize (ok_exn (Server.call server name [ args ])) in
  Alcotest.(check string) "two items" "2" (count [ Item.string "a"; Item.string "b" ]);
  Alcotest.(check string) "one item with a space" "1" (count [ Item.string "a b" ]);
  check_int "no hit" 0 (Function_cache.hits cache);
  check_int "two misses" 2 (Function_cache.misses cache);
  let f = Qname.make ~uri:"fn" "f" in
  Function_cache.store cache f [ [ Item.integer 1 ] ] [ Item.integer 1 ];
  Function_cache.store cache f [ [ Item.string "x" ]; [ Item.string "y" ] ]
    [ Item.integer 2 ];
  check_bool "an integer key does not answer a string" true
    (Function_cache.lookup cache f [ [ Item.string "1" ] ] = None);
  check_bool "two arguments do not answer one of two items" true
    (Function_cache.lookup cache f [ [ Item.string "x"; Item.string "y" ] ]
     = None);
  check_bool "the stored key still hits" true
    (Function_cache.lookup cache f [ [ Item.integer 1 ] ] <> None)

(* ------------------------------------------------------------------ *)
(* Plan cache                                                          *)

let test_plan_cache () =
  let demo = setup ~customers:3 () in
  let q = "for $c in CUSTOMER() return $c/CID" in
  ignore (run demo q);
  ignore (run demo q);
  ignore (run demo q);
  check_bool "hits" true (Server.plan_cache_hits demo.Aldsp_demo.Demo.server >= 2)

let test_plan_cache_lru () =
  let key q =
    { Plan_cache.k_query = q; k_options = "opts"; k_generation = 1;
      k_stats = 0 }
  in
  let cache = Plan_cache.create ~capacity:2 in
  Plan_cache.add cache (key "a") 1;
  Plan_cache.add cache (key "b") 2;
  ignore (Plan_cache.find cache (key "a"));
  Plan_cache.add cache (key "c") 3;
  (* b was least recently used *)
  check_bool "b evicted" true (Plan_cache.find cache (key "b") = None);
  check_bool "a kept" true (Plan_cache.find cache (key "a") = Some 1);
  check_int "size bounded" 2 (Plan_cache.size cache);
  (* staleness: same query under another generation misses, and the sweep
     drops old-generation entries *)
  let newer = { (key "a") with Plan_cache.k_generation = 2 } in
  check_bool "stale gen misses" true (Plan_cache.find cache newer = None);
  Plan_cache.add cache newer 4;
  Plan_cache.purge_stale cache ~generation:2 ~stats:0;
  check_int "purged to current gen" 1 (Plan_cache.size cache);
  check_bool "current kept" true (Plan_cache.find cache newer = Some 4);
  (* a data mutation moves the statistics generation; plans costed against
     the old statistics are swept the same way *)
  Plan_cache.purge_stale cache ~generation:2 ~stats:1;
  check_int "stale stats purged" 0 (Plan_cache.size cache)

(* ------------------------------------------------------------------ *)
(* Security (§7)                                                       *)

let test_function_acl () =
  let demo = setup ~customers:2 () in
  let sec = Server.security demo.Aldsp_demo.Demo.server in
  let name = Qname.make ~uri:"fn" "getProfile" in
  Security.restrict_function sec name ~roles:[ "hr" ];
  let clerk = { Security.user_name = "clerk"; roles = [ "support" ] } in
  let hr = { Security.user_name = "pat"; roles = [ "hr" ] } in
  ignore (err_exn (Server.call demo.Aldsp_demo.Demo.server ~user:clerk name []));
  ignore (ok_exn (Server.call demo.Aldsp_demo.Demo.server ~user:hr name []))

let test_element_level_filtering () =
  let demo = setup ~customers:2 () in
  let sec = Server.security demo.Aldsp_demo.Demo.server in
  Security.add_resource sec
    { Security.resource_label = "ssn-ish";
      resource_path = [ Qname.local "PROFILE"; Qname.local "RATING" ];
      allowed_roles = [ "credit" ];
      on_deny = Security.Replace (Atomic.String "***") };
  Security.add_resource sec
    { Security.resource_label = "orders";
      resource_path = [ Qname.local "PROFILE"; Qname.local "ORDERS" ];
      allowed_roles = [ "sales" ];
      on_deny = Security.Remove };
  let clerk = { Security.user_name = "clerk"; roles = [ "support" ] } in
  let r =
    ok_exn
      (Server.run demo.Aldsp_demo.Demo.server ~user:clerk
         "getProfileByID(\"CUST0001\")")
  in
  let text = Item.serialize r in
  check_bool "rating masked" true
    (let rec contains i =
       i + 16 <= String.length text
       && (String.sub text i 16 = "<RATING>***</RAT" || contains (i + 1))
     in
     contains 0);
  check_bool "orders removed" false
    (let rec contains i =
       i + 8 <= String.length text
       && (String.sub text i 8 = "<ORDERS>" || contains (i + 1))
     in
     contains 0);
  (* admin sees everything *)
  let r_admin =
    ok_exn (Server.run demo.Aldsp_demo.Demo.server "getProfileByID(\"CUST0001\")")
  in
  let t_admin = Item.serialize r_admin in
  check_bool "admin unfiltered" true
    (let rec contains i =
       i + 8 <= String.length t_admin
       && (String.sub t_admin i 8 = "<ORDERS>" || contains (i + 1))
     in
     contains 0)

let test_security_after_cache () =
  (* cache stores the unfiltered result; a restricted user still gets the
     filtered view on a cache hit (§7) *)
  let cache = make_cache () in
  let demo = setup ~customers:2 ~function_cache:cache () in
  let sec = Server.security demo.Aldsp_demo.Demo.server in
  let name = Qname.make ~uri:"fn" "getProfileByID" in
  Metadata.set_cacheable demo.Aldsp_demo.Demo.registry name true;
  Function_cache.enable cache name ~ttl_seconds:60.;
  Security.add_resource sec
    { Security.resource_label = "rating";
      resource_path = [ Qname.local "PROFILE"; Qname.local "RATING" ];
      allowed_roles = [ "credit" ];
      on_deny = Security.Remove };
  (* admin populates the cache with the full result *)
  ignore
    (ok_exn
       (Server.call demo.Aldsp_demo.Demo.server name [ [ Item.string "CUST0001" ] ]));
  let clerk = { Security.user_name = "clerk"; roles = [] } in
  let r =
    ok_exn
      (Server.call demo.Aldsp_demo.Demo.server ~user:clerk name
         [ [ Item.string "CUST0001" ] ])
  in
  check_int "served from cache" 1 (Function_cache.hits cache);
  check_bool "still filtered" false
    (let t = Item.serialize r in
     let rec contains i =
       i + 8 <= String.length t && (String.sub t i 8 = "<RATING>" || contains (i + 1))
     in
     contains 0)

let test_audit_records () =
  let audit = Audit.create ~level:Audit.Summary () in
  let demo = setup ~customers:2 ~audit () in
  ignore
    (ok_exn
       (Server.call demo.Aldsp_demo.Demo.server
          (Qname.make ~uri:"fn" "getCustomerNames")
          []));
  check_bool "service calls audited" true
    (List.exists
       (fun e -> e.Audit.category = "service-call")
       (Audit.events audit));
  (* detail level gating *)
  check_bool "summary drops detail" true
    (List.for_all (fun e -> e.Audit.detail = None) (Audit.events audit))

(* The token filter against goldens captured from the tree walk it
   replaced: one hand-made sequence — atoms between items, a text item,
   a root-level path that drops a whole item, matches at depth 2 and 3, a
   replacement on an element with attributes and on an empty one, and
   policies nested inside a removed and inside a replaced subtree, which
   must not fire — filtered for three users. The audit events, details
   included, are the tree walk's too. *)
let security_sequence =
  let el ?(attributes = []) name children =
    Node.element ~attributes (Qname.local name) children
  in
  let txt s = Node.atom (Atomic.String s) in
  [ Item.Atom (Atomic.String "lead");
    Item.Node
      (el ~attributes:[ (Qname.local "id", Atomic.Integer 1) ] "A"
         [ el "B" [ el "C" [ txt "c1" ]; el "D" [ txt "d&1" ] ];
           el ~attributes:[ (Qname.local "x", Atomic.String "y\"") ] "E"
             [ el "K" [ txt "k" ] ];
           el "F" [ el "G" [ el "H" [ txt "h" ] ]; Node.text "f" ] ]);
    Item.Atom (Atomic.Integer 42);
    Item.Node (el "Z" [ el "A" [ el "E" [ txt "z" ] ] ]);
    Item.Node
      (el ~attributes:[ (Qname.local "id", Atomic.Integer 2) ] "A"
         [ el "B" [ el "C" []; el "C" [ txt "c3" ] ]; el "E" [] ]);
    Item.Node (Node.text "t<x");
    Item.Atom (Atomic.Decimal 1.5) ]

let security_policies =
  let policy label names roles on_deny =
    { Security.resource_label = label;
      resource_path = List.map Qname.local names;
      allowed_roles = roles;
      on_deny }
  in
  [ policy "c" [ "A"; "B"; "C" ] [ "sales" ] Security.Remove;
    policy "e" [ "A"; "E" ] [ "credit" ]
      (Security.Replace (Atomic.String "***"));
    policy "f" [ "A"; "F" ] [ "sales" ] Security.Remove;
    policy "g" [ "A"; "F"; "G" ] [ "hr" ] (Security.Replace (Atomic.Integer 0));
    policy "k" [ "A"; "E"; "K" ] [ "hr" ] Security.Remove;
    policy "z" [ "Z" ] [ "hr" ] Security.Remove ]

let security_goldens =
  [ ( { Security.user_name = "nobody"; roles = [] },
      "lead<A id=\"1\"><B><D>d&amp;1</D></B><E x=\"y&quot;\">***</E></A>42<A \
       id=\"2\"><B/><E>***</E></A>t&lt;x1.5",
      [ ("security", "remove resource c for nobody", Some "<C>c1</C>");
        ("security", "replace resource e for nobody", None);
        ( "security",
          "remove resource f for nobody",
          Some "<F><G><H>h</H></G>f</F>" );
        ( "security",
          "remove resource z for nobody",
          Some "<Z><A><E>z</E></A></Z>" );
        ("security", "remove resource c for nobody", Some "<C/>");
        ("security", "remove resource c for nobody", Some "<C>c3</C>");
        ("security", "replace resource e for nobody", None) ] );
    ( { Security.user_name = "seller"; roles = [ "sales" ] },
      "lead<A id=\"1\"><B><C>c1</C><D>d&amp;1</D></B><E \
       x=\"y&quot;\">***</E><F><G>0</G>f</F></A>42<A \
       id=\"2\"><B><C/><C>c3</C></B><E>***</E></A>t&lt;x1.5",
      [ ("security", "replace resource e for seller", None);
        ("security", "replace resource g for seller", None);
        ( "security",
          "remove resource z for seller",
          Some "<Z><A><E>z</E></A></Z>" );
        ("security", "replace resource e for seller", None) ] );
    ( { Security.user_name = "lender"; roles = [ "credit" ] },
      "lead<A id=\"1\"><B><D>d&amp;1</D></B><E x=\"y&quot;\"/></A>42<A \
       id=\"2\"><B/><E/></A>t&lt;x1.5",
      [ ("security", "remove resource c for lender", Some "<C>c1</C>");
        ("security", "remove resource k for lender", Some "<K>k</K>");
        ( "security",
          "remove resource f for lender",
          Some "<F><G><H>h</H></G>f</F>" );
        ( "security",
          "remove resource z for lender",
          Some "<Z><A><E>z</E></A></Z>" );
        ("security", "remove resource c for lender", Some "<C/>");
        ("security", "remove resource c for lender", Some "<C>c3</C>") ] ) ]

let test_token_filter_goldens () =
  let check_string = Alcotest.check Alcotest.string in
  let events =
    Alcotest.(list (triple string string (option string)))
  in
  let security level =
    let audit = Audit.create ~level () in
    let sec = Security.create ~audit () in
    List.iter (Security.add_resource sec) security_policies;
    (sec, audit)
  in
  let recorded audit =
    List.map
      (fun e -> (e.Audit.category, e.Audit.summary, e.Audit.detail))
      (Audit.events audit)
  in
  (* materialized delivery: the filter around a building sink *)
  let filtered sec user items =
    let sink, built = Aldsp_tokens.Token_stream.building_sink () in
    (Security.filter_tokens sec user sink).Aldsp_tokens.Token_stream.items
      items;
    built ()
  in
  List.iter
    (fun (user, bytes, expected) ->
      let who = user.Security.user_name in
      (* the materialized result, filtered and reassembled *)
      let sec, audit = security Audit.Detailed in
      let items = filtered sec user security_sequence in
      let buf = Buffer.create 256 in
      ignore (Aldsp_tokens.Token_stream.serialize_items buf items);
      check_string ("filtered items, " ^ who) bytes (Buffer.contents buf);
      Alcotest.check events ("audit, " ^ who) expected (recorded audit);
      (* the filter alone, token by token into the writer *)
      let sec, audit = security Audit.Summary in
      let buf = Buffer.create 256 in
      let w = Aldsp_tokens.Token_stream.chunk_writer (Buffer.add_string buf) in
      let filter =
        Security.filter_tokens sec user
          (Aldsp_tokens.Token_stream.token_sink
             (Aldsp_tokens.Token_stream.chunk_write w))
      in
      filter.Aldsp_tokens.Token_stream.items security_sequence;
      Aldsp_tokens.Token_stream.chunk_close w;
      check_string ("filtered tokens, " ^ who) bytes (Buffer.contents buf);
      Alcotest.check events ("summary audit, " ^ who)
        (List.map (fun (c, s, _) -> (c, s, None)) expected)
        (recorded audit))
    security_goldens;
  (* a user no policy fails gets the sink and the items back untouched *)
  let sec, audit = security Audit.Detailed in
  let sink = Aldsp_tokens.Token_stream.token_sink ignore in
  check_bool "admin's filter is the sink itself" true
    (Security.filter_tokens sec Security.admin sink == sink);
  check_bool "admin's items are the input itself" true
    (filtered sec Security.admin security_sequence == security_sequence);
  check_int "nothing audited for admin" 0 (List.length (Audit.events audit))

(* ------------------------------------------------------------------ *)
(* Server APIs                                                          *)

let test_design_time_check_reports_all () =
  let demo = setup ~customers:2 () in
  let diags =
    Server.design_time_check demo.Aldsp_demo.Demo.server
      {|declare function a:bad1() { $nope };
declare function a:bad2() { fn:no-such(1) };
declare function a:good() { 1 };|}
  in
  check_bool "multiple diagnostics" true (List.length diags >= 2);
  (* and the live registry is untouched *)
  check_bool "not registered" true
    (Metadata.find_function demo.Aldsp_demo.Demo.registry
       (Qname.make ~uri:"urn:a" "good") 0
    = None)

let test_prolog_variables () =
  let demo = setup ~customers:5 () in
  let q =
    "declare variable $threshold := 2000;\n     declare variable $label := \"CUST\";\n     for $c in CUSTOMER() where $c/SINCE gt $threshold and fn:starts-with($c/CID, $label) return $c/CID"
  in
  let r = run demo q in
  check_bool "variables usable in the body" true (List.length r > 0);
  (* and inside declared functions *)
  let q2 =
    "declare namespace my = \"urn:my\";\n     declare variable $base := 40;\n     declare function my:f($x as xs:integer) as xs:integer { $x + $base };\n     my:f(2)"
  in
  check_bool "variables usable in functions" true
    (Item.serialize (run demo q2) = "42")

let test_declarative_hints () =
  (* §9 roadmap: query-level hints tune the optimizer per compilation *)
  let demo = setup ~customers:12 () in
  let hinted =
    "(::pragma hint ppk-k=\"4\" ::)\nfor $c in CUSTOMER(), $x in CREDIT_CARD() where $c/CID eq $x/CID return <R>{$c/CID}</R>"
  in
  Aldsp_demo.Demo.reset_stats demo;
  let r = run demo hinted in
  check_int "result intact" 12 (List.length r);
  check_int "k=4 over 12 tuples -> 3 blocks" 3
    demo.Aldsp_demo.Demo.card_db.Database.stats.Database.statements;
  (* inline-views="false" keeps the view call visible in the plan *)
  let no_inline =
    "(::pragma hint inline-views=\"false\" ::)\ngetCustomerNames()"
  in
  (match Server.compile demo.Aldsp_demo.Demo.server no_inline with
  | Ok compiled -> (
    match compiled.Server.plan with
    | Cexpr.Call { fn; _ } ->
      check_bool "call preserved" true (fn.Qname.local = "getCustomerNames")
    | p -> Alcotest.failf "view inlined despite hint: %s" (Cexpr.to_string p))
  | Error _ -> Alcotest.fail "compile failed")

let test_session_run_stream () =
  let demo = setup ~customers:2 () in
  let ses = Server.session demo.Aldsp_demo.Demo.server () in
  let stream =
    match Server.session_run_stream ses "getCustomerNames()" with
    | Ok stream -> stream
    | Error e -> Alcotest.fail (Server.submit_error_to_string e)
  in
  let items =
    ok_exn
      (Aldsp_tokens.Token_stream.to_items (List.to_seq (stream_tokens stream [])))
  in
  check_int "two names" 2 (List.length items)

let () =
  let t name f = Alcotest.test_case name `Quick f in
  Alcotest.run "runtime"
    [ ( "joins",
        [ t "PP-k roundtrips scale with k" test_ppk_roundtrips_scale_with_k;
          t "PP-k matches NL" test_ppk_results_match_nl;
          t "PP-k reconstructs only matches" test_ppk_reconstructs_only_matches;
          t "PP-k ships only read columns" test_ppk_ships_read_columns;
          t "PP-k keeps a live reconstruction" test_ppk_keeps_live_reconstruction;
          t "PP-k allocation per joined row" test_ppk_allocation_per_row;
          t "streaming group" test_streaming_group_constant_memory_shape;
          t "group fallback" test_group_fallback_sorts ] );
      ( "ppk-hash-join",
        List.map
          (fun (name, q) -> t name (differential_hash_join q))
          hash_join_cases
        @ [ t "key type mismatch" test_hash_join_type_mismatch ] );
      ( "index-nl-join",
        List.map (fun (name, q) -> t name (inl_join_matches_nl q)) inl_join_cases
      );
      ( "resilience",
        [ t "async overlap" test_async_overlaps_latency;
          t "fail-over" test_fail_over_to_alternate;
          t "fail-over empty" test_fail_over_empty_partial_result;
          t "timeout slow" test_timeout_slow_source;
          t "timeout on failure" test_timeout_failure_also_fails_over ] );
      ( "function-cache",
        [ t "hit/miss/ttl" test_function_cache_hits;
          t "designer permission" test_function_cache_requires_designer_permission;
          t "args distinguish" test_function_cache_args_distinguish;
          t "invalidate one function" test_function_cache_invalidate;
          t "keys keep item boundaries and types"
            test_function_cache_key_boundaries ] );
      ( "plan-cache",
        [ t "server reuses plans" test_plan_cache; t "LRU" test_plan_cache_lru ] );
      ( "security",
        [ t "function ACL" test_function_acl;
          t "element filtering" test_element_level_filtering;
          t "filter after cache" test_security_after_cache;
          t "audit" test_audit_records;
          t "token filter goldens" test_token_filter_goldens ] );
      ( "server",
        [ t "design-time check" test_design_time_check_reports_all;
          t "prolog variables" test_prolog_variables;
          t "declarative hints" test_declarative_hints;
          t "streaming API" test_session_run_stream ] ) ]
