(* Tests for the physical plan IR and the unified cross-layer EXPLAIN:
   per-operator counters against the server's own rollups, plan-cache
   staleness across metadata generations, and golden EXPLAIN renderings
   across the five SQL dialects. *)

open Aldsp_core
open Aldsp_xml
open Aldsp_relational
open Aldsp_check

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int
let check_string = Alcotest.check Alcotest.string

let ok_exn = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let compile_exn server q =
  match Server.compile server q with
  | Ok c -> c
  | Error ds ->
    Alcotest.failf "compile failed: %s"
      (String.concat "; " (List.map Diag.to_string ds))

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* The unified tree: middleware operators, counters, backend lines     *)

let test_unified_tree () =
  let demo = Aldsp_demo.Demo.create ~customers:4 ~orders_per_customer:2 () in
  let q =
    "for $c in CUSTOMER() where $c/LAST_NAME eq \"Smith\" return \
     <R>{$c/CID}</R>"
  in
  let text = ok_exn (Server.explain demo.Aldsp_demo.Demo.server q) in
  check_bool "static type line" true (contains text "static type:");
  check_bool "plan header" true (contains text "plan:");
  check_bool "pushed region carries db and dialect" true
    (contains text "sql[CustomerDB dialect=Oracle]");
  check_bool "statement printed in dialect" true
    (contains text "WHERE t1.\"LAST_NAME\" = 'Smith'");
  check_bool "backend access path nested under region" true
    (contains text "backend: scan CUSTOMER");
  check_bool "counters on operator lines" true (contains text "act=");
  check_bool "estimates on operator lines" true (contains text "est=");
  check_bool "no wall times by default" true (not (contains text "wall="));
  (* timings mode adds wall-clock fields *)
  let timed = ok_exn (Server.explain ~timings:true demo.Aldsp_demo.Demo.server q) in
  check_bool "timings adds wall fields" true (contains timed "wall=");
  (* analyze:false on a fresh server renders the static tree: no backend
     capture, zero counters *)
  let fresh = Aldsp_demo.Demo.create ~customers:4 ~orders_per_customer:2 () in
  let static_ =
    ok_exn (Server.explain ~analyze:false fresh.Aldsp_demo.Demo.server q)
  in
  check_bool "static render has no backend lines" true
    (not (contains static_ "backend:"));
  check_bool "static render has zero rows" true (contains static_ "act=0");
  check_bool "static render never executed" true
    (not (contains static_ "act=4"))

let test_explain_deterministic () =
  let demo = Aldsp_demo.Demo.create ~customers:5 ~orders_per_customer:2 () in
  let q =
    "for $c in CUSTOMER(), $o in ORDER_T() where $c/CID eq $o/CID order by \
     $c/CID return <R>{$c/CID, $o/OID}</R>"
  in
  let t1 = ok_exn (Server.explain demo.Aldsp_demo.Demo.server q) in
  let t2 = ok_exn (Server.explain demo.Aldsp_demo.Demo.server q) in
  check_string "EXPLAIN is byte-stable across runs" t1 t2

(* ------------------------------------------------------------------ *)
(* Counters vs the server rollups                                      *)

(* PP-k with k=2 over 6 outer rows: the inner pushed region must report
   ceil(6/2) = 3 roundtrips, and the same number must appear in the
   Observed rollup surfaced by Server.stats. *)
let test_ppk_roundtrip_counters () =
  let demo =
    Aldsp_demo.Demo.create ~customers:6 ~orders_per_customer:0
      ~cards_per_customer:1 ()
  in
  let obs = Observed.create () in
  let server =
    Server.create
      ~optimizer_options:
        { Optimizer.default_options with
          Optimizer.ppk_k = 2;
          ppk_prefetch = 0;
          cost_based = false (* the test pins k=2 block accounting *) }
      ~observed:obs demo.Aldsp_demo.Demo.registry
  in
  let q =
    "for $c in CUSTOMER(), $k in CREDIT_CARD() where $c/CID eq $k/CID \
     return <R>{$c/CID, $k/NUM}</R>"
  in
  let compiled = compile_exn server q in
  let items = ok_exn (Server.run server q) in
  check_int "six joined rows" 6 (List.length items);
  (match Plan_ir.regions compiled.Server.ir with
  | [ outer; inner ] ->
    check_string "outer region db" "CustomerDB" outer.Plan_ir.sql_db;
    check_string "inner region db" "CardDB" inner.Plan_ir.sql_db
  | rs -> Alcotest.failf "expected 2 pushed regions, found %d" (List.length rs));
  (* counters live on the operator lines (same labels render prints) *)
  let sql_ops =
    List.filter
      (fun (label, _) -> contains label "sql[")
      (Plan_ir.operators compiled.Server.ir)
  in
  (match sql_ops with
  | [ (outer_l, outer_c); (inner_l, inner_c) ] ->
    check_bool "outer op is CustomerDB" true (contains outer_l "CustomerDB");
    check_bool "inner op is CardDB" true (contains inner_l "CardDB");
    check_int "outer: one statement" 1 outer_c.Plan_ir.c_roundtrips;
    check_int "outer: all customers shipped" 6 outer_c.Plan_ir.c_rows;
    check_int "inner: ceil(6/2) PP-k blocks" 3 inner_c.Plan_ir.c_roundtrips;
    check_int "inner: six card rows" 6 inner_c.Plan_ir.c_rows;
    check_bool "the text's view keeps no backend lines" true
      (inner_c.Plan_ir.c_more.Plan_ir.c_backend = [])
  | ops -> Alcotest.failf "expected 2 sql operators, found %d" (List.length ops));
  let stats = Server.stats server in
  check_int "EXPLAIN roundtrips match Observed rollup" 3
    stats.Server.st_roundtrips;
  (* EXPLAIN ANALYZE renders the backend lines of the run it executed *)
  let text = ok_exn (Server.explain server q) in
  let rec from_inner = function
    | [] -> []
    | line :: rest -> if contains line "sql[CardDB" then rest else from_inner rest
  in
  check_bool "backend plan captured for inner region" true
    (List.exists
       (fun line -> contains line "backend: ")
       (from_inner (String.split_on_char '\n' text)))

(* A cacheable call site: first run misses (computes), second hits; the
   plan's call-site counters must agree with the function-cache rollup in
   Server.stats. *)
(* PP-k's [inner=] says how each block is joined in the middleware, in
   both the plan tree and the core-expression printer: [inl] for a join
   the executor hashes on its keys, [nl] for one with a non-equi conjunct
   it can only nest-loop. *)
let test_ppk_inner_labels () =
  let demo = Aldsp_demo.Demo.create ~customers:5 ~orders_per_customer:0 () in
  let server = demo.Aldsp_demo.Demo.server in
  let hint = "(::pragma hint ppk-k=\"3\"::) " in
  let hashed =
    "for $c in CUSTOMER(), $x in CREDIT_CARD() where $c/CID eq $x/CID \
     return <R>{$c/CID, $x/NUM}</R>"
  in
  let nested =
    "for $c in CUSTOMER() return <C>{$c/CID}{for $x in CREDIT_CARD() \
     where $x/CID eq $c/CID and $x/CCID gt $c/SINCE return $x/NUM}</C>"
  in
  let labels q =
    let text = ok_exn (Server.explain ~analyze:false server (hint ^ q)) in
    let core = Cexpr.to_string (compile_exn server (hint ^ q)).Server.plan in
    (text, core)
  in
  let text, core = labels hashed in
  check_bool "hashed: plan label" true
    (contains text "method=pp-k(k=3, prefetch=1, inner=inl)");
  check_bool "hashed: core label" true (contains core "pp-3+1/inl");
  let text, core = labels nested in
  check_bool "non-equi: plan label" true
    (contains text "method=pp-k(k=3, prefetch=1, inner=nl)");
  check_bool "non-equi: core label" true (contains core "pp-3+1/nl")

let test_cache_hit_counters () =
  let cache = Function_cache.create (Database.create "CacheDB") in
  let demo =
    Aldsp_demo.Demo.create ~customers:3 ~orders_per_customer:1
      ~function_cache:cache ()
  in
  let server = demo.Aldsp_demo.Demo.server in
  let name = Qname.make ~uri:"fn" "getCustomerNames" in
  Metadata.set_cacheable demo.Aldsp_demo.Demo.registry name true;
  Function_cache.enable cache name ~ttl_seconds:60.;
  let q = "count(getCustomerNames())" in
  let compiled = compile_exn server q in
  let r1 = ok_exn (Server.run server q) in
  let r2 = ok_exn (Server.run server q) in
  check_string "cached run identical" (Item.serialize r1) (Item.serialize r2);
  let hits, misses =
    List.fold_left
      (fun (h, m) (_, c) ->
        let c = c.Plan_ir.c_more in
        (h + c.Plan_ir.c_cache_hits, m + c.Plan_ir.c_cache_misses))
      (0, 0)
      (Plan_ir.operators compiled.Server.ir)
  in
  check_int "one computed call on the site" 1 misses;
  check_int "one cache hit on the site" 1 hits;
  let stats = Server.stats server in
  check_int "matches st_function_cache_hits" stats.Server.st_function_cache_hits
    hits;
  check_int "matches st_function_cache_misses"
    stats.Server.st_function_cache_misses misses;
  (* and the rendered tree marks the site cacheable with its counters *)
  let text = ok_exn (Server.explain ~analyze:false server q) in
  check_bool "call site marked cacheable" true (contains text "[cacheable]")

(* ------------------------------------------------------------------ *)
(* Plan cache across metadata generations                              *)

let test_plan_cache_staleness () =
  let demo = Aldsp_demo.Demo.create ~customers:3 ~orders_per_customer:1 () in
  let server = demo.Aldsp_demo.Demo.server in
  let q = "count(CUSTOMER())" in
  ignore (compile_exn server q);
  let m1 = Server.plan_cache_misses server in
  let h1 = Server.plan_cache_hits server in
  ignore (compile_exn server q);
  check_int "second compile is a hit" m1 (Server.plan_cache_misses server);
  check_int "hit recorded" (h1 + 1) (Server.plan_cache_hits server);
  (* any registry mutation moves the generation; the cached plan must not
     be served across it *)
  Metadata.set_cacheable demo.Aldsp_demo.Demo.registry
    (Qname.make ~uri:"fn" "getCustomerNames")
    true;
  ignore (compile_exn server q);
  check_int "metadata change forces recompilation" (m1 + 1)
    (Server.plan_cache_misses server);
  ignore (compile_exn server q);
  check_int "steady state hits again" (m1 + 1)
    (Server.plan_cache_misses server)

let test_compile_once_execute_twice () =
  let demo = Aldsp_demo.Demo.create ~customers:5 ~orders_per_customer:2 () in
  let server = demo.Aldsp_demo.Demo.server in
  let q =
    "for $c in CUSTOMER() order by $c/CID return <R>{$c/CID, $c/LAST_NAME}</R>"
  in
  let a = ok_exn (Server.run server q) in
  let misses = Server.plan_cache_misses server in
  let b = ok_exn (Server.run server q) in
  check_string "cold and cached runs byte-identical" (Item.serialize a)
    (Item.serialize b);
  check_int "zero compilations on the second run" misses
    (Server.plan_cache_misses server)

(* ------------------------------------------------------------------ *)
(* Call shapes: a data-service call's literal arguments are lifted into
   bound parameters, so one compile serves every literal                *)

let shape_service =
  {|(::pragma function kind="read" ::)
declare function orderByID($id) as element(ORDER_T)* {
  for $o in ORDER_T() where $o/OID eq $id return $o
};
(::pragma function kind="read" ::)
declare function tagged($s as xs:string) as element(T) { <T>{$s}</T> };
(::pragma function kind="read" ::)
declare function firstCIDs($n as xs:integer) as xs:string* {
  fn:subsequence(for $c in CUSTOMER() order by $c/CID return fn:data($c/CID), 1, $n)
};|}

let shape_demo () =
  let demo = Aldsp_demo.Demo.create ~customers:50 ~orders_per_customer:2 () in
  (match
     Server.register_data_service demo.Aldsp_demo.Demo.server ~name:"ShapeDS"
       shape_service
   with
  | Ok () -> ()
  | Error ds ->
    Alcotest.failf "register: %s" (String.concat "; " (List.map Diag.to_string ds)));
  demo

(* [q] on [server] must serialize exactly as on a reference server over
   the same registry *)
let check_reference server q =
  let reference = Server.reference (Server.registry server) in
  let run s = Item.serialize (ok_exn (Server.run s q)) in
  check_string (q ^ " matches the reference") (run reference) (run server)

let test_one_compile_per_shape () =
  let demo = shape_demo () in
  let server = demo.Aldsp_demo.Demo.server in
  let misses = Server.plan_cache_misses server in
  for i = 1 to 50 do
    check_reference server (Printf.sprintf "getProfileByID(\"CUST%04d\")" i)
  done;
  check_int "one full compile for 50 keys" (misses + 1)
    (Server.plan_cache_misses server);
  let text =
    ok_exn (Server.explain server "getProfileByID(\"CUST0042\")")
  in
  check_bool "the key is a SQL parameter" true
    (contains text "WHERE t1.\"CID\" = ?");
  check_bool "EXPLAIN prints the bound value" true
    (contains text "param ?1 := 'CUST0042'");
  check_bool "still probes the primary key" true
    (contains text "index probe CUSTOMER.pk_CUSTOMER")

(* The texts of one call shape share the lowered tree; each text has its
   own view of it, whose totals count that text's runs only. *)
let test_plan_object_per_text () =
  let demo = shape_demo () in
  let server = demo.Aldsp_demo.Demo.server in
  let qa = "getProfileByID(\"CUST0001\")" in
  let qb = "getProfileByID(\"CUST0002\")" in
  let a = compile_exn server qa in
  let a' = compile_exn server qa in
  let b = compile_exn server qb in
  check_bool "one text, one view" true (a.Server.ir == a'.Server.ir);
  check_bool "two texts, two views" true (a.Server.ir != b.Server.ir);
  check_bool "one lowered tree for the shape" true
    (a.Server.ir.Plan_ir.tree == b.Server.ir.Plan_ir.tree);
  check_bool "the shape's plan is shared" true (a.Server.plan == b.Server.plan);
  check_bool "each text binds its own literal" true
    (a.Server.bindings <> b.Server.bindings);
  ignore (ok_exn (Server.run server qa));
  ignore (ok_exn (Server.run server qa));
  ignore (ok_exn (Server.run server qb));
  let root_rows (c : Server.compiled) =
    let ir = c.Server.ir in
    ir.Plan_ir.totals.(ir.Plan_ir.tree.Plan_ir.id).Plan_ir.c_rows
  in
  check_bool "B's root emitted rows" true (root_rows b > 0);
  check_int "A's root counts its two runs, B's its one" (2 * root_rows b)
    (root_rows a)

(* An execution keeps one counter per line EXPLAIN renders with
   counters, plus the root when it is inlined: 36 of the 70 nodes of
   getProfileByID's tree. *)
let test_counters_per_rendered_operator () =
  let demo = shape_demo () in
  let server = demo.Aldsp_demo.Demo.server in
  let counted_lines text =
    List.length
      (List.filter
         (fun line -> contains line "(est=")
         (String.split_on_char '\n' text))
  in
  List.iter
    (fun (q, extra) ->
      let ir = (compile_exn server q).Server.ir in
      check_int ("counters of " ^ q)
        (counted_lines (Plan_ir.render ir) + extra)
        (Array.length (Plan_ir.new_run ir)))
    [ ("getProfileByID(\"CUST0001\")", 0);
      ("for $c in CUSTOMER() return <R>{$c/CID}</R>", 0);
      ("count(CUSTOMER())", 0);
      ("concat(\"a\", \"b\")", 1) ]

(* [Plan_ir.operators] lists each counted operator once, a join's right
   side included: for the Figure 3 point lookup, the 36 lines EXPLAIN
   renders with counters. *)
let test_operators_listed_once () =
  let demo = Aldsp_demo.Demo.create ~customers:2000 () in
  let server = demo.Aldsp_demo.Demo.server in
  let ir = (compile_exn server "getProfileByID(\"CUST0001\")").Server.ir in
  let ops = Plan_ir.operators ir in
  let rec distinct = function
    | [] -> true
    | (_, c) :: rest -> List.for_all (fun (_, c') -> c != c') rest && distinct rest
  in
  check_bool "no operator listed twice" true (distinct ops);
  let counted =
    List.filter (fun line -> contains line "(est=")
      (String.split_on_char '\n' (Plan_ir.render ir))
  in
  check_int "one entry per counted line" (List.length counted) (List.length ops);
  check_int "36 operators" 36 (List.length ops)

(* The paper's Figure 3 point lookup at 2000 customers and 0.5 ms
   roundtrips. The CUSTOMER key literal prices the outer at one row, so
   the card region is parameterized (a PP-k probe on CID) rather than
   shipped whole, every shipped region is filtered, and at most 5 rows
   ship (1 customer, 1 card, 3 orders). The ORDER_T nesting merges into
   the CUSTOMER statement as an outer join (§4.2), so a lookup issues 2
   statements, and the merged region is priced by its fan-out, so the
   worst est-vs-act ratio stays within 1.5. The next key, CUST0043,
   reuses the compiled call shape: no full compile, and the same
   statements and rows. *)
let test_point_lookup_counts () =
  let module D = Aldsp_demo.Demo in
  let demo =
    D.create ~customers:2000 ~db_latency:0.0005 ~service_latency:0.001 ()
  in
  let server = demo.D.server in
  let lookup key =
    let q = Printf.sprintf "getProfileByID(\"%s\")" key in
    let misses = Server.plan_cache_misses server in
    let compiled = compile_exn server q in
    D.reset_stats demo;
    ignore (ok_exn (Server.run server q));
    let total f =
      f demo.D.customer_db.Database.stats + f demo.D.card_db.Database.stats
    in
    ( compiled,
      Server.plan_cache_misses server - misses,
      total (fun s -> s.Database.statements),
      total (fun s -> s.Database.rows_shipped) )
  in
  let compiled, _, statements, shipped = lookup "CUST0042" in
  let regions = Plan_ir.regions compiled.Server.ir in
  check_bool "card region parameterized" true
    (List.exists
       (fun r -> r.Plan_ir.sql_db = "CardDB" && r.Plan_ir.sql_params <> [])
       regions);
  List.iter
    (fun r ->
      check_bool ("filtered: " ^ r.Plan_ir.sql_text) true
        (r.Plan_ir.sql_select.Sql_ast.where <> None))
    regions;
  check_int "2 statements" 2 statements;
  check_bool (Printf.sprintf "<= 5 rows shipped (%d)" shipped) true
    (shipped <= 5);
  let worst = (Server.stats server).Server.st_max_misestimate in
  check_bool (Printf.sprintf "worst misestimate <= 1.5 (%.2f)" worst) true
    (worst <= 1.5);
  let _, compiles, statements, shipped = lookup "CUST0043" in
  check_int "next key: no full compile" 0 compiles;
  check_int "next key: 2 statements" 2 statements;
  check_bool (Printf.sprintf "next key: <= 5 rows shipped (%d)" shipped) true
    (shipped <= 5)

(* A call that runs a function body runs it optimized and pushed down,
   as the inlined text runs it: the Figure 3 lookup through
   [Server.call], and marked cacheable on its function-cache miss, issues
   the inlined text's statements, full scans and rows shipped, and the
   hit after the miss issues none. *)
let test_calls_run_optimized_body () =
  let module D = Aldsp_demo.Demo in
  let cache = Function_cache.create (Database.create "CacheDB") in
  let demo = D.create ~customers:200 ~function_cache:cache () in
  let server = demo.D.server in
  let name = Qname.make ~uri:"fn" "getProfileByID" in
  let q = "getProfileByID(\"CUST0007\")" in
  let counted f =
    D.reset_stats demo;
    let bytes = Item.serialize (ok_exn (f ())) in
    let total g =
      g demo.D.customer_db.Database.stats + g demo.D.card_db.Database.stats
    in
    ( bytes,
      [ total (fun s -> s.Database.statements);
        total (fun s -> s.Database.full_scans);
        total (fun s -> s.Database.rows_shipped) ] )
  in
  let counts = Alcotest.(list int) in
  let inlined_bytes, inlined = counted (fun () -> Server.run server q) in
  let same label (bytes, got) expected =
    check_string (label ^ ": bytes") inlined_bytes bytes;
    Alcotest.check counts (label ^ ": statements, full scans, rows shipped")
      expected got
  in
  same "Server.call"
    (counted (fun () ->
         Server.call server name [ [ Item.string "CUST0007" ] ]))
    inlined;
  Metadata.set_cacheable demo.D.registry name true;
  Function_cache.enable cache name ~ttl_seconds:300.;
  same "cacheable miss" (counted (fun () -> Server.run server q)) inlined;
  same "cacheable hit" (counted (fun () -> Server.run server q)) [ 0; 0; 0 ];
  check_int "one function-cache miss" 1 (Function_cache.misses cache);
  check_int "one function-cache hit" 1 (Function_cache.hits cache)

let test_literal_types_own_shapes () =
  let demo = shape_demo () in
  let server = demo.Aldsp_demo.Demo.server in
  let misses = Server.plan_cache_misses server in
  check_reference server "orderByID(1001)";
  check_reference server "orderByID(2002)";
  check_int "integer keys share a shape" (misses + 1)
    (Server.plan_cache_misses server);
  check_reference server "orderByID(1001.0)";
  check_int "a decimal key is another shape" (misses + 2)
    (Server.plan_cache_misses server);
  check_reference server "orderByID(2002.0)";
  check_int "which later decimal keys share" (misses + 2)
    (Server.plan_cache_misses server)

let test_plan_shaping_literals_stay_inline () =
  let demo = shape_demo () in
  let server = demo.Aldsp_demo.Demo.server in
  List.iter
    (fun texts ->
      let misses = Server.plan_cache_misses server in
      List.iter (check_reference server) texts;
      check_int
        (String.concat ", " texts ^ ": one full compile per text")
        (misses + List.length texts)
        (Server.plan_cache_misses server))
    [ [ "tagged(\"a\")"; "tagged(\"b\")"; "tagged(\"c\")" ];
      [ "firstCIDs(2)"; "firstCIDs(3)"; "firstCIDs(4)" ] ]

let test_shape_staleness () =
  let demo = shape_demo () in
  let server = demo.Aldsp_demo.Demo.server in
  ignore (compile_exn server "getProfileByID(\"CUST0001\")");
  let misses = Server.plan_cache_misses server in
  Metadata.set_cacheable demo.Aldsp_demo.Demo.registry
    (Qname.make ~uri:"fn" "getCustomerNames")
    true;
  ignore (compile_exn server "getProfileByID(\"CUST0002\")");
  check_int "a metadata change recompiles the shape" (misses + 1)
    (Server.plan_cache_misses server);
  ignore (compile_exn server "getProfileByID(\"CUST0003\")");
  check_int "and the new shape serves the next key" (misses + 1)
    (Server.plan_cache_misses server);
  check_reference server "getProfileByID(\"CUST0003\")"

(* A write that moves no statistic the cost model reads keeps every
   cached plan: the SDO LAST_NAME submit changes no key, so the profile
   read after it compiles nothing and runs the plan it ran before. *)
let test_non_key_write_keeps_plan () =
  let module D = Aldsp_demo.Demo in
  let demo = D.create ~customers:20 () in
  let server = demo.D.server in
  let q = "getProfileByID(\"CUST0001\")" in
  let profile =
    match ok_exn (Server.run server q) with
    | [ Item.Node p ] -> p
    | other -> Alcotest.failf "not one profile: %s" (Item.serialize other)
  in
  let plan = ok_exn (Server.explain ~analyze:false server q) in
  let sdo =
    Aldsp_sdo.Sdo.of_result ~ds_function:(Qname.make ~uri:"fn" "getProfile")
      profile
  in
  ok_exn
    (Aldsp_sdo.Sdo.set_field sdo
       [ Qname.local "PROFILE"; Qname.local "LAST_NAME" ]
       (Atomic.String "Smithers"));
  ignore (ok_exn (Aldsp_sdo.Submit.submit demo.D.registry [ sdo ]));
  let misses = Server.plan_cache_misses server in
  let after = Item.serialize (ok_exn (Server.run server q)) in
  check_bool "the read sees the write" true (contains after "Smithers");
  check_int "no compile after the write" misses
    (Server.plan_cache_misses server);
  check_string "the same plan" plan
    (ok_exn (Server.explain ~analyze:false server q))

(* ------------------------------------------------------------------ *)
(* spill= rendering: present with its companions exactly when the sort
   overflowed its budget, absent otherwise                              *)

(* a sort key the SQL translator cannot push, so the ORDER BY runs in
   the middleware where the budget applies *)
let spill_query =
  "for $c in CUSTOMER() order by fn:string-length($c/FIRST_NAME) mod 3, \
   $c/CID descending return $c/CID"

let spill_demo budget customers =
  Aldsp_demo.Demo.create ~customers ~orders_per_customer:1
    ~optimizer_options:
      { Optimizer.default_options with Optimizer.sort_budget_rows = budget }
    ()

let test_spill_counters () =
  (* 12 rows through a 2-row budget: the sort must spill and say so *)
  let demo = spill_demo (Some 2) 12 in
  let text = ok_exn (Server.explain demo.Aldsp_demo.Demo.server spill_query) in
  check_bool "sort stayed in the middleware" true (contains text "sort");
  check_bool "spill= rendered on the sort line" true (contains text "spill=");
  check_bool "spilled every row" true (contains text "spill-rows=12");
  check_bool "spill bytes rendered" true (contains text "spill-bytes=");
  check_bool "merge fan-in rendered" true (contains text "fanin=");
  (* and the server's rollup agrees *)
  let st = Server.stats demo.Aldsp_demo.Demo.server in
  check_bool "st_spill_runs rolled up" true (st.Server.st_spill_runs >= 6);
  check_int "st_spill_rows rolled up" 12 st.Server.st_spill_rows;
  check_bool "st_spill_bytes rolled up" true (st.Server.st_spill_bytes > 0);
  check_bool "peak resident recorded" true (st.Server.st_spill_peak_resident > 0)

let test_zero_spill_renders_as_before () =
  (* same query, unbounded budget: not a byte of spill output *)
  let demo = spill_demo None 12 in
  let unbounded =
    ok_exn (Server.explain demo.Aldsp_demo.Demo.server spill_query)
  in
  check_bool "no spill fields" true (not (contains unbounded "spill"));
  check_bool "no fanin field" true (not (contains unbounded "fanin="));
  let st = Server.stats demo.Aldsp_demo.Demo.server in
  check_int "no spill rollup" 0 st.Server.st_spill_runs;
  (* a budget the input never overflows is also spill-free *)
  let roomy = spill_demo (Some 1000) 12 in
  let text = ok_exn (Server.explain roomy.Aldsp_demo.Demo.server spill_query) in
  check_bool "roomy budget never spills" true (not (contains text "spill"));
  check_string "roomy budget renders identically" unbounded text

(* ------------------------------------------------------------------ *)
(* Golden EXPLAIN renderings across the five dialects                  *)

(* EXPERIMENTS.md pattern-catalog queries (Tables 1-2) plus the
   cross-database PP-k join, over the harness catalog built from a fixed
   spec: the rendering (statements, binds, counters, backend lines) is
   pinned per dialect. *)
let golden_queries =
  [ ( "T1a select-project",
      "for $c in CUSTOMER() where $c/CID eq \"CUST0001\" return \
       $c/FIRST_NAME" );
    ( "T1b inner join",
      "for $c in CUSTOMER(), $o in ORDER_T() where $c/CID eq $o/CID return \
       <CUSTOMER_ORDER>{$c/CID, $o/OID}</CUSTOMER_ORDER>" );
    ( "T1e group-by with aggregation",
      "for $c in CUSTOMER() group $c as $p by $c/LAST_NAME as $l return \
       <CUSTOMER>{$l, count($p)}</CUSTOMER>" );
    ( "T2i row window",
      "let $cs := for $c in CUSTOMER() let $oc := count(for $o in ORDER_T() \
       where $c/CID eq $o/CID return $o) order by $oc descending return \
       <CUSTOMER>{data($c/CID), $oc}</CUSTOMER> return subsequence($cs, 2, \
       3)" );
    ( "PP-k cross-database join",
      "for $c in CUSTOMER(), $k in CREDIT_CARD() where $c/CID eq $k/CID \
       return <R>{$c/CID, $k/NUM}</R>" ) ]

let explain_catalog vendor =
  let spec =
    { Catalog.seed = 7;
      main_vendor = vendor;
      card_vendor = vendor;
      customers = 6;
      orders_per_customer = 2;
      cards_per_customer = 1;
      regions = 3 }
  in
  let cat = Catalog.build spec in
  (* budget pinned to unbounded so the goldens stay byte-stable however
     ALDSP_SORT_BUDGET is set in the environment (the CI forced-spill
     run); zero-spill rendering is pinned by these files, spilling
     rendering by test_spill_counters *)
  let server =
    Server.create
      ~optimizer_options:
        { Optimizer.default_options with Optimizer.sort_budget_rows = None }
      cat.Catalog.registry
  in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, q) ->
      Buffer.add_string buf (Printf.sprintf "== %s\n-- %s\n" name q);
      (match Server.explain server q with
      | Ok text -> Buffer.add_string buf text
      | Error msg -> Buffer.add_string buf ("error: " ^ msg ^ "\n"));
      Buffer.add_char buf '\n')
    golden_queries;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Cached equals fresh: after every step of a seeded write sequence,
   the long-lived server's static EXPLAIN is the one a fresh server over
   the same registry compiles. This is what lets a plan outlive writes
   that move none of its statistics.                                    *)

(* The golden texts and the Figure 3 lookup, plus a literal selection on
   ORDER_T.CID, whose estimate rows/NDV moves with every NDV change at
   this size, and one per column {!oracle_step} may index, whose
   estimate is rows/3 until the index gives it an NDV. *)
let oracle_queries =
  List.map snd golden_queries
  @ [ "getProfileByID(\"CUST0001\")";
      "for $o in ORDER_T() where $o/CID eq \"CUST0002\" return $o/OID";
      "for $k in CREDIT_CARD() where $k/CID eq \"CUST0003\" return $k/NUM";
      "for $c in CUSTOMER() where $c/LAST_NAME eq \"L1\" return $c/CID";
      "for $o in ORDER_T() where $o/AMOUNT eq 7.5 return $o/OID" ]

(* A write the table refuses (a duplicate key) changes nothing, which
   the oracle covers as well as one that lands. *)
let dml db sql =
  match Sql_parser.parse sql with
  | Ok (Sql_ast.Dml d) -> ignore (Sql_exec.execute_dml db d)
  | _ -> Alcotest.failf "not a DML statement: %s" sql

(* One random write against the demo: a row-count change, a key update
   (which may or may not move an NDV), a non-key update, a rolled-back
   write or a new index. Returns its description. *)
let oracle_step rng (demo : Aldsp_demo.Demo.t) fresh_id =
  let cdb = demo.Aldsp_demo.Demo.customer_db
  and kdb = demo.Aldsp_demo.Demo.card_db in
  (* one key more than the demo has customers *)
  let cid () = Printf.sprintf "CUST%04d" (1 + Random.State.int rng 5) in
  let customer_write () =
    match Random.State.int rng 5 with
    | 0 ->
      Printf.sprintf
        "INSERT INTO ORDER_T (OID, CID, AMOUNT) VALUES (%d, '%s', 7.5)"
        (fresh_id ()) (cid ())
    | 1 ->
      Printf.sprintf
        "INSERT INTO CUSTOMER (CID, LAST_NAME, FIRST_NAME, SSN, SINCE) \
         VALUES ('NEW%04d', 'Nova', 'Ann', '000-00-0000', 2001)"
        (fresh_id ())
    | 2 ->
      Printf.sprintf "UPDATE CUSTOMER SET LAST_NAME = 'L%d' WHERE CID = '%s'"
        (Random.State.int rng 3) (cid ())
    | 3 ->
      Printf.sprintf "UPDATE ORDER_T SET CID = '%s' WHERE CID = '%s'" (cid ())
        (cid ())
    | _ -> Printf.sprintf "DELETE FROM ORDER_T WHERE CID = '%s'" (cid ())
  in
  match Random.State.int rng 5 with
  | 0 | 1 ->
    let sql = customer_write () in
    dml cdb sql;
    sql
  | 2 ->
    let sql = customer_write () in
    ignore
      (Txn.with_transaction cdb (fun () ->
           dml cdb sql;
           Error "abort"));
    "rolled back: " ^ sql
  | 3 ->
    let sql =
      if Random.State.bool rng then
        Printf.sprintf "UPDATE CREDIT_CARD SET CID = '%s' WHERE CID = '%s'"
          (cid ()) (cid ())
      else Printf.sprintf "DELETE FROM CREDIT_CARD WHERE CID = '%s'" (cid ())
    in
    dml kdb sql;
    sql
  | _ ->
    let db, table, name, cols =
      List.nth
        [ (kdb, "CREDIT_CARD", "card_cid", [ "CID" ]);
          (cdb, "CUSTOMER", "cust_last", [ "LAST_NAME" ]);
          (cdb, "ORDER_T", "order_amount", [ "AMOUNT" ]) ]
        (Random.State.int rng 3)
    in
    (* a second registration of the same name is refused and changes
       nothing *)
    ignore
      (Table.create_index (ok_exn (Database.find_table db table)) ~name cols);
    "create_index " ^ name

let test_cached_equals_fresh () =
  let module D = Aldsp_demo.Demo in
  let hits = ref 0 in
  for seed = 1 to 8 do
    let rng = Random.State.make [| seed |] in
    let demo = D.create ~customers:4 ~orders_per_customer:3 () in
    let server = demo.D.server in
    let next = ref 900_000 in
    let fresh_id () = incr next; !next in
    let static_ s q = ok_exn (Server.explain ~analyze:false s q) in
    let compare_all step =
      let fresh = Server.create demo.D.registry in
      List.iter
        (fun q ->
          check_string
            (Printf.sprintf "seed %d, after %s: %s" seed step q)
            (static_ fresh q) (static_ server q))
        oracle_queries
    in
    compare_all "nothing";
    let h = Server.plan_cache_hits server in
    for _ = 1 to 12 do
      compare_all (oracle_step rng demo fresh_id)
    done;
    hits := !hits + Server.plan_cache_hits server - h
  done;
  check_bool "some plans outlived a write" true (!hits > 0)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ALDSP_GOLDEN_PROMOTE=1 rewrites the goldens in place (run from test/);
   otherwise a mismatch writes explain_<dialect>.actual beside the test
   binary so CI can upload the diff as an artifact. *)
let promote = Sys.getenv_opt "ALDSP_GOLDEN_PROMOTE" = Some "1"

let test_golden vendor () =
  let name = Catalog.vendor_to_string vendor in
  let path = Printf.sprintf "golden/explain_%s.txt" name in
  let actual = explain_catalog vendor in
  if promote then write_file path actual
  else
    let expected = if Sys.file_exists path then read_file path else "" in
    if not (String.equal actual expected) then begin
      let out = Printf.sprintf "explain_%s.actual" name in
      write_file out actual;
      Alcotest.failf
        "EXPLAIN golden mismatch for dialect %s (wrote %s; run with \
         ALDSP_GOLDEN_PROMOTE=1 from test/ to accept)"
        name out
    end

let () =
  let t name f = Alcotest.test_case name `Quick f in
  Alcotest.run "explain"
    [ ( "unified-tree",
        [ t "middleware + backend in one tree" test_unified_tree;
          t "deterministic rendering" test_explain_deterministic ] );
      ( "counters",
        [ t "pp-k roundtrips match Observed" test_ppk_roundtrip_counters;
          t "cache hits match Server.stats" test_cache_hit_counters ] );
      ( "labels", [ t "pp-k inner= label" test_ppk_inner_labels ] );
      ( "plan-cache",
        [ t "stale generations recompile" test_plan_cache_staleness;
          t "compile once, execute twice" test_compile_once_execute_twice;
          t "one compile per call shape" test_one_compile_per_shape;
          t "one plan object per text" test_plan_object_per_text;
          t "point lookup counts" test_point_lookup_counts;
          t "calls run the optimized body" test_calls_run_optimized_body;
          t "counters per rendered operator"
            test_counters_per_rendered_operator;
          t "operators listed once" test_operators_listed_once;
          t "literal types get their own shapes" test_literal_types_own_shapes;
          t "plan-shaping literals stay inline"
            test_plan_shaping_literals_stay_inline;
          t "stale shapes recompile" test_shape_staleness;
          t "a non-key write keeps the plan" test_non_key_write_keeps_plan;
          t "cached plans equal fresh ones" test_cached_equals_fresh ] );
      ( "spill",
        [ t "spill= counters on a spilled sort" test_spill_counters;
          t "zero-spill plans render as before"
            test_zero_spill_renders_as_before ] );
      ( "golden",
        Array.to_list
          (Array.map
             (fun v ->
               t
                 (Printf.sprintf "dialect %s" (Catalog.vendor_to_string v))
                 (test_golden v))
             Catalog.vendors) ) ]
