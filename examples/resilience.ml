(* Slow and unavailable sources (§5.4-5.6): asynchronous execution,
   fn-bea:timeout, fn-bea:fail-over, and the function cache.

   Run with: dune exec examples/resilience.exe *)

open Aldsp_core
open Aldsp_relational
open Aldsp_services
open Aldsp_demo

let section title = Printf.printf "\n=== %s ===\n" title

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

let rating name ssn =
  Printf.sprintf
    "fn:data(getRating(<getRating><lName>{\"%s\"}</lName><ssn>{\"%s\"}</ssn></getRating>)/getRatingResult)"
    name ssn

let () =
  let cache = Function_cache.create (Database.create "CacheDB") in
  let demo =
    Demo.create ~customers:3 ~service_latency:0.05 ~function_cache:cache ()
  in
  let server = demo.Demo.server in
  let run q =
    match Server.run server q with
    | Ok items -> Aldsp_xml.Item.serialize items
    | Error m -> "error: " ^ m
  in

  section "Async: three independent 50ms service calls";
  let sync_q =
    Printf.sprintf "<R>{%s, %s, %s}</R>" (rating "a" "1") (rating "b" "2")
      (rating "c" "3")
  in
  let async_q =
    Printf.sprintf "<R>{fn-bea:async(%s), fn-bea:async(%s), fn-bea:async(%s)}</R>"
      (rating "a" "1") (rating "b" "2") (rating "c" "3")
  in
  let t_sync, r_sync = time (fun () -> run sync_q) in
  let t_async, r_async = time (fun () -> run async_q) in
  Printf.printf "sequential: %.0f ms -> %s\n" (t_sync *. 1000.) r_sync;
  Printf.printf "async:      %.0f ms -> %s (latencies overlapped)\n"
    (t_async *. 1000.) r_async;

  section "Timeout: fail over when the source is too slow";
  demo.Demo.rating_service.Web_service.latency <- 0.25;
  let q = Printf.sprintf "fn-bea:timeout(%s, 50, -1)" (rating "x" "9") in
  let t, r = time (fun () -> run q) in
  Printf.printf "timeout(50ms) on a 250ms source: %.0f ms -> %s\n"
    (t *. 1000.) r;
  demo.Demo.rating_service.Web_service.latency <- 0.0;

  section "Fail-over: an unavailable source, an alternate expression";
  Web_service.set_unavailable demo.Demo.rating_service true;
  Printf.printf "primary down, alternate value: %s\n"
    (run (Printf.sprintf "fn-bea:fail-over(%s, 0)" (rating "x" "9")));
  Printf.printf "partial result with () alternate: %s\n"
    (run
       (Printf.sprintf "<PROFILE><RATING?>{fn-bea:fail-over(%s, ())}</RATING></PROFILE>"
          (rating "x" "9")));
  Web_service.set_unavailable demo.Demo.rating_service false;

  section "Function cache: a slow call becomes a single-row lookup";
  demo.Demo.rating_service.Web_service.latency <- 0.1;
  let name = Aldsp_xml.Qname.make ~uri:"fn" "getProfileByID" in
  (* backend statements issued by [f]: a miss runs the body optimized and
     pushed down, so it issues what the same call inlined issues *)
  let statements f =
    Demo.reset_stats demo;
    ignore (f ());
    demo.Demo.customer_db.Database.stats.Database.statements
    + demo.Demo.card_db.Database.stats.Database.statements
  in
  let inlined = statements (fun () -> run "getProfileByID(\"CUST0001\")") in
  Metadata.set_cacheable demo.Demo.registry name true;
  Function_cache.enable cache name ~ttl_seconds:300.;
  let call () =
    Server.call server name [ [ Aldsp_xml.Item.string "CUST0001" ] ]
  in
  let t_miss, miss = time (fun () -> statements call) in
  let t_hit, _ = time call in
  Printf.printf "first call (miss): %.0f ms\n" (t_miss *. 1000.);
  Printf.printf "backend statements: inlined %d, function-cache miss %d\n"
    inlined miss;
  Printf.printf "second call (hit): %.0f ms  — cache hits: %d, misses: %d\n"
    (t_hit *. 1000.) (Function_cache.hits cache)
    (Function_cache.misses cache)
