(* Tests for the asynchronous source orchestration: the bounded worker
   pool, pipelined PP-k prefetch (determinism across depths and pool
   sizes), concurrent independent let-bound source calls, the
   condition-variable await_timeout, and concurrency safety of the
   function cache. *)

open Aldsp_core
open Aldsp_xml
open Aldsp_relational

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int
let check_string = Alcotest.check Alcotest.string

let ok_exn = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

(* ------------------------------------------------------------------ *)
(* batch_seq                                                           *)

let blocks k l = List.of_seq (Seq.map Array.of_list (Eval.batch_seq k (List.to_seq l)))

let test_batch_seq_edges () =
  check_int "empty input -> no blocks" 0 (List.length (blocks 3 []));
  check_bool "k=1 -> singletons" true
    (blocks 1 [ 1; 2; 3 ] = [ [| 1 |]; [| 2 |]; [| 3 |] ]);
  check_bool "k > input -> one short block" true
    (blocks 10 [ 1; 2; 3 ] = [ [| 1; 2; 3 |] ]);
  check_bool "non-multiple length -> short last block" true
    (blocks 2 [ 1; 2; 3; 4; 5 ] = [ [| 1; 2 |]; [| 3; 4 |]; [| 5 |] ]);
  check_bool "k=0 treated as 1" true (blocks 0 [ 1; 2 ] = [ [| 1 |]; [| 2 |] ]);
  check_bool "negative k treated as 1" true
    (blocks (-4) [ 1; 2 ] = [ [| 1 |]; [| 2 |] ])

let test_batch_seq_lazy () =
  (* forcing block n consumes exactly the first n*k elements *)
  let pulled = ref 0 in
  let input =
    Seq.map
      (fun i ->
        incr pulled;
        i)
      (Seq.init 100 Fun.id)
  in
  let bs = Eval.batch_seq 10 input in
  (match bs () with
  | Seq.Cons (b, _) -> check_int "first block" 10 (List.length b)
  | Seq.Nil -> Alcotest.fail "expected a block");
  check_int "only one block's worth pulled" 10 !pulled

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)

let test_pool_bound_and_completion () =
  let workers = 3 in
  let pool = Pool.create ~workers () in
  let futs =
    List.init 40 (fun i ->
        Pool.submit pool (fun () ->
            Thread.delay 0.002;
            i * i))
  in
  List.iteri
    (fun i fut -> check_int "task result" (i * i) (Pool.await pool fut))
    futs;
  let s = Pool.stats pool in
  check_int "all submitted" 40 s.Pool.st_submitted;
  check_bool "thread bound respected" true (s.Pool.st_max_busy <= workers);
  check_bool "queue drained" true (s.Pool.st_queue_depth = 0)

let test_pool_nested_await () =
  (* a task that submits and awaits further tasks must not deadlock even
     on a single-worker pool (the waiter helps drain the queue) *)
  let pool = Pool.create ~workers:1 () in
  let outer =
    Pool.submit pool (fun () ->
        let inner = List.init 5 (fun i -> Pool.submit pool (fun () -> i + 1)) in
        List.fold_left (fun acc f -> acc + Pool.await pool f) 0 inner)
  in
  check_int "nested submit/await" 15 (Pool.await pool outer)

let test_pool_exception () =
  let pool = Pool.create ~workers:2 () in
  let fut = Pool.submit pool (fun () -> failwith "boom") in
  (match Pool.await pool fut with
  | _ -> Alcotest.fail "expected the task's exception"
  | exception Failure m -> check_string "exception propagates" "boom" m);
  (* the worker survives the exception *)
  check_int "pool still works" 7 (Pool.await pool (Pool.submit pool (fun () -> 7)))

let test_pipeline_ordered () =
  let pool = Pool.create ~workers:4 () in
  (* later tasks finish first; output order must be input order *)
  let f i =
    Thread.delay (float_of_int ((17 * i) mod 5) *. 0.001);
    i * 10
  in
  List.iter
    (fun depth ->
      let out =
        List.of_seq (Pool.pipeline pool ~depth f (Seq.init 20 Fun.id))
      in
      check_bool
        (Printf.sprintf "depth %d preserves order" depth)
        true
        (out = List.init 20 (fun i -> i * 10)))
    [ 0; 1; 3; 8; 50 ];
  check_int "empty input" 0
    (List.length (List.of_seq (Pool.pipeline pool ~depth:2 f Seq.empty)))

(* ------------------------------------------------------------------ *)
(* Future.await_timeout                                                *)

let test_await_timeout () =
  let never = Future.create () in
  let t0 = Unix.gettimeofday () in
  check_bool "times out -> None" true (Future.await_timeout never 0.05 = None);
  let waited = Unix.gettimeofday () -. t0 in
  check_bool "waited about the timeout" true (waited >= 0.045 && waited < 1.0);
  let fut = Future.create () in
  let _ =
    Thread.create
      (fun () ->
        Thread.delay 0.01;
        Future.fulfill_with fut (fun () -> 42))
      ()
  in
  check_bool "resolves before the deadline" true
    (Future.await_timeout fut 5.0 = Some 42)

(* Windows are timed by the one shared deadline thread: a thousand timed
   out awaits spawn no thread and leave no deadline armed, and a future
   resolved mid-window wakes its waiter long before the window closes. *)
let test_await_timeout_no_leftovers () =
  let fresh_thread_id () =
    let th = Thread.create ignore () in
    Thread.join th;
    Thread.id th
  in
  let never = Future.create () in
  let before = fresh_thread_id () in
  for _ = 1 to 1000 do
    if Future.await_timeout never 0.0002 <> None then
      Alcotest.fail "an unresolved future returned a value"
  done;
  let spawned = fresh_thread_id () - before - 1 in
  check_bool
    (Printf.sprintf "no thread per await (%d spawned)" spawned)
    true (spawned <= 1);
  check_int "no deadline left armed" 0 (Cancel.armed_deadlines ());
  check_int "no waiter left registered" 0 (Cancel.waiters ());
  let fut = Future.create () in
  let resolver =
    Thread.create
      (fun () ->
        Thread.delay 0.02;
        Future.fulfill_with fut (fun () -> 7))
      ()
  in
  let t0 = Unix.gettimeofday () in
  check_bool "resolved mid-window" true (Future.await_timeout fut 2.0 = Some 7);
  let waited = Unix.gettimeofday () -. t0 in
  Thread.join resolver;
  check_bool
    (Printf.sprintf "woken by the resolution (%.0f ms)" (waited *. 1000.))
    true (waited < 0.5);
  check_int "window disarmed on resolution" 0 (Cancel.armed_deadlines ())

(* ------------------------------------------------------------------ *)
(* PP-k pipelining: byte equality as a property over random            *)
(* (k, prefetch, workers) configurations                               *)

let ppk_query =
  "for $c in CUSTOMER(), $x in CREDIT_CARD() where $c/CID eq $x/CID return <R>{$c/CID, $x/NUM}</R>"

let run_ppk demo ~k ~prefetch ~workers =
  (* the property sweeps explicit (k, prefetch) pairs; cost-based
     selection would override both knobs, so switch it off *)
  let options =
    { Optimizer.default_options with
      Optimizer.ppk_k = k;
      Optimizer.ppk_prefetch = prefetch;
      Optimizer.cost_based = false }
  in
  let pool = Pool.create ~workers () in
  let server =
    Server.create ~optimizer_options:options ~pool
      demo.Aldsp_demo.Demo.registry
  in
  let out = Item.serialize (ok_exn (Server.run server ppk_query)) in
  let stats = Pool.stats pool in
  Pool.shutdown pool;
  (out, stats)

let ppk_demo =
  lazy (Aldsp_demo.Demo.create ~customers:33 ~orders_per_customer:0 ())

let ppk_reference =
  lazy (fst (run_ppk (Lazy.force ppk_demo) ~k:1 ~prefetch:0 ~workers:1))

let ppk_config =
  QCheck.(triple (1 -- 8) (0 -- 8) (1 -- 8))

let test_ppk_byte_equality =
  QCheck.Test.make ~count:20 ~name:"ppk byte equality over random configs"
    ppk_config (fun (k, prefetch, workers) ->
      let reference = Lazy.force ppk_reference in
      let out, s = run_ppk (Lazy.force ppk_demo) ~k ~prefetch ~workers in
      if out <> reference then
        QCheck.Test.fail_reportf
          "k=%d prefetch=%d workers=%d changed the result bytes" k prefetch
          workers;
      if s.Pool.st_max_busy > workers then
        QCheck.Test.fail_reportf "pool exceeded its %d-worker bound" workers;
      (* with real prefetch depth and real blocks, the block queries must
         actually go through the pool *)
      if k >= 2 && prefetch >= 1 && s.Pool.st_submitted = 0 then
        QCheck.Test.fail_reportf
          "k=%d prefetch=%d submitted nothing to the pool" k prefetch;
      true)

let test_ppk_prefetch_hint () =
  (* the declarative hint reaches the compiled plan *)
  let demo = Aldsp_demo.Demo.create ~customers:6 ~orders_per_customer:0 () in
  let q = "(::pragma hint ppk-k=\"3\" ppk-prefetch=\"2\"::) " ^ ppk_query in
  match Server.compile demo.Aldsp_demo.Demo.server q with
  | Error ds ->
    Alcotest.failf "compile failed: %s"
      (String.concat "; " (List.map Diag.to_string ds))
  | Ok compiled ->
    let plan = Cexpr.to_string compiled.Server.plan in
    check_bool "plan names pp-3+2"
      true
      (try
         ignore (Str.search_forward (Str.regexp_string "pp-3+2") plan 0);
         true
       with Not_found -> false)

(* ------------------------------------------------------------------ *)
(* Concurrent independent let-bound source calls                        *)

let rating name ssn =
  Printf.sprintf
    "getRating(<getRating><lName>{\"%s\"}</lName><ssn>{\"%s\"}</ssn></getRating>)"
    name ssn

let test_concurrent_lets () =
  let latency = 0.04 in
  let demo = Aldsp_demo.Demo.create ~customers:1 ~service_latency:latency () in
  let q =
    Printf.sprintf
      "let $a := %s let $b := %s let $c := %s return <R>{$a/getRatingResult, $b/getRatingResult, $c/getRatingResult}</R>"
      (rating "a" "1") (rating "b" "2") (rating "c" "3")
  in
  let t0 = Unix.gettimeofday () in
  let r = ok_exn (Server.run demo.Aldsp_demo.Demo.server q) in
  let wall = Unix.gettimeofday () -. t0 in
  check_int "one result element" 1 (List.length r);
  check_int "three service calls" 3
    demo.Aldsp_demo.Demo.rating_service.Aldsp_services.Web_service.stats
      .Aldsp_services.Web_service.calls;
  (* sequential would be >= 3 x latency; overlapped is ~1 x latency *)
  check_bool
    (Printf.sprintf "independent lets overlap (%.0f ms < %.0f ms)"
       (wall *. 1000.)
       (2.2 *. latency *. 1000.))
    true
    (wall < 2.2 *. latency)

let test_dependent_lets_still_correct () =
  (* $b depends on $a, so it must see $a's value; and an unused async-ish
     let must not change results *)
  let demo = Aldsp_demo.Demo.create ~customers:2 () in
  let q =
    "let $a := 2 let $b := $a + 3 let $r := " ^ rating "x" "9"
    ^ " return <R>{$b, $r/getRatingResult}</R>"
  in
  let r = ok_exn (Server.run demo.Aldsp_demo.Demo.server q) in
  let s = Item.serialize r in
  check_bool "dependent let sees its input" true
    (try
       ignore (Str.search_forward (Str.regexp_string "5") s 0);
       true
     with Not_found -> false)

(* ------------------------------------------------------------------ *)
(* Function cache under concurrency                                    *)

let test_function_cache_hammer () =
  let cache = Function_cache.create (Database.create "CacheDB") in
  let fn = Qname.local "f" in
  Function_cache.enable cache fn ~ttl_seconds:600.;
  let threads = 8 and per_thread = 50 in
  let errors = ref 0 in
  let err_lock = Mutex.create () in
  let worker tid () =
    for i = 1 to per_thread do
      let args = [ [ Item.integer ((tid + i) mod 4) ] ] in
      let value = [ Item.integer (((tid + i) mod 4) * 100) ] in
      Function_cache.store cache fn args value;
      match Function_cache.lookup cache fn args with
      | Some got when Item.serialize got = Item.serialize value -> ()
      | Some _ | None ->
        (* a concurrent store of the same key writes the same value, so a
           fresh hit must return it *)
        Mutex.lock err_lock;
        incr errors;
        Mutex.unlock err_lock
    done
  in
  let ts = List.init threads (fun tid -> Thread.create (worker tid) ()) in
  List.iter Thread.join ts;
  check_int "no lost or torn entries" 0 !errors;
  check_int "every lookup hit" (threads * per_thread)
    (Function_cache.hits cache)

(* ------------------------------------------------------------------ *)
(* Cache counter consistency as properties: replay a random operation
   sequence against a trivial pure model and demand identical hit/miss
   counters                                                            *)

let test_function_cache_counters =
  QCheck.Test.make ~count:30
    ~name:"function-cache hit/miss counters match a pure model"
    QCheck.(list (pair (int_bound 3) bool))
    (fun ops ->
      let cache = Function_cache.create (Database.create "CounterDB") in
      let fn = Qname.local "g" in
      Function_cache.enable cache fn ~ttl_seconds:600.;
      let stored = Hashtbl.create 8 in
      let hits = ref 0 and misses = ref 0 in
      List.iter
        (fun (key, is_store) ->
          let args = [ [ Item.integer key ] ] in
          if is_store then begin
            Hashtbl.replace stored key ();
            Function_cache.store cache fn args [ Item.integer (key * 7) ]
          end
          else begin
            if Hashtbl.mem stored key then incr hits else incr misses;
            ignore (Function_cache.lookup cache fn args)
          end)
        ops;
      if Function_cache.hits cache <> !hits then
        QCheck.Test.fail_reportf "hits: cache %d, model %d"
          (Function_cache.hits cache) !hits;
      if Function_cache.misses cache <> !misses then
        QCheck.Test.fail_reportf "misses: cache %d, model %d"
          (Function_cache.misses cache) !misses;
      true)

let plan_cache_queries = [| "1"; "1 + 1"; "\"x\""; "(1, 2, 3)" |]

let test_plan_cache_counters =
  QCheck.Test.make ~count:30
    ~name:"plan-cache hit/miss counters match an LRU model"
    QCheck.(pair (1 -- 4) (list_of_size (Gen.return 25) (int_bound 3)))
    (fun (capacity, picks) ->
      let server =
        Server.create ~plan_cache_capacity:capacity (Metadata.create ())
      in
      let lru = ref [] in
      let hits = ref 0 and misses = ref 0 in
      List.iter
        (fun i ->
          let q = plan_cache_queries.(i) in
          (match Server.run server q with
          | Ok _ -> ()
          | Error e -> QCheck.Test.fail_reportf "query %S failed: %s" q e);
          if List.mem q !lru then begin
            incr hits;
            lru := q :: List.filter (fun x -> x <> q) !lru
          end
          else begin
            incr misses;
            lru := q :: !lru;
            if List.length !lru > capacity then
              lru := List.filteri (fun idx _ -> idx < capacity) !lru
          end)
        picks;
      if Server.plan_cache_hits server <> !hits then
        QCheck.Test.fail_reportf "hits: server %d, model %d (capacity %d)"
          (Server.plan_cache_hits server) !hits capacity;
      if Server.plan_cache_misses server <> !misses then
        QCheck.Test.fail_reportf "misses: server %d, model %d (capacity %d)"
          (Server.plan_cache_misses server) !misses capacity;
      true)

(* ------------------------------------------------------------------ *)
(* Server.stats                                                        *)

let test_server_stats () =
  let demo = Aldsp_demo.Demo.create ~customers:20 ~orders_per_customer:0 () in
  let obs = Observed.create () in
  let pool = Pool.create ~workers:2 () in
  let options =
    { Optimizer.default_options with
      Optimizer.ppk_k = 4;
      Optimizer.ppk_prefetch = 2;
      Optimizer.cost_based = false }
  in
  let server =
    Server.create ~optimizer_options:options ~pool ~observed:obs
      demo.Aldsp_demo.Demo.registry
  in
  ignore (ok_exn (Server.run server ppk_query));
  let s = Server.stats server in
  check_bool "roundtrips counted" true (s.Server.st_roundtrips >= 5);
  check_bool "pool saw the block queries" true
    (s.Server.st_pool.Pool.st_submitted >= 5);
  check_bool "source wall accumulated" true (s.Server.st_source_wall > 0.);
  check_bool "overlap never negative" true (s.Server.st_overlap_saved >= 0.);
  check_bool "pool bound respected" true
    (s.Server.st_pool.Pool.st_max_busy <= 2);
  check_int "plan compiled once" 1 s.Server.st_plan_cache_misses

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "async"
    [ ( "batch-seq",
        [ Alcotest.test_case "edge cases" `Quick test_batch_seq_edges;
          Alcotest.test_case "laziness" `Quick test_batch_seq_lazy ] );
      ( "pool",
        [ Alcotest.test_case "bound + completion" `Quick
            test_pool_bound_and_completion;
          Alcotest.test_case "nested await" `Quick test_pool_nested_await;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception;
          Alcotest.test_case "pipeline ordering" `Quick test_pipeline_ordered ] );
      ( "future",
        [ Alcotest.test_case "await_timeout" `Quick test_await_timeout;
          Alcotest.test_case "await_timeout leaves nothing behind" `Quick
            test_await_timeout_no_leftovers ] );
      ( "ppk-pipeline",
        [ QCheck_alcotest.to_alcotest test_ppk_byte_equality;
          Alcotest.test_case "prefetch hint" `Quick test_ppk_prefetch_hint ] );
      ( "concurrent-lets",
        [ Alcotest.test_case "independent overlap" `Quick test_concurrent_lets;
          Alcotest.test_case "dependent stay correct" `Quick
            test_dependent_lets_still_correct ] );
      ( "function-cache",
        [ Alcotest.test_case "concurrent hammer" `Quick
            test_function_cache_hammer ] );
      ( "cache-counters",
        [ QCheck_alcotest.to_alcotest test_function_cache_counters;
          QCheck_alcotest.to_alcotest test_plan_cache_counters ] );
      ( "server-stats",
        [ Alcotest.test_case "visibility" `Quick test_server_stats ] ) ]
