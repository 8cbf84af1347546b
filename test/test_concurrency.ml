(* Tests for the concurrent serving layer: cancellation tokens, pool
   shutdown under contention, per-query deadlines cutting through
   fn-bea:timeout windows and backend roundtrips, admission control with
   backpressure and drain, and cache/statistics invalidation under
   concurrent DML. *)

open Aldsp_core
open Aldsp_xml
open Aldsp_relational

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

let ok_exn = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let serialize_submit = function
  | Ok items -> "result: " ^ Item.serialize items
  | Error e -> "error: " ^ Server.submit_error_to_string e

let scan_query = "for $c in CUSTOMER() return $c/CID"

(* ------------------------------------------------------------------ *)
(* Cancel tokens                                                       *)

let test_cancel_basics () =
  check_bool "inert token never cancelled" false (Cancel.cancelled Cancel.none);
  Cancel.cancel Cancel.none;
  check_bool "inert token ignores cancel" false (Cancel.cancelled Cancel.none);
  let tok = Cancel.make () in
  check_bool "fresh token live" false (Cancel.cancelled tok);
  Cancel.cancel tok;
  check_bool "flag observed" true (Cancel.cancelled tok);
  let expired = Cancel.with_deadline (-0.001) in
  check_bool "past deadline is cancelled" true (Cancel.cancelled expired);
  check_bool "remaining clamps at zero" true
    (Cancel.remaining expired = Some 0.)

let test_cancel_ambient_nesting () =
  let outer = Cancel.make () and inner = Cancel.make () in
  Cancel.with_token outer (fun () ->
      check_bool "outer installed" true (Cancel.current () == outer);
      Cancel.with_token inner (fun () ->
          check_bool "inner shadows" true (Cancel.current () == inner));
      check_bool "outer restored" true (Cancel.current () == outer));
  check_bool "inert restored" true (Cancel.current () == Cancel.none)

let test_cancel_sleep_interrupted () =
  let tok = Cancel.make () in
  let t0 = Unix.gettimeofday () in
  let _ =
    Thread.create
      (fun () ->
        Thread.delay 0.03;
        Cancel.cancel tok)
      ()
  in
  (match Cancel.with_token tok (fun () -> Cancel.sleepf 5.0) with
  | () -> Alcotest.fail "sleep should have been interrupted"
  | exception Cancel.Cancelled _ -> ());
  let waited = Unix.gettimeofday () -. t0 in
  check_bool
    (Printf.sprintf "interrupted promptly (%.0f ms)" (waited *. 1000.))
    true (waited < 1.0)

(* [on_cancel] hooks: one-shot, fired by [cancel] or by the deadline
   thread with nothing blocked on the token, and leaving nothing
   registered or armed once fired or unregistered. *)

let counting_hook () =
  let fired = ref 0 in
  (fired, fun () -> incr fired)

let test_on_cancel_fires_once () =
  let tok = Cancel.make () in
  let fired, hook = counting_hook () in
  let unhook = Cancel.on_cancel tok hook in
  check_int "not fired while live" 0 !fired;
  Cancel.cancel tok;
  Cancel.cancel tok;
  unhook ();
  check_int "fired exactly once" 1 !fired;
  check_int "no hook left registered" 0 (Cancel.waiters ())

let test_on_cancel_fires_at_deadline () =
  let tok = Cancel.with_deadline 0.03 in
  let deadline = Unix.gettimeofday () +. 0.03 in
  let fired_at = ref 0. in
  let unhook = Cancel.on_cancel tok (fun () -> fired_at := Unix.gettimeofday ()) in
  let give_up = Unix.gettimeofday () +. 5. in
  while !fired_at = 0. && Unix.gettimeofday () < give_up do
    Thread.delay 0.001
  done;
  let late = (!fired_at -. deadline) *. 1000. in
  check_bool
    (Printf.sprintf "fired within 100 ms of the deadline (%.1f ms late)" late)
    true
    (!fired_at > 0. && late >= 0. && late < 100.);
  unhook ();
  check_int "no hook left registered" 0 (Cancel.waiters ());
  check_int "no deadline left armed" 0 (Cancel.armed_deadlines ())

let test_on_cancel_already_fired () =
  let tok = Cancel.make () in
  Cancel.cancel tok;
  let fired, hook = counting_hook () in
  let unhook = Cancel.on_cancel tok hook in
  check_int "ran at once" 1 !fired;
  unhook ();
  let expired = Cancel.with_deadline (-0.001) in
  let unhook = Cancel.on_cancel expired hook in
  unhook ();
  check_int "ran at once past the deadline" 2 !fired;
  check_int "nothing registered" 0 (Cancel.waiters ())

let test_on_cancel_unregister () =
  let tok = Cancel.with_deadline 30. in
  let fired, hook = counting_hook () in
  let unhook = Cancel.on_cancel tok hook in
  check_int "hook registered" 1 (Cancel.waiters ());
  check_int "its deadline armed" 1 (Cancel.armed_deadlines ());
  unhook ();
  check_int "no hook left registered" 0 (Cancel.waiters ());
  check_int "no deadline left armed" 0 (Cancel.armed_deadlines ());
  Cancel.cancel tok;
  check_int "an unregistered hook never runs" 0 !fired

(* ------------------------------------------------------------------ *)
(* Pool shutdown under contention                                      *)

let test_pool_double_shutdown () =
  let pool = Pool.create ~workers:2 () in
  check_int "warm-up task" 3 (Pool.await pool (Pool.submit pool (fun () -> 3)));
  Pool.shutdown pool;
  Pool.shutdown pool;
  Pool.shutdown ~wait:true pool;
  Pool.shutdown ~wait:true pool;
  (* tasks submitted after shutdown still complete via help-draining *)
  check_int "post-shutdown task" 9
    (Pool.await pool (Pool.submit pool (fun () -> 9)))

let test_pool_shutdown_with_inflight () =
  let pool = Pool.create ~workers:3 () in
  let futs =
    List.init 12 (fun i ->
        Pool.submit pool (fun () ->
            Thread.delay 0.01;
            i))
  in
  (* workers are mid-task (or the queue still holds work) right here *)
  Pool.shutdown ~wait:true pool;
  List.iteri (fun i fut -> check_int "task survived shutdown" i (Pool.await pool fut)) futs;
  let s = Pool.stats pool in
  check_int "nothing abandoned" s.Pool.st_submitted
    (s.Pool.st_completed + s.Pool.st_helped)

let test_pool_concurrent_shutdowns () =
  let pool = Pool.create ~workers:2 () in
  ignore (Pool.await pool (Pool.submit pool (fun () -> ())));
  let ts =
    List.init 4 (fun _ -> Thread.create (fun () -> Pool.shutdown ~wait:true pool) ())
  in
  List.iter Thread.join ts

(* ------------------------------------------------------------------ *)
(* Deadlines                                                           *)

let test_deadline_under_backend_latency () =
  let demo = Aldsp_demo.Demo.create ~customers:5 ~db_latency:0.5 () in
  let server = demo.Aldsp_demo.Demo.server in
  let t0 = Unix.gettimeofday () in
  (match Server.submit server ~deadline:0.05 scan_query with
  | Error (Server.Cancelled _) -> ()
  | other -> Alcotest.failf "expected Cancelled, got %s" (serialize_submit other));
  let wall = Unix.gettimeofday () -. t0 in
  check_bool
    (Printf.sprintf "aborted well before the roundtrip (%.0f ms)" (wall *. 1000.))
    true (wall < 0.4);
  let adm = Server.admission_stats server in
  check_int "deadline abort counted" 1 adm.Server.ad_deadline_aborts;
  check_int "slot released" 0 adm.Server.ad_active;
  (* no leaked worker / wedged slot: the same server still serves *)
  demo.Aldsp_demo.Demo.customer_db.Database.roundtrip_latency <- 0.;
  (match Server.submit server scan_query with
  | Ok items -> check_int "subsequent query serves" 5 (List.length items)
  | Error e -> Alcotest.failf "recovery query failed: %s" (Server.submit_error_to_string e))

let timeout_query ms =
  Printf.sprintf
    "fn-bea:timeout(fn:data(getRating(<getRating><lName>{\"x\"}</lName><ssn>{\"9\"}</ssn></getRating>)/getRatingResult), %d, -1)"
    ms

let test_deadline_mid_timeout_window () =
  (* the fn-bea:timeout window (2 s) is clamped by the session deadline
     (0.1 s): the await wakes at the deadline and the query aborts — it
     must NOT fail over to the alternate, a deadline is not a timeout *)
  let demo = Aldsp_demo.Demo.create ~customers:1 ~service_latency:0.5 () in
  let server = demo.Aldsp_demo.Demo.server in
  let t0 = Unix.gettimeofday () in
  (match Server.submit server ~deadline:0.1 (timeout_query 2000) with
  | Error (Server.Cancelled _) -> ()
  | other ->
    Alcotest.failf "expected Cancelled mid-window, got %s" (serialize_submit other));
  let wall = Unix.gettimeofday () -. t0 in
  check_bool
    (Printf.sprintf "woke at the deadline, not the window (%.0f ms)" (wall *. 1000.))
    true (wall < 0.45)

let test_timeout_inside_generous_deadline () =
  (* the converse composition: the 30 ms fn-bea:timeout fires first and
     fails over normally; the generous session deadline stays out of it *)
  let demo = Aldsp_demo.Demo.create ~customers:1 ~service_latency:0.3 () in
  let server = demo.Aldsp_demo.Demo.server in
  match Server.submit server ~deadline:10.0 (timeout_query 30) with
  | Ok items ->
    check_bool "alternate returned" true
      (Item.equal_sequence items [ Item.integer (-1) ])
  | Error e ->
    Alcotest.failf "expected the timeout alternate: %s"
      (Server.submit_error_to_string e)

let test_explicit_session_cancel () =
  let demo = Aldsp_demo.Demo.create ~customers:3 ~db_latency:0.5 () in
  let server = demo.Aldsp_demo.Demo.server in
  let ses = Server.session server () in
  let result = ref (Error Server.Overloaded) in
  let th =
    Thread.create (fun () -> result := Server.session_run ses scan_query) ()
  in
  Thread.delay 0.1;
  let t0 = Unix.gettimeofday () in
  Server.session_cancel ses;
  Thread.join th;
  let wall = Unix.gettimeofday () -. t0 in
  (match !result with
  | Error (Server.Cancelled _) -> ()
  | other -> Alcotest.failf "expected Cancelled, got %s" (serialize_submit other));
  check_bool
    (Printf.sprintf "cancel took effect promptly (%.0f ms)" (wall *. 1000.))
    true (wall < 0.4)

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)

let slow_server demo ~max_concurrent ~admission_queue =
  Server.create ~max_concurrent ~admission_queue
    demo.Aldsp_demo.Demo.registry

let test_admission_overload_rejection () =
  let demo = Aldsp_demo.Demo.create ~customers:3 ~db_latency:0.4 () in
  let server = slow_server demo ~max_concurrent:1 ~admission_queue:0 in
  let th = Thread.create (fun () -> Server.submit server scan_query) () in
  Thread.delay 0.15;
  (* the only slot is mid-roundtrip and the queue admits nobody *)
  (match Server.submit server scan_query with
  | Error Server.Overloaded -> ()
  | other -> Alcotest.failf "expected Overloaded, got %s" (serialize_submit other));
  ignore (Thread.join th);
  let adm = Server.admission_stats server in
  check_int "rejection counted" 1 adm.Server.ad_rejected;
  check_int "peak concurrency capped" 1 adm.Server.ad_peak_active;
  (* with the slot free again, the front door reopens *)
  (match Server.submit server scan_query with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "post-overload submit failed: %s"
                 (Server.submit_error_to_string e))

let test_admission_queueing () =
  let demo = Aldsp_demo.Demo.create ~customers:3 ~db_latency:0.1 () in
  let server = slow_server demo ~max_concurrent:1 ~admission_queue:8 in
  let results = Array.make 6 (Error Server.Overloaded) in
  let ts =
    List.init 6 (fun i ->
        Thread.create (fun () -> results.(i) <- Server.submit server scan_query) ())
  in
  List.iter Thread.join ts;
  Array.iteri
    (fun i r ->
      match r with
      | Ok _ -> ()
      | Error e ->
        Alcotest.failf "queued query %d failed: %s" i
          (Server.submit_error_to_string e))
    results;
  let adm = Server.admission_stats server in
  check_int "all admitted" 6 adm.Server.ad_admitted;
  check_int "all completed" 6 adm.Server.ad_completed;
  check_int "serialized through one slot" 1 adm.Server.ad_peak_active;
  check_bool "queue actually formed" true (adm.Server.ad_peak_queued >= 1);
  check_int "nothing left behind" 0 (adm.Server.ad_active + adm.Server.ad_queued)

let test_drain () =
  let demo = Aldsp_demo.Demo.create ~customers:3 ~db_latency:0.3 () in
  let server = slow_server demo ~max_concurrent:4 ~admission_queue:8 in
  let inflight = ref (Error Server.Overloaded) in
  let th = Thread.create (fun () -> inflight := Server.submit server scan_query) () in
  Thread.delay 0.1;
  check_bool "not draining yet" false (Server.draining server);
  Server.drain server;
  (* drain returned: the in-flight query ran to completion first *)
  Thread.join th;
  (match !inflight with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "in-flight query should finish during drain: %s"
      (Server.submit_error_to_string e));
  check_bool "draining is sticky" true (Server.draining server);
  (match Server.submit server scan_query with
  | Error Server.Overloaded -> ()
  | other ->
    Alcotest.failf "post-drain submit must be shed, got %s"
      (serialize_submit other));
  let adm = Server.admission_stats server in
  check_int "quiescent after drain" 0 (adm.Server.ad_active + adm.Server.ad_queued)

(* ------------------------------------------------------------------ *)
(* Cache / statistics invalidation under concurrent DML                *)

let count_query = "fn:count(CUSTOMER())"

let test_concurrent_dml_never_stale () =
  let demo = Aldsp_demo.Demo.create ~customers:8 () in
  let server = demo.Aldsp_demo.Demo.server in
  let customer =
    Result.get_ok (Database.find_table demo.Aldsp_demo.Demo.customer_db "CUSTOMER")
  in
  let module V = Sql_value in
  let insert i =
    Result.get_ok
      (Table.insert customer
         [| V.Str (Printf.sprintf "NEW%05d" i);
            V.Str "Race";
            V.Str "Rex";
            V.Str (Printf.sprintf "999-00-%04d" i);
            V.Int (i * 86400) |])
  in
  let writers = 2 and per_writer = 25 and readers = 4 in
  let failures = ref [] in
  let fail_lock = Mutex.create () in
  let note_failure msg =
    Mutex.lock fail_lock;
    failures := msg :: !failures;
    Mutex.unlock fail_lock
  in
  let writer w () =
    for i = 1 to per_writer do
      insert ((w * per_writer) + i);
      Thread.delay 0.0005
    done
  in
  let reader () =
    for _ = 1 to 40 do
      match Server.submit server count_query with
      | Ok [ item ] -> (
        match int_of_string_opt (Item.string_value item) with
        | Some n when n >= 8 && n <= 8 + (writers * per_writer) -> ()
        | _ -> note_failure ("implausible count: " ^ Item.serialize [ item ]))
      | Ok items -> note_failure ("count returned " ^ Item.serialize items)
      | Error e -> note_failure (Server.submit_error_to_string e)
    done
  in
  let ts =
    List.init writers (fun w -> Thread.create (writer w) ())
    @ List.init readers (fun _ -> Thread.create reader ())
  in
  List.iter Thread.join ts;
  (match !failures with
  | [] -> ()
  | msg :: _ -> Alcotest.failf "concurrent DML raced the cache: %s" msg);
  (* end state: the cached plan must see every inserted row — a stale
     plan (or stale statistics-driven choice) would disagree with a
     freshly-built reference server over the same registry *)
  let final = Item.serialize (ok_exn (Server.run server count_query)) in
  let reference = Server.reference demo.Aldsp_demo.Demo.registry in
  let expected = Item.serialize (ok_exn (Server.run reference count_query)) in
  check_bool
    (Printf.sprintf "final count %s matches reference %s" final expected)
    true
    (String.equal final expected);
  let adm = Server.admission_stats server in
  check_int "admission balanced" adm.Server.ad_admitted
    (adm.Server.ad_completed + adm.Server.ad_deadline_aborts)

(* Single-schedule property: after ANY prefix of DML, a re-submitted
   query must reflect the mutation immediately — the plan cache may hit
   only while the statistics generation is unchanged. *)
let test_invalidation_property =
  QCheck.Test.make ~count:15
    ~name:"plan cache never serves a row count from before a mutation"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 12) bool)
    (fun ops ->
      let demo = Aldsp_demo.Demo.create ~customers:4 () in
      let server = demo.Aldsp_demo.Demo.server in
      let customer =
        Result.get_ok
          (Database.find_table demo.Aldsp_demo.Demo.customer_db "CUSTOMER")
      in
      let module V = Sql_value in
      let expected = ref 4 in
      let fresh = ref 0 in
      List.iter
        (fun mutate ->
          if mutate then begin
            incr fresh;
            incr expected;
            ignore
              (Result.get_ok
                 (Table.insert customer
                    [| V.Str (Printf.sprintf "PROP%04d" !fresh);
                       V.Str "Prop";
                       V.Null;
                       V.Str (Printf.sprintf "888-00-%04d" !fresh);
                       V.Int 86400 |]))
          end;
          match Server.submit server count_query with
          | Ok [ item ] ->
            let got = int_of_string_opt (Item.string_value item) in
            if got <> Some !expected then
              QCheck.Test.fail_reportf
                "after %d inserts the server counted %s, expected %d" !fresh
                (Item.string_value item) !expected
          | Ok items ->
            QCheck.Test.fail_reportf "count returned %s" (Item.serialize items)
          | Error e ->
            QCheck.Test.fail_reportf "submit failed: %s"
              (Server.submit_error_to_string e))
        ops;
      true)

(* ------------------------------------------------------------------ *)
(* Single-flight coalescing                                            *)

module Singleflight = Aldsp_concurrency.Singleflight

(* a broadcast gate: [wait] blocks until [release] *)
let gate () =
  let m = Mutex.create () and c = Condition.create () and opened = ref false in
  let wait () =
    Mutex.lock m;
    while not !opened do
      Condition.wait c m
    done;
    Mutex.unlock m
  and release () =
    Mutex.lock m;
    opened := true;
    Condition.broadcast c;
    Mutex.unlock m
  in
  (wait, release)

let test_singleflight_coalesces () =
  let sf = Singleflight.create () in
  let wait, release = gate () in
  let computed = ref 0 in
  let results = Array.make 8 (-1) in
  let worker i () =
    match Singleflight.run sf "k" (fun () -> incr computed; wait (); 42) with
    | Singleflight.Led v | Singleflight.Joined v -> results.(i) <- v
  in
  let leader = Thread.create (worker 0) () in
  (* the leader's flight must be up before the followers arrive *)
  while Singleflight.flights sf = 0 do
    Thread.yield ()
  done;
  let followers = List.init 7 (fun i -> Thread.create (worker (i + 1)) ()) in
  Thread.delay 0.05;
  release ();
  Thread.join leader;
  List.iter Thread.join followers;
  check_int "computed exactly once" 1 !computed;
  Array.iter (fun v -> check_int "every caller got the value" 42 v) results;
  check_int "one flight led" 1 (Singleflight.led sf);
  check_int "seven joined" 7 (Singleflight.joined sf);
  check_int "no flight left behind" 0 (Singleflight.flights sf)

let test_singleflight_leader_failure () =
  let sf = Singleflight.create () in
  let wait, release = gate () in
  let attempts = ref 0 and attempts_lock = Mutex.create () in
  let compute () =
    let n =
      Mutex.lock attempts_lock;
      incr attempts;
      let n = !attempts in
      Mutex.unlock attempts_lock;
      n
    in
    if n = 1 then begin
      wait ();
      failwith "leader died"
    end
    else begin
      (* slow enough that the other retrying followers join this flight *)
      Thread.delay 0.05;
      7
    end
  in
  let leader_failed = ref false in
  let leader =
    Thread.create
      (fun () ->
        match Singleflight.run sf "k" compute with
        | exception Failure _ -> leader_failed := true
        | _ -> ())
      ()
  in
  while Singleflight.flights sf = 0 do
    Thread.yield ()
  done;
  let results = Array.make 3 (-1) in
  let followers =
    List.init 3 (fun i ->
        Thread.create
          (fun () ->
            match Singleflight.run sf "k" compute with
            | Singleflight.Led v | Singleflight.Joined v -> results.(i) <- v)
          ())
  in
  Thread.delay 0.05;
  release ();
  Thread.join leader;
  List.iter Thread.join followers;
  check_bool "only the leader saw its own failure" true !leader_failed;
  Array.iter (fun v -> check_int "followers retried to the value" 7 v) results;
  check_int "one broken flight" 1 (Singleflight.broken sf);
  check_int "the retry executed once" 2 !attempts

let test_singleflight_follower_cancel () =
  let sf = Singleflight.create () in
  let wait, release = gate () in
  let tok = Cancel.make () in
  let cancelled = ref false and survivor = ref (-1) in
  let leader =
    Thread.create
      (fun () -> ignore (Singleflight.run sf "k" (fun () -> wait (); 11)))
      ()
  in
  while Singleflight.flights sf = 0 do
    Thread.yield ()
  done;
  let doomed =
    Thread.create
      (fun () ->
        Cancel.with_token tok (fun () ->
            match Singleflight.run sf "k" (fun () -> 0) with
            | exception Cancel.Cancelled _ -> cancelled := true
            | _ -> ()))
      ()
  in
  let bystander =
    Thread.create
      (fun () ->
        match Singleflight.run sf "k" (fun () -> 0) with
        | Singleflight.Led v | Singleflight.Joined v -> survivor := v)
      ()
  in
  Thread.delay 0.05;
  Cancel.cancel tok;
  Thread.join doomed;
  check_bool "cancelled follower aborted alone" true !cancelled;
  (* ... without taking the shared computation down with it *)
  check_int "flight still up after the cancel" 1 (Singleflight.flights sf);
  release ();
  Thread.join leader;
  Thread.join bystander;
  check_int "remaining waiter still served" 11 !survivor

(* ------------------------------------------------------------------ *)
(* Deadline-only wake-ups: a waiter whose deadline fires while nobody  *)
(* signals its condition ends Cancelled within 100 ms of the deadline, *)
(* everyone else completes, and nothing stays registered.              *)

(* runs [f] under a fresh token expiring in [seconds]; returns how late
   (ms past the deadline) it raised Cancelled, failing if it returned *)
let lateness_ms seconds f =
  let tok = Cancel.with_deadline seconds in
  let deadline = Unix.gettimeofday () +. seconds in
  match Cancel.with_token tok f with
  | _ -> Alcotest.fail "expected the deadline to cancel the wait"
  | exception Cancel.Cancelled _ -> (Unix.gettimeofday () -. deadline) *. 1000.

let check_prompt what ms =
  check_bool (Printf.sprintf "%s ended within 100 ms of its deadline (%.1f ms late)" what ms)
    true (ms < 100.)

let check_nothing_registered () =
  check_int "no waiter left registered" 0 (Cancel.waiters ());
  check_int "no deadline left armed" 0 (Cancel.armed_deadlines ())

let test_singleflight_follower_deadline () =
  let sf = Singleflight.create () in
  let wait, release = gate () in
  let leader_v = ref (-1) and bystander_v = ref (-1) in
  let leader =
    Thread.create
      (fun () ->
        match Singleflight.run sf "k" (fun () -> wait (); 11) with
        | Singleflight.Led v | Singleflight.Joined v -> leader_v := v)
      ()
  in
  while Singleflight.flights sf = 0 do
    Thread.yield ()
  done;
  (* a follower with a generous deadline of its own waits it out *)
  let bystander =
    Thread.create
      (fun () ->
        Cancel.with_token (Cancel.with_deadline 30.) (fun () ->
            match Singleflight.run sf "k" (fun () -> 0) with
            | Singleflight.Led v | Singleflight.Joined v -> bystander_v := v))
      ()
  in
  let late =
    lateness_ms 0.05 (fun () -> Singleflight.run sf "k" (fun () -> 0))
  in
  check_prompt "follower" late;
  check_int "flight still up after the expiry" 1 (Singleflight.flights sf);
  release ();
  Thread.join leader;
  Thread.join bystander;
  check_int "leader completed" 11 !leader_v;
  check_int "other follower served" 11 !bystander_v;
  check_int "no flight left behind" 0 (Singleflight.flights sf);
  check_nothing_registered ()

let test_batch_member_deadline () =
  let demo = Aldsp_demo.Demo.create ~customers:5 ~db_latency:0.002 () in
  let db = demo.Aldsp_demo.Demo.customer_db in
  Database.set_share_work db true;
  (* a slow leader: it holds the accumulation window open for 300 ms *)
  db.Database.batch_window <- 0.3;
  let probe =
    ok_exn (Sql_parser.parse_select "SELECT c.CID FROM CUSTOMER c WHERE c.CID = ?")
  in
  let run key = Sql_exec.open_cursor db ~params:[| Sql_value.Str key |] probe in
  let rows cur =
    let rec drain n =
      match Sql_exec.fetch_chunk cur with
      | Ok [] -> n
      | Ok chunk -> drain (n + List.length chunk)
      | Error m -> Alcotest.fail m
    in
    drain 0
  in
  let leader_r = ref (Error "not run") and member_r = ref (Error "not run") in
  let leader = Thread.create (fun () -> leader_r := run "CUST0001") () in
  Thread.delay 0.02;
  let member = Thread.create (fun () -> member_r := run "CUST0002") () in
  let late = lateness_ms 0.05 (fun () -> run "CUST0003") in
  check_prompt "batch member" late;
  Thread.join leader;
  Thread.join member;
  Database.set_share_work db false;
  (match !leader_r with
  | Ok cur ->
    check_bool "the leader does not report a shared result" false
      (Sql_exec.cursor_shared cur);
    check_int "leader served its probe" 1 (rows cur)
  | Error m -> Alcotest.fail m);
  (match !member_r with
  | Ok cur ->
    check_bool "the member joined the batch" true (Sql_exec.cursor_shared cur);
    check_int "member served from the batch" 1 (rows cur)
  | Error m -> Alcotest.fail m);
  check_nothing_registered ()

let test_admission_deadline_in_queue () =
  let demo = Aldsp_demo.Demo.create ~customers:3 ~db_latency:0.3 () in
  let server = slow_server demo ~max_concurrent:1 ~admission_queue:4 in
  let holder = Thread.create (fun () -> ignore (Server.submit server scan_query)) () in
  while (Server.admission_stats server).Server.ad_active = 0 do
    Thread.delay 0.001
  done;
  let deadline = Unix.gettimeofday () +. 0.05 in
  (match Server.submit server ~deadline:0.05 scan_query with
  | Error (Server.Cancelled _) -> ()
  | other -> Alcotest.failf "expected Cancelled in the queue, got %s" (serialize_submit other));
  check_prompt "queued submission" ((Unix.gettimeofday () -. deadline) *. 1000.);
  Thread.join holder;
  let adm = Server.admission_stats server in
  check_int "expiry counted" 1 adm.Server.ad_deadline_aborts;
  check_int "holder completed" 1 adm.Server.ad_completed;
  check_int "no slot held" 0 adm.Server.ad_active;
  check_int "nobody queued" 0 adm.Server.ad_queued;
  check_nothing_registered ()

(* ------------------------------------------------------------------ *)
(* Cross-session work sharing: function cache, plan cache, freshness   *)

let test_function_cache_coalesced_miss () =
  (* how many backend statements one cold computation issues *)
  let per_compute =
    let cache = Function_cache.create (Database.create "CacheDB") in
    let demo = Aldsp_demo.Demo.create ~customers:3 ~function_cache:cache () in
    let name = Qname.make ~uri:"fn" "getCustomerNames" in
    Metadata.set_cacheable demo.Aldsp_demo.Demo.registry name true;
    Function_cache.enable cache name ~ttl_seconds:60.;
    ignore (ok_exn (Server.call demo.Aldsp_demo.Demo.server name []));
    demo.Aldsp_demo.Demo.customer_db.Database.stats.Database.statements
  in
  let cache = Function_cache.create (Database.create "CacheDB") in
  let demo =
    Aldsp_demo.Demo.create ~customers:3 ~db_latency:0.1 ~function_cache:cache ()
  in
  let server = demo.Aldsp_demo.Demo.server in
  let name = Qname.make ~uri:"fn" "getCustomerNames" in
  Metadata.set_cacheable demo.Aldsp_demo.Demo.registry name true;
  Function_cache.enable cache name ~ttl_seconds:60.;
  let results = Array.make 4 "" in
  let ts =
    List.init 4 (fun i ->
        Thread.create
          (fun () ->
            results.(i) <- Item.serialize (ok_exn (Server.call server name [])))
          ())
  in
  List.iter Thread.join ts;
  Array.iter
    (fun r -> check_bool "all sessions agree" true (String.equal r results.(0)))
    results;
  check_int "three misses coalesced onto one computation" 3
    (Function_cache.coalesced cache);
  check_int "backend computed once" per_compute
    demo.Aldsp_demo.Demo.customer_db.Database.stats.Database.statements;
  check_int "no warm hits during the fan-out" 0 (Function_cache.hits cache);
  (* and the leader's store landed: the next call is a plain warm hit *)
  ignore (ok_exn (Server.call server name []));
  check_int "subsequent call hits" 1 (Function_cache.hits cache)

let test_function_cache_materialized_bound () =
  let cache = Function_cache.create ~capacity:2 (Database.create "CacheDB") in
  let name = Qname.make ~uri:"fn" "f" in
  Function_cache.enable cache name ~ttl_seconds:60.;
  for i = 1 to 5 do
    Function_cache.store cache name
      [ [ Item.string (string_of_int i) ] ]
      [ Item.string (Printf.sprintf "value %d" i) ]
  done;
  check_int "typed-value table bounded at capacity" 2
    (Function_cache.materialized_count cache);
  (* an evicted entry is not lost: the persistent row serves a cold hit *)
  match Function_cache.lookup cache name [ [ Item.string "1" ] ] with
  | Some v ->
    check_bool "cold hit rebuilt from storage" true
      (String.equal (Item.serialize v) (Item.serialize [ Item.string "value 1" ]))
  | None -> Alcotest.fail "evicted entry lost entirely"

let test_plan_cache_balance () =
  let key i =
    { Plan_cache.k_query = Printf.sprintf "q%d" i;
      k_options = "o";
      k_generation = 1;
      k_stats = 0 }
  in
  let cache = Plan_cache.create ~capacity:4 in
  let finds = ref 0 in
  for i = 1 to 20 do
    Plan_cache.add cache (key i) i;
    incr finds;
    ignore (Plan_cache.find cache (key i));
    incr finds;
    ignore (Plan_cache.find cache (key (i / 2)))
  done;
  (* re-adding a resident key is a replacement, not an eviction *)
  Plan_cache.add cache (key 20) 200;
  check_int "bounded at capacity" 4 (Plan_cache.size cache);
  check_int "distinct adds - evictions = size" (Plan_cache.size cache)
    (20 - Plan_cache.evictions cache);
  check_int "every find is a hit or a miss" !finds
    (Plan_cache.hits cache + Plan_cache.misses cache);
  check_bool "just-added keys always hit" true (Plan_cache.hits cache >= 20)

(* Streamed sessions under work sharing: eight readers of one pushed
   join start pulling together, so their statements (the CUSTOMER scan
   and every PP-k block) coalesce and come back as replay cursors. Each
   streamed answer must serialize byte for byte like the serial
   materialized one, every saved roundtrip must show as a shared= count
   on the plan, and no slot, waiter or deadline may be left behind. *)
let test_streamed_sessions_share () =
  let demo = Aldsp_demo.Demo.create ~customers:40 ~db_latency:0.01 () in
  let server = demo.Aldsp_demo.Demo.server in
  let q =
    "for $c in CUSTOMER(), $x in CREDIT_CARD() where $c/CID eq $x/CID \
     return <R>{$c/CID, $x/NUM}</R>"
  in
  let expected = Server.serialize_result server (ok_exn (Server.run server q)) in
  Server.set_work_sharing server true;
  let n = 8 in
  let opened = Stdlib.Atomic.make 0 in
  let outputs = Array.make n (Error (Server.Failed "not run")) in
  let reader i () =
    match Server.session_run_stream (Server.session server ()) q with
    | Error e ->
      Stdlib.Atomic.incr opened;
      outputs.(i) <- Error e
    | Ok stream ->
      (* every stream is admitted and compiled before any reads *)
      Stdlib.Atomic.incr opened;
      while Stdlib.Atomic.get opened < n do
        Thread.delay 0.001
      done;
      let buf = Buffer.create 4096 in
      outputs.(i) <-
        Result.map
          (fun () -> Buffer.contents buf)
          (Server.stream_serialize stream (Buffer.add_string buf))
  in
  List.iter Thread.join (List.init n (fun i -> Thread.create (reader i) ()));
  let st = Server.stats server in
  Server.set_work_sharing server false;
  Array.iteri
    (fun i r ->
      match r with
      | Ok text ->
        check_bool
          (Printf.sprintf "stream %d byte-identical to serialize_result" i)
          true (text = expected)
      | Error e -> Alcotest.failf "stream %d: %s" i (Server.submit_error_to_string e))
    outputs;
  check_bool "roundtrips saved" true (st.Server.st_dedup_roundtrips_saved > 0);
  check_int "saved = coalesced + merged"
    (st.Server.st_coalesced_hits + st.Server.st_batch_merges)
    st.Server.st_dedup_roundtrips_saved;
  let compiled =
    match Server.compile server q with
    | Ok c -> c
    | Error _ -> Alcotest.fail "compile failed"
  in
  check_int "every saved roundtrip counted shared= on the plan"
    st.Server.st_dedup_roundtrips_saved
    (List.fold_left
       (fun acc (_, c) -> acc + c.Plan_ir.c_more.Plan_ir.c_shared)
       0 (Plan_ir.operators compiled.Server.ir));
  check_int "no slot held" 0 (Server.admission_stats server).Server.ad_active;
  check_nothing_registered ()

(* Every execution counts into its own array, so work interleaved with a
   stream cannot leak into the stream's numbers. The stream opens, a
   second session runs the same text to completion, then the stream
   drains: the misestimate rollup must read what a serial run reads, not
   the two runs' rows summed against one estimate. *)
let test_stream_misestimate_own_run () =
  let q = "getProfileByID(\"CUST0001\")" in
  let serial = (Aldsp_demo.Demo.create ~customers:20 ()).Aldsp_demo.Demo.server in
  ignore (ok_exn (Server.run serial q));
  let expected = (Server.stats serial).Server.st_max_misestimate in
  Alcotest.(check (float 1e-9)) "serial estimate holds" 1. expected;
  let server = (Aldsp_demo.Demo.create ~customers:20 ()).Aldsp_demo.Demo.server in
  let stream =
    match Server.session_run_stream (Server.session server ()) q with
    | Ok st -> st
    | Error e -> Alcotest.fail (Server.submit_error_to_string e)
  in
  (match Server.session_run (Server.session server ()) q with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Server.submit_error_to_string e));
  (match Server.stream_serialize stream ignore with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Server.submit_error_to_string e));
  Alcotest.(check (float 1e-9)) "interleaved = serial" expected
    (Server.stats server).Server.st_max_misestimate

(* EXPLAIN ANALYZE renders its own execution: run while a stream of the
   same text is half read, it prints what a serial EXPLAIN on a fresh
   server prints, and the text's view then holds both runs. *)
let test_explain_beside_open_stream () =
  let q =
    "for $c in CUSTOMER(), $x in CREDIT_CARD() where $c/CID eq $x/CID \
     return <R>{$c/CID, $x/NUM}</R>"
  in
  let server () =
    (Aldsp_demo.Demo.create ~customers:40 ()).Aldsp_demo.Demo.server
  in
  let expected = ok_exn (Server.explain (server ()) q) in
  let server = server () in
  let stream =
    match Server.session_run_stream (Server.session server ()) q with
    | Ok st -> st
    | Error e -> Alcotest.fail (Server.submit_error_to_string e)
  in
  (* 8 tokens per <R>: 160 is half the 40 rows *)
  for _ = 1 to 160 do
    match Server.stream_read stream with
    | Ok (Some _) -> ()
    | Ok None -> Alcotest.fail "stream ended before half way"
    | Error e -> Alcotest.fail (Server.submit_error_to_string e)
  done;
  let explained = ok_exn (Server.explain server q) in
  let rec finish () =
    match Server.stream_read stream with
    | Ok (Some _) -> finish ()
    | Ok None -> ()
    | Error e -> Alcotest.fail (Server.submit_error_to_string e)
  in
  finish ();
  Alcotest.(check string) "EXPLAIN = a serial one on a fresh server" expected
    explained;
  let compiled =
    match Server.compile server q with
    | Ok c -> c
    | Error _ -> Alcotest.fail "compile failed"
  in
  let ir = compiled.Server.ir in
  let root = ir.Plan_ir.tree.Plan_ir.id in
  check_int "the view holds the stream's and EXPLAIN's 40 rows each" 80
    ir.Plan_ir.totals.(root).Plan_ir.c_rows;
  check_int "no slot held" 0 (Server.admission_stats server).Server.ad_active

(* Freshness under sharing: a reader admitted AFTER an insert completed
   must never be served a coalesced result from before that insert — the
   statement-sharing key carries the backend's statistics version, so a
   DML bump splits the flights into epochs. *)
let test_sharing_freshness_property =
  QCheck.Test.make ~count:6
    ~name:"DML racing a coalesced fan-out never serves pre-admission data"
    QCheck.(int_range 3 8)
    (fun inserts ->
      let demo = Aldsp_demo.Demo.create ~customers:4 ~db_latency:0.004 () in
      let server = demo.Aldsp_demo.Demo.server in
      Server.set_work_sharing server true;
      let customer =
        Result.get_ok
          (Database.find_table demo.Aldsp_demo.Demo.customer_db "CUSTOMER")
      in
      let module V = Sql_value in
      let completed = ref 0 and lock = Mutex.create () in
      let failure = ref None in
      let note msg =
        Mutex.lock lock;
        if !failure = None then failure := Some msg;
        Mutex.unlock lock
      in
      let writer () =
        for i = 1 to inserts do
          ignore
            (Result.get_ok
               (Table.insert customer
                  [| V.Str (Printf.sprintf "RACE%04d" i);
                     V.Str "Race";
                     V.Null;
                     V.Str (Printf.sprintf "777-00-%04d" i);
                     V.Int 86400 |]));
          Mutex.lock lock;
          completed := i;
          Mutex.unlock lock;
          Thread.delay 0.003
        done
      in
      let reader () =
        for _ = 1 to 12 do
          (* admission-time snapshot: inserts known complete before we ask *)
          let c0 =
            Mutex.lock lock;
            let c = !completed in
            Mutex.unlock lock;
            c
          in
          match Server.submit server count_query with
          | Ok [ item ] -> (
            match int_of_string_opt (Item.string_value item) with
            | Some n when n >= 4 + c0 -> ()
            | Some n ->
              note
                (Printf.sprintf
                   "served %d rows when %d inserts had already completed (floor %d)"
                   n c0 (4 + c0))
            | None -> note ("non-integer count: " ^ Item.serialize [ item ]))
          | Ok items -> note ("count returned " ^ Item.serialize items)
          | Error e -> note (Server.submit_error_to_string e)
        done
      in
      let ts =
        Thread.create writer () :: List.init 3 (fun _ -> Thread.create reader ())
      in
      List.iter Thread.join ts;
      let st = Server.stats server in
      Server.set_work_sharing server false;
      (match !failure with
      | Some msg -> QCheck.Test.fail_report msg
      | None -> ());
      if
        st.Server.st_dedup_roundtrips_saved
        <> st.Server.st_coalesced_hits + st.Server.st_batch_merges
      then
        QCheck.Test.fail_reportf
          "sharing counters unbalanced: saved=%d coalesced=%d merges=%d"
          st.Server.st_dedup_roundtrips_saved st.Server.st_coalesced_hits
          st.Server.st_batch_merges;
      true)

(* ------------------------------------------------------------------ *)
(* One statement lifecycle: every entry point against every ending     *)

(* Each row runs one entry point on a fresh server and then asserts the
   result class (never an exception), the admission identity, and that
   no Cancel waiter or armed deadline is left. The text whose custom
   function raises must move its view's totals by the same amount on
   every entry point that runs it. *)

type outcome = Done | Failed | Cancelled

let outcome_name = function
  | Done -> "Ok"
  | Failed -> "Failed"
  | Cancelled -> "Cancelled"

type ending =
  | Completes
  | Compile_error
  | Raising  (* a custom function that raises [Failure] *)
  | Fired  (* the token fired before the statement opened *)
  | Cancel_mid_stream
  | Abandon  (* the serializer meets an end tag it never saw open *)

let ending_name = function
  | Completes -> "completes"
  | Compile_error -> "compile error"
  | Raising -> "raising function"
  | Fired -> "fired token"
  | Cancel_mid_stream -> "cancel mid-stream"
  | Abandon -> "serializer abandon"

let boom = Qname.local "boom"
let rows_text = "for $c in CUSTOMER() return <R>{$c/CID}{$c/LAST_NAME}</R>"
let raising_text = "for $c in CUSTOMER() return boom(1)"

let text_of = function
  | Compile_error -> "for $c in"
  | Raising -> raising_text
  | Completes | Fired | Cancel_mid_stream | Abandon -> rows_text

let lifecycle_server () =
  let server =
    (* 300 rows fill more than one of the serializer's 4 KiB chunks *)
    (Aldsp_demo.Demo.create ~customers:300 ~orders_per_customer:0 ())
      .Aldsp_demo.Demo.server
  in
  let registry = Server.registry server in
  let custom = Metadata.custom_registry registry in
  Aldsp_services.Custom_function.register custom ~name:boom
    ~params:[ Atomic.T_integer ] ~returns:Atomic.T_integer (fun _ ->
      failwith "boom");
  Metadata.add_function registry
    { Metadata.fd_name = boom;
      fd_params = [ ("x", Stype.atomic Atomic.T_integer) ];
      fd_return = Stype.atomic Atomic.T_integer;
      fd_impl = Metadata.External (Metadata.External_custom custom);
      fd_kind = Metadata.Library;
      fd_cacheable = false;
      fd_pragmas = [] };
  server

let of_submit_error = function
  | Server.Cancelled _ -> Cancelled
  | Server.Failed _ -> Failed
  | Server.Overloaded -> Alcotest.fail "rejected at admission"

(* a string-result entry point names a cancellation by its cause *)
let of_message = function
  | "deadline exceeded" | "cancelled" -> Cancelled
  | _ -> Failed

(* the unadmitted entry points run under the caller's ambient token *)
let ambient ending f =
  if ending = Fired then Cancel.with_token (Cancel.with_deadline 0.) f else f ()

let deadline_of ending = if ending = Fired then Some 0. else None

let entry_run server ending =
  ambient ending (fun () ->
      match Server.run server (text_of ending) with
      | Ok _ -> Done
      | Error m -> of_message m)

let entry_session_run server ending =
  match
    Server.session_run (Server.session server ()) ?deadline:(deadline_of ending)
      (text_of ending)
  with
  | Ok _ -> Done
  | Error e -> of_submit_error e

let open_stream server ending f =
  match
    Server.session_run_stream (Server.session server ())
      ?deadline:(deadline_of ending) (text_of ending)
  with
  | Error e -> of_submit_error e
  | Ok stream -> f stream

(* reads to the end; a mid-stream cancel comes after the tenth token *)
let entry_stream_read server ending =
  open_stream server ending @@ fun stream ->
  let rec go n =
    match Server.stream_read stream with
    | Ok (Some _) ->
      if ending = Cancel_mid_stream && n = 10 then Server.stream_cancel stream;
      go (n + 1)
    | Ok None -> Done
    | Error e -> of_submit_error e
  in
  go 1

(* a mid-stream cancel comes with the first written chunk; an abandon
   follows three reads that stop inside the first <R> *)
let entry_serialize server ending =
  open_stream server ending @@ fun stream ->
  if ending = Abandon then
    for _ = 1 to 3 do
      ignore (Server.stream_read stream)
    done;
  let write _ = if ending = Cancel_mid_stream then Server.stream_cancel stream in
  match Server.stream_serialize stream write with
  | Ok () -> Done
  | Error e -> of_submit_error e

(* EXPLAIN ANALYZE reports an execution's failure on an [error:] line *)
let entry_explain server ending =
  ambient ending (fun () ->
      match Server.explain server (text_of ending) with
      | Error m -> of_message m
      | Ok out -> (
        match
          List.find_opt
            (fun l -> String.length l > 7 && String.sub l 0 7 = "error: ")
            (String.split_on_char '\n' out)
        with
        | None -> Done
        | Some l -> of_message (String.sub l 7 (String.length l - 7))))

(* a direct call compiles nothing: an unknown function stands in for the
   compile error *)
let entry_call server ending =
  let name, args =
    match ending with
    | Raising -> (boom, [ [ Item.Atom (Atomic.Integer 1) ] ])
    | Compile_error -> (Qname.local "no_such_function", [])
    | _ -> (Qname.make ~uri:"fn" "getCustomerNames", [])
  in
  match Server.call server name args with
  | Ok _ -> Done
  | Error m -> of_message m

let lifecycle_entries =
  let common = [ Completes; Compile_error; Raising; Fired ] in
  [ ("run", entry_run, common);
    ("session_run", entry_session_run, common);
    ("session_run_stream read", entry_stream_read, common @ [ Cancel_mid_stream ]);
    ("stream_serialize", entry_serialize, common @ [ Cancel_mid_stream; Abandon ]);
    ("explain", entry_explain, common);
    ("call", entry_call, [ Completes; Compile_error; Raising ]) ]

let expected_outcome = function
  | Completes -> Done
  | Compile_error | Raising | Abandon -> Failed
  | Fired | Cancel_mid_stream -> Cancelled

(* starts plus roundtrips over the view of [raising_text] *)
let raising_totals server =
  match Server.compile server raising_text with
  | Error _ -> Alcotest.fail "the raising text does not compile"
  | Ok c ->
    Array.fold_left
      (fun n k -> n + k.Plan_ir.c_starts + k.Plan_ir.c_roundtrips)
      0 c.Server.ir.Plan_ir.totals

let test_one_lifecycle () =
  let deltas = ref [] in
  List.iter
    (fun (entry, run, endings) ->
      List.iter
        (fun ending ->
          let row = entry ^ ", " ^ ending_name ending ^ ": " in
          let server = lifecycle_server () in
          let before = raising_totals server in
          let got =
            match run server ending with
            | o -> outcome_name o
            | exception e -> "raised " ^ Printexc.to_string e
          in
          Alcotest.(check string) (row ^ "result class")
            (outcome_name (expected_outcome ending)) got;
          let adm = Server.admission_stats server in
          check_int (row ^ "admitted = completed + deadline aborts")
            adm.Server.ad_admitted
            (adm.Server.ad_completed + adm.Server.ad_deadline_aborts);
          check_int (row ^ "no slot held") 0 adm.Server.ad_active;
          check_int (row ^ "no waiter left") 0 (Cancel.waiters ());
          check_int (row ^ "no deadline left armed") 0
            (Cancel.armed_deadlines ());
          if ending = Raising && entry <> "call" then
            deltas := (entry, raising_totals server - before) :: !deltas)
        endings)
    lifecycle_entries;
  match List.rev !deltas with
  | [] -> Alcotest.fail "no entry point ran the raising text"
  | (_, first) :: _ as all ->
    check_bool "the raising text counts into its view" true (first > 0);
    List.iter
      (fun (entry, delta) ->
        check_int (entry ^ ": the raising text's totals delta") first delta)
      all

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "concurrency"
    [ ( "cancel",
        [ Alcotest.test_case "token basics" `Quick test_cancel_basics;
          Alcotest.test_case "ambient nesting" `Quick test_cancel_ambient_nesting;
          Alcotest.test_case "interruptible sleep" `Quick
            test_cancel_sleep_interrupted;
          Alcotest.test_case "on_cancel fires once on cancel" `Quick
            test_on_cancel_fires_once;
          Alcotest.test_case "on_cancel fires at the deadline" `Quick
            test_on_cancel_fires_at_deadline;
          Alcotest.test_case "on_cancel on a fired token runs at once" `Quick
            test_on_cancel_already_fired;
          Alcotest.test_case "on_cancel unregister leaves nothing" `Quick
            test_on_cancel_unregister ] );
      ( "pool-shutdown",
        [ Alcotest.test_case "double shutdown" `Quick test_pool_double_shutdown;
          Alcotest.test_case "shutdown with inflight work" `Quick
            test_pool_shutdown_with_inflight;
          Alcotest.test_case "concurrent shutdowns" `Quick
            test_pool_concurrent_shutdowns ] );
      ( "deadlines",
        [ Alcotest.test_case "deadline under backend latency" `Quick
            test_deadline_under_backend_latency;
          Alcotest.test_case "deadline mid fn-bea:timeout window" `Quick
            test_deadline_mid_timeout_window;
          Alcotest.test_case "fn-bea:timeout inside generous deadline" `Quick
            test_timeout_inside_generous_deadline;
          Alcotest.test_case "explicit session cancel" `Quick
            test_explicit_session_cancel ] );
      ( "admission",
        [ Alcotest.test_case "overload rejection" `Quick
            test_admission_overload_rejection;
          Alcotest.test_case "bounded queueing" `Quick test_admission_queueing;
          Alcotest.test_case "graceful drain" `Quick test_drain ] );
      ( "invalidation",
        [ Alcotest.test_case "concurrent DML never stale" `Quick
            test_concurrent_dml_never_stale;
          QCheck_alcotest.to_alcotest test_invalidation_property ] );
      ( "singleflight",
        [ Alcotest.test_case "concurrent callers coalesce" `Quick
            test_singleflight_coalesces;
          Alcotest.test_case "leader failure rebroadcast, followers retry"
            `Quick test_singleflight_leader_failure;
          Alcotest.test_case "follower cancel leaves the flight alive" `Quick
            test_singleflight_follower_cancel ] );
      ( "work-sharing",
        [ Alcotest.test_case "function-cache misses coalesce" `Quick
            test_function_cache_coalesced_miss;
          Alcotest.test_case "materialized table bounded with LRU" `Quick
            test_function_cache_materialized_bound;
          Alcotest.test_case "plan-cache add/evict balance" `Quick
            test_plan_cache_balance;
          Alcotest.test_case "streamed sessions share statements" `Quick
            test_streamed_sessions_share;
          Alcotest.test_case "a stream's misestimate counts its own run"
            `Quick test_stream_misestimate_own_run;
          Alcotest.test_case "EXPLAIN ANALYZE beside an open stream" `Quick
            test_explain_beside_open_stream;
          QCheck_alcotest.to_alcotest test_sharing_freshness_property ] );
      ( "wakeups",
        [ Alcotest.test_case "singleflight follower deadline" `Quick
            test_singleflight_follower_deadline;
          Alcotest.test_case "batch member deadline" `Quick
            test_batch_member_deadline;
          Alcotest.test_case "admission waiter deadline" `Quick
            test_admission_deadline_in_queue ] );
      ( "lifecycle",
        [ Alcotest.test_case "one lifecycle on every entry point" `Quick
            test_one_lifecycle ] ) ]
