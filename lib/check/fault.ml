open Aldsp_concurrency
open Aldsp_relational
open Aldsp_services

type scenario = {
  sc_name : string;
  sc_run : Catalog.t -> (unit, string) result;
}

let ( let* ) = Result.bind

let default_config =
  { Oracle.workers = 2; ppk_k = 2; ppk_prefetch = 1; indexes = true;
    cost_based = true; spill = false }

let plain_q ssn =
  Printf.sprintf
    "fn:data(getRating(<getRating><lName>{\"x\"}</lName><ssn>{\"%s\"}</ssn>\
     </getRating>)/getRatingResult)"
    ssn

let failover_q ssn = Printf.sprintf "fn-bea:fail-over(%s, -1)" (plain_q ssn)

let timeout_q ssn budget_ms =
  Printf.sprintf "fn-bea:timeout(%s, %d, -1)" (plain_q ssn) budget_ms

let run server q = Oracle.run_serialized server q

let expect ~what ~expected ~got =
  if String.equal expected got then Ok ()
  else Error (Printf.sprintf "%s: expected %s, got %s" what expected got)

let rating_script (cat : Catalog.t) faults =
  Fault_schedule.set cat.Catalog.rating.Web_service.faults faults

(* A slow or timed-out primary finishes its call on a worker after the
   query already returned (the schedule entry is consumed before the
   scripted stall, and the failure is accounted after it), so wait for
   the counters themselves to reach the expectation; the final equality
   check still catches overshoot. *)
let check_calls (cat : Catalog.t) ~calls ~failures =
  let s = cat.Catalog.rating.Web_service.stats in
  let deadline = Unix.gettimeofday () +. 2.0 in
  while
    (s.Web_service.calls <> calls
    || s.Web_service.failures <> failures
    || Fault_schedule.remaining cat.Catalog.rating.Web_service.faults > 0)
    && Unix.gettimeofday () < deadline
  do
    Thread.yield ();
    Unix.sleepf 0.005
  done;
  if s.Web_service.calls <> calls then
    Error
      (Printf.sprintf "expected %d primary attempt(s), observed %d" calls
         s.Web_service.calls)
  else if s.Web_service.failures <> failures then
    Error
      (Printf.sprintf "expected %d failure(s), observed %d" failures
         s.Web_service.failures)
  else Ok ()

(* ------------------------------------------------------------------ *)

let failover_primary_healthy cat =
  let server = Oracle.subject_server cat default_config in
  let* expected = run server (plain_q "7") in
  Web_service.reset_stats cat.Catalog.rating;
  rating_script cat [ Fault_schedule.Proceed ];
  let* got = run server (failover_q "7") in
  let* () = expect ~what:"healthy primary wins" ~expected ~got in
  check_calls cat ~calls:1 ~failures:0

let failover_alternate_on_failure cat =
  let server = Oracle.subject_server cat default_config in
  let* alt = run server "-1" in
  Web_service.reset_stats cat.Catalog.rating;
  rating_script cat [ Fault_schedule.Fail ];
  let* got = run server (failover_q "7") in
  let* () = expect ~what:"injected failure yields alternate" ~expected:alt ~got in
  (* exactly one attempt: fail-over must not re-execute the primary *)
  check_calls cat ~calls:1 ~failures:1

let failover_recovers_next_call cat =
  let server = Oracle.subject_server cat default_config in
  let* primary = run server (plain_q "7") in
  let* alt = run server "-1" in
  Web_service.reset_stats cat.Catalog.rating;
  rating_script cat [ Fault_schedule.Fail; Fault_schedule.Proceed ];
  let* first = run server (failover_q "7") in
  let* () = expect ~what:"first call fails over" ~expected:alt ~got:first in
  let* second = run server (failover_q "7") in
  let* () =
    expect ~what:"recovered primary wins again" ~expected:primary ~got:second
  in
  check_calls cat ~calls:2 ~failures:1

let timeout_trips_on_stall cat =
  let server = Oracle.subject_server cat default_config in
  let* alt = run server "-1" in
  Web_service.reset_stats cat.Catalog.rating;
  rating_script cat [ Fault_schedule.Delay 0.3 ];
  let* got = run server (timeout_q "7" 40) in
  let* () = expect ~what:"stalled primary times out" ~expected:alt ~got in
  check_calls cat ~calls:1 ~failures:0

let timeout_honours_budget cat =
  let server = Oracle.subject_server cat default_config in
  let* expected = run server (plain_q "7") in
  Web_service.reset_stats cat.Catalog.rating;
  rating_script cat [ Fault_schedule.Delay 0.02 ];
  let* got = run server (timeout_q "7" 60000) in
  let* () =
    expect ~what:"slow-within-budget primary wins" ~expected ~got
  in
  check_calls cat ~calls:1 ~failures:0

let relational_failover cat =
  let server = Oracle.subject_server cat default_config in
  let* alt = run server "\"down\"" in
  Database.reset_stats cat.Catalog.main_db;
  Fault_schedule.set cat.Catalog.main_db.Database.faults
    [ Fault_schedule.Fail ];
  let* got =
    run server
      "fn-bea:fail-over(for $c in CUSTOMER() return fn:data($c/CID), \"down\")"
  in
  let* () =
    expect ~what:"scripted relational failure yields alternate" ~expected:alt
      ~got
  in
  let statements = cat.Catalog.main_db.Database.stats.Database.statements in
  (* the failed statement reached the wire exactly once *)
  if statements <> 1 then
    Error
      (Printf.sprintf
         "expected exactly 1 relational roundtrip, observed %d" statements)
  else Ok ()

let scenarios =
  [ { sc_name = "failover primary healthy"; sc_run = failover_primary_healthy };
    { sc_name = "failover alternate on failure";
      sc_run = failover_alternate_on_failure };
    { sc_name = "failover recovers next call";
      sc_run = failover_recovers_next_call };
    { sc_name = "timeout trips on stall"; sc_run = timeout_trips_on_stall };
    { sc_name = "timeout honours budget"; sc_run = timeout_honours_budget };
    { sc_name = "relational failover"; sc_run = relational_failover } ]

(* ------------------------------------------------------------------ *)

let run_random cat st =
  let config =
    { Oracle.workers = 1 + Random.State.int st 4;
      ppk_k = 1;
      ppk_prefetch = 0;
      indexes = Random.State.bool st;
      cost_based = Random.State.bool st;
      spill = Random.State.bool st }
  in
  Oracle.set_indexes cat config.indexes;
  let server = Oracle.subject_server cat config in
  let ssn = string_of_int (Random.State.int st 1000) in
  let* primary = run server (plain_q ssn) in
  let* alt = run server "-1" in
  let use_timeout = Random.State.bool st in
  let event =
    [| Fault_schedule.Proceed; Fault_schedule.Fail;
       Fault_schedule.Delay 0.3; Fault_schedule.Fail_after 0.3 |]
      .(Random.State.int st 4)
  in
  (* the outcome is a function of the script: a healthy (or, for
     fail-over, merely slow) primary must win; a scripted failure — or a
     stall past the 60ms timeout budget — must yield the alternate *)
  let expected, failures =
    match (use_timeout, event) with
    | _, Fault_schedule.Proceed -> (primary, 0)
    | false, Fault_schedule.Delay _ -> (primary, 0)
    | true, Fault_schedule.Delay _ -> (alt, 0)
    | _, (Fault_schedule.Fail | Fault_schedule.Fail_after _) -> (alt, 1)
  in
  Web_service.reset_stats cat.Catalog.rating;
  rating_script cat [ event ];
  let q = if use_timeout then timeout_q ssn 60 else failover_q ssn in
  let* got = run server q in
  let* () =
    expect
      ~what:
        (Printf.sprintf "scripted %s under %s"
           (match event with
           | Fault_schedule.Proceed -> "ok"
           | Fault_schedule.Fail -> "fail"
           | Fault_schedule.Delay _ -> "delay"
           | Fault_schedule.Fail_after _ -> "fail-after")
           (if use_timeout then "timeout" else "fail-over"))
      ~expected ~got
  in
  let r = check_calls cat ~calls:1 ~failures in
  Oracle.set_indexes cat true;
  r
