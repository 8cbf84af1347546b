(* Tests for the functional-source simulator: web services with latency and
   failure injection, and the external function registry. *)

open Aldsp_xml
open Aldsp_services

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

let ok_exn = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let err_exn = function
  | Ok _ -> Alcotest.fail "expected an error"
  | Error msg -> msg

(* The credit-rating service from the paper's running example (Figure 3). *)
let rating_request_schema =
  Schema.element_decl (Qname.local "getRating")
    (Schema.Complex
       [ Schema.particle (Schema.simple (Qname.local "lName") Atomic.T_string);
         Schema.particle (Schema.simple (Qname.local "ssn") Atomic.T_string) ])

let rating_response_schema =
  Schema.element_decl (Qname.local "getRatingResponse")
    (Schema.Complex
       [ Schema.particle
           (Schema.simple (Qname.local "getRatingResult") Atomic.T_integer) ])

let make_rating_service ?latency () =
  let implementation request =
    let ssn =
      match Node.child_elements request (Qname.local "ssn") with
      | [ n ] -> Node.string_value n
      | _ -> ""
    in
    let rating = 500 + (String.length ssn * 13 mod 350) in
    Ok
      (Node.element (Qname.local "getRatingResponse")
         [ Node.element (Qname.local "getRatingResult")
             [ Node.text (string_of_int rating) ] ])
  in
  Web_service.create ?latency ~wsdl_url:"http://ratings.example.com/rate?wsdl"
    "RatingService"
    [ Web_service.operation ~name:"getRating" ~input:rating_request_schema
        ~output:rating_response_schema implementation ]

let request lname ssn =
  Node.element (Qname.local "getRating")
    [ Node.element (Qname.local "lName") [ Node.text lname ];
      Node.element (Qname.local "ssn") [ Node.text ssn ] ]

let test_invoke_types_response () =
  let ws = make_rating_service () in
  let response = ok_exn (Web_service.invoke ws "getRating" (request "Jones" "123-45-6789")) in
  match Node.child_elements response (Qname.local "getRatingResult") with
  | [ result ] -> (
    match Node.typed_value result with
    | [ Atomic.Integer _ ] -> ()
    | _ -> Alcotest.fail "result not typed as integer")
  | _ -> Alcotest.fail "missing result element"

let test_invalid_request_rejected () =
  let ws = make_rating_service () in
  let bad = Node.element (Qname.local "getRating") [] in
  ignore (err_exn (Web_service.invoke ws "getRating" bad));
  ignore (err_exn (Web_service.invoke ws "noSuchOp" bad))

let test_failure_injection () =
  let ws = make_rating_service () in
  Aldsp_concurrency.Fault_schedule.(set ws.Web_service.faults [ Fail; Fail ]);
  ignore (err_exn (Web_service.invoke ws "getRating" (request "a" "1")));
  ignore (err_exn (Web_service.invoke ws "getRating" (request "a" "1")));
  ignore (ok_exn (Web_service.invoke ws "getRating" (request "a" "1")));
  check_int "calls counted" 3 ws.Web_service.stats.Web_service.calls;
  check_int "failures counted" 2 ws.Web_service.stats.Web_service.failures

let test_unavailability () =
  let ws = make_rating_service () in
  Web_service.set_unavailable ws true;
  ignore (err_exn (Web_service.invoke ws "getRating" (request "a" "1")));
  Web_service.set_unavailable ws false;
  ignore (ok_exn (Web_service.invoke ws "getRating" (request "a" "1")))

let test_latency_applied () =
  let ws = make_rating_service ~latency:0.02 () in
  let t0 = Unix.gettimeofday () in
  ignore (ok_exn (Web_service.invoke ws "getRating" (request "a" "1")));
  let elapsed = Unix.gettimeofday () -. t0 in
  check_bool "took at least the simulated latency" true (elapsed >= 0.015)

let test_custom_functions () =
  let reg = Custom_function.create_registry () in
  Custom_function.install_date_conversions reg;
  let date =
    ok_exn (Custom_function.call reg Custom_function.int2date [ Atomic.Integer 86400 ])
  in
  check_bool "int2date" true (date = Atomic.Date_time 86400.);
  let back = ok_exn (Custom_function.call reg Custom_function.date2int [ date ]) in
  check_bool "inverse roundtrip" true (back = Atomic.Integer 86400);
  (* arity and unknown-function errors *)
  ignore (err_exn (Custom_function.call reg Custom_function.int2date []));
  ignore
    (err_exn (Custom_function.call reg (Qname.local "nope") [ Atomic.Integer 1 ]));
  (* loose typing: a castable argument is accepted *)
  let casted =
    ok_exn (Custom_function.call reg Custom_function.int2date [ Atomic.Untyped "60" ])
  in
  check_bool "castable arg" true (casted = Atomic.Date_time 60.)

let () =
  let t name f = Alcotest.test_case name `Quick f in
  Alcotest.run "services"
    [ ( "web-service",
        [ t "invoke types response" test_invoke_types_response;
          t "invalid request" test_invalid_request_rejected;
          t "failure injection" test_failure_injection;
          t "unavailability" test_unavailability;
          t "latency" test_latency_applied ] );
      ("custom-functions", [ t "registry" test_custom_functions ]) ]
