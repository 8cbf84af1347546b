open Aldsp_xml

type style = Document_literal | Rpc_encoded

type operation = {
  op_name : string;
  input_schema : Schema.element_decl;
  output_schema : Schema.element_decl;
  implementation : Node.t -> (Node.t, string) result;
}

type t = {
  service_name : string;
  wsdl_url : string;
  style : style;
  operations : operation list;
  mutable latency : float;
  mutable unavailable : bool;
  faults : Aldsp_concurrency.Fault_schedule.t;
  stats : stats;
  stats_lock : Mutex.t;
}

and stats = { mutable calls : int; mutable failures : int }

let create ?(style = Document_literal) ?(latency = 0.) ~wsdl_url service_name
    operations =
  { service_name; wsdl_url; style; operations; latency; unavailable = false;
    faults = Aldsp_concurrency.Fault_schedule.create ();
    stats = { calls = 0; failures = 0 };
    stats_lock = Mutex.create () }

let operation ~name ~input ~output implementation =
  { op_name = name; input_schema = input; output_schema = output;
    implementation }

let find_operation t name =
  List.find_opt (fun op -> String.equal op.op_name name) t.operations

(* With the worker pool, calls complete on many threads. The latency
   sleeps are cancellation-aware so a session deadline aborts a call
   mid-"transport wait" instead of sleeping it out. *)
let bump_stats t f =
  Mutex.lock t.stats_lock;
  f t.stats;
  Mutex.unlock t.stats_lock

let invoke t op_name input =
  bump_stats t (fun stats -> stats.calls <- stats.calls + 1);
  let fail msg =
    bump_stats t (fun stats -> stats.failures <- stats.failures + 1);
    Error msg
  in
  match find_operation t op_name with
  | None ->
    fail (Printf.sprintf "service %s: no operation %s" t.service_name op_name)
  | Some op -> (
    match Schema.validate op.input_schema input with
    | Error msg ->
      fail (Printf.sprintf "service %s.%s: invalid request: %s" t.service_name op_name msg)
    | Ok typed_input ->
      if t.latency > 0. then Aldsp_concurrency.Cancel.sleepf t.latency;
      if Aldsp_concurrency.Fault_schedule.next_fails t.faults then
        fail (Printf.sprintf "service %s.%s: scripted transport failure" t.service_name op_name)
      else if t.unavailable then
        fail (Printf.sprintf "service %s is unavailable" t.service_name)
      else
        match op.implementation typed_input with
        | Error msg -> fail (Printf.sprintf "service %s.%s: %s" t.service_name op_name msg)
        | Ok response -> (
          match Schema.validate op.output_schema response with
          | Ok typed -> Ok typed
          | Error msg ->
            fail
              (Printf.sprintf "service %s.%s: response failed validation: %s"
                 t.service_name op_name msg)))

let set_unavailable t flag = t.unavailable <- flag

let reset_stats t =
  bump_stats t (fun stats ->
      stats.calls <- 0;
      stats.failures <- 0)
