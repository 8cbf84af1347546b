(** Simulated web services — the functional-source substrate.

    Functional sources are sources ALDSP "can only interact with by calling
    specific functions with parameters" (§2.2): web services, Java
    functions, stored procedures. The paper's experiments around slow and
    unavailable sources (§5.4-5.6) depend only on call latency and failure
    behaviour, so this simulator provides WSDL-like operation metadata,
    a pluggable implementation per operation, configurable latency, and
    failure injection. Responses are validated against the declared result
    schema to produce typed token content, as ALDSP does for document-style
    services (§5.3). *)

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
  wsdl_url : string;  (** Captured in the physical data service's pragma. *)
  style : style;
  operations : operation list;
  mutable latency : float;  (** Seconds of simulated call latency. *)
  mutable unavailable : bool;
      (** Hard-down until reset: every call fails. *)
  faults : Aldsp_concurrency.Fault_schedule.t;
      (** Scripted per-call behaviour: call [n] consumes event [n]. Used
          by the differential harness to test the fail-over, timeout and
          retry semantics of §5.4-5.6 deterministically. *)
  stats : stats;
  stats_lock : Mutex.t;  (** Guards counter updates. *)
}

and stats = { mutable calls : int; mutable failures : int }

val create :
  ?style:style ->
  ?latency:float ->
  wsdl_url:string ->
  string ->
  operation list ->
  t

val operation :
  name:string ->
  input:Schema.element_decl ->
  output:Schema.element_decl ->
  (Node.t -> (Node.t, string) result) ->
  operation

val invoke : t -> string -> Node.t -> (Node.t, string) result
(** [invoke service op input] runs the 5-step source-invocation protocol of
    §5.3: validate the input against the operation's input schema, simulate
    the wire latency, consume the next scripted fault, run the
    implementation,
    validate the response against the output schema (producing typed
    content), and account the call. *)

val set_unavailable : t -> bool -> unit
val reset_stats : t -> unit
