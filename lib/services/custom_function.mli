(** Registry of externally provided ("Java") functions.

    ALDSP allows externally provided Java functions to be registered for use
    in queries (§4.5) — e.g. the [int2date] conversion of the inverse-
    function example. Here they are OCaml functions over atomic values,
    registered by name with a typed signature; the XQuery compiler models
    them as external functions exactly like the paper's, including their
    role as black boxes for pushdown until an inverse is declared. *)

open Aldsp_xml

type t = {
  fn_name : Qname.t;
  param_types : Atomic.atomic_type list;
  return_type : Atomic.atomic_type;
  body : Atomic.t list -> (Atomic.t, string) result;
}

type registry

val create_registry : unit -> registry

val register :
  registry ->
  name:Qname.t ->
  params:Atomic.atomic_type list ->
  returns:Atomic.atomic_type ->
  (Atomic.t list -> (Atomic.t, string) result) ->
  unit

val call : registry -> Qname.t -> Atomic.t list -> (Atomic.t, string) result
(** Arity- and (loosely) type-checked invocation. *)

val int2date : Qname.t
(** Name under which {!install_date_conversions} registers the
    seconds-since-epoch → [xs:dateTime] conversion of §4.5. *)

val date2int : Qname.t
(** Its inverse. *)

val install_date_conversions : registry -> unit
(** Registers the [int2date]/[date2int] pair from the paper's running
    inverse-function example. *)
