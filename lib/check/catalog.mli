(** Seeded random source catalogs for the differential harness.

    A catalog is a small enterprise in the demo's shape — CUSTOMER/ORDER_T
    in one database, CREDIT_CARD in another, a rating web service, a
    REGION CSV file source, and a data-service view layer — but with the
    degrees of freedom the paper says must never change results
    randomized: the vendor (and therefore SQL dialect and pushdown
    capabilities, §4.4) of each database, table sizes, ragged data (NULL
    columns, customers without orders), and data values. A [spec] is a
    compact, printable description; {!build} is deterministic from it, so
    a counterexample replays from its spec alone. The table definitions,
    name pools and rating service are {!Aldsp_demo.Demo}'s; only the data
    is the catalog's own. *)

open Aldsp_relational
open Aldsp_services
open Aldsp_core

type spec = {
  seed : int;  (** Drives all data generation inside {!build}. *)
  main_vendor : Database.vendor;  (** CustomerDB: CUSTOMER, ORDER_T. *)
  card_vendor : Database.vendor;  (** CardDB: CREDIT_CARD. *)
  customers : int;
  orders_per_customer : int;  (** Upper bound; per-customer count is ragged. *)
  cards_per_customer : int;
  regions : int;  (** Rows of the REGION CSV source. *)
}

type t = {
  spec : spec;
  main_db : Database.t;
  card_db : Database.t;
  rating : Web_service.t;
  registry : Metadata.t;
}

val vendors : Database.vendor array
(** All five dialects, in a fixed order (used to cycle coverage). *)

val vendor_to_string : Database.vendor -> string

val generate : Random.State.t -> seed:int -> spec
(** Draws a random spec; [seed] is recorded in the spec so that {!build}
    (and a later replay) is independent of the generator's state. The two
    vendors are drawn so that consecutive scenario indices cycle through
    all five dialects. *)

val build : spec -> t
(** Deterministic: same spec, same databases, rows, service and views. *)

val spec_to_string : spec -> string
val spec_of_string : string -> (spec, string) result
(** One-line [key=value] rendering used by the counterexample corpus. *)

(** {1 One-line [key=value] records} *)

type fields
(** The [key=value] tokens of one line; tokens without [=] are skipped. *)

val fields : what:string -> string -> fields
(** [what] (["spec"], ["config"]) prefixes every error read from it. *)

val field :
  ?default:'a ->
  fields ->
  string ->
  (string -> 'a option) ->
  invalid:(string -> string) ->
  ('a, string) result
(** [field f k parse ~invalid] parses key [k]'s value. An absent key is
    [default], or the error ["<what>: missing field <k>"]; a value [parse]
    rejects is the error ["<what>: " ^ invalid value]. *)

val int_field : fields -> string -> (int, string) result
(** An integer field: ["<what>: <k> is not an integer: <value>"]. *)
