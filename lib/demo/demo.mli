(** The paper's demo enterprise, used by the examples, tests and benches.

    Reproduces the environment of the running example (Figure 1/3): a
    customer database (CUSTOMER, ORDER_T tables with a foreign key), a
    separate credit-card database, a credit-rating web service, and the
    [int2date]/[date2int] external functions with their inverse
    registration. Sizes and latencies are parameters so benches can sweep
    them. *)

open Aldsp_relational
open Aldsp_services

type t = {
  customer_db : Database.t;
  card_db : Database.t;
  rating_service : Web_service.t;
  registry : Aldsp_core.Metadata.t;
  server : Aldsp_core.Server.t;
}

val create :
  ?customers:int ->
  ?orders_per_customer:int ->
  ?cards_per_customer:int ->
  ?db_latency:float ->
  ?service_latency:float ->
  ?function_cache:Aldsp_core.Function_cache.t ->
  ?security:Aldsp_core.Security.t ->
  ?audit:Aldsp_core.Audit.t ->
  ?optimizer_options:Aldsp_core.Optimizer.options ->
  unit ->
  t
(** Builds and populates the databases ([customers] rows, [CUST0001]-style
    ids, deterministic last names with duplicates so grouping is
    interesting), registers the service and the external conversions, and
    stands up a server with the Figure 3 [getProfile] data service
    registered. *)

val last_names : string array
val first_names : string array
(** The name pools both the demo and the fuzz catalog draw from. *)

val customer_table : unit -> Table.t
val order_table : unit -> Table.t
val card_table : unit -> Table.t
(** Fresh, empty CUSTOMER, ORDER_T (foreign key to CUSTOMER) and
    CREDIT_CARD tables with the Figure 3 columns and primary keys. *)

val make_rating_service : latency:float -> Web_service.t
(** The credit-rating web service (one [getRating] operation). The rating
    is a pure function of the request's [ssn]. *)

val profile_data_service_source : string
(** The XQuery source of the Figure 3 logical data service (getProfile,
    getProfileByID, plus a thin read view), as registered by {!create}. *)

val reset_stats : t -> unit
(** Clears all database and service counters. *)
