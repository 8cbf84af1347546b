(** Data-source metadata and the function registry.

    "ALDSP introspects data source metadata in order to generate an
    XQuery-based model of the enterprise in the form of physical data
    services" (§3.2). This module is that model: every backend access is an
    XQuery function with a typed signature, annotated (the paper uses the
    pragma facility) with what the compiler and runtime need — the source
    kind, connection (database) name, vendor, and key information.

    Introspection of a relational database yields one read function per
    table plus navigation functions for its foreign keys (§2.1); the
    navigation functions are generated as ordinary XQuery bodies so that
    view unfolding and SQL pushdown apply to them like any other view.
    Introspecting a web service yields one function per operation. *)

open Aldsp_xml
open Aldsp_relational
open Aldsp_services

(** The source annotation of an external (physical) function. *)
type source =
  | Relational_table of {
      db : Database.t;
      table : string;
      row_name : Qname.t;
    }
  | Stored_procedure of {
      db : Database.t;
      procedure : string;
      row_name : Qname.t;
      columns : (string * Atomic.atomic_type) list option;
          (** [None] for scalar-returning procedures. *)
    }
  | Service_op of { service : Web_service.t; operation : string }
  | External_custom of Custom_function.registry
  | File_docs of Node.t list  (** Validated typed documents. *)

type kind = Read | Navigate | Library

type impl = Body of Cexpr.t | External of source

type function_def = {
  fd_name : Qname.t;
  fd_params : (Cexpr.var * Stype.t) list;
  fd_return : Stype.t;
  fd_impl : impl;
  fd_kind : kind;
  fd_cacheable : bool;  (** Designer allows result caching (§5.5). *)
  fd_pragmas : (string * string) list;
}

type data_service = {
  ds_name : string;
  ds_shape : Schema.element_decl option;
  ds_functions : Qname.t list;
  ds_lineage_provider : Qname.t option;
      (** Defaults to the first read method — the "get all" function
          (§6). *)
}

type t

val create : unit -> t

val copy : t -> t
(** A registry sharing the same sources but with independent function /
    service / schema tables — used by design-time checking so analysis
    never mutates the live registry. *)

val generation : t -> int
(** Monotonic counter bumped by every registry mutation (function or
    source registration, cacheability change, inverse declaration).
    {!Plan_cache} keys include it, so a compiled plan never outlives the
    metadata it was compiled against. *)

val add_function : t -> function_def -> unit
val find_function : t -> Qname.t -> int -> function_def option

val resolve_call : t -> Qname.t -> int -> function_def option
(** Like {!find_function}, with fallback: a name in the default function
    namespace that matches no builtin also tries the no-namespace registry
    (so unprefixed calls reach introspected sources). *)

val external_call : t -> Cexpr.t -> bool
(** Whether an expression is a direct call of an external source
    function. *)

val functions : t -> function_def list

val set_cacheable : t -> Qname.t -> bool -> unit

val find_database : t -> string -> Database.t option

val databases : t -> Database.t list
(** All registered databases, sorted by name; used to roll backend
    operator statistics up into {!Server.stats}. *)

val stats_generation : t -> int
(** Sum of {!Database.stats_version} over every registered database: moves
    when a row is inserted or deleted (a rollback included), an index is
    created, or an UPDATE changes some index's distinct-key count. These
    are everything the cost model reads (row counts, index sets, index
    NDVs), so the plan cache keys on it: a plan whose join methods and
    PP-k depth were costed against since-moved statistics is recompiled
    rather than served, and a plan survives an UPDATE of non-key columns.
    It is not a data epoch; work sharing keys on
    {!Database.data_version}. *)

val add_data_service : t -> data_service -> unit
val find_data_service : t -> string -> data_service option
val data_services : t -> data_service list

val find_schema : t -> Qname.t -> Schema.element_decl option

val custom_registry : t -> Custom_function.registry

(** {2 Inverse functions (§4.5)} *)

val register_inverse : t -> f:Qname.t -> inverse:Qname.t -> unit
(** Declares [inverse] as the inverse of [f] (and vice versa), enabling the
    transformation rules [(cmp, f) → cmp-with-inverse] used for pushdown
    and updates. *)

val inverse_of : t -> Qname.t -> Qname.t option
(** Symmetric lookup (used by lineage, which maps values both ways). *)

val transform_of : t -> Qname.t -> Qname.t option
(** Directional lookup for the optimizer's comparison-transformation rules:
    only the registered forward function rewrites through its inverse. *)

val register_multi_inverse :
  t -> f:Qname.t -> projections:Qname.t list -> unit
(** Multi-argument transformations (§4.5: "full name versus first name and
    last name"): [f(a1..an)] is invertible componentwise, with
    [a_i = projections_i(f(a1..an))]. Enables equality decomposition in
    the optimizer and per-column write-back in updates. *)

val projections_of : t -> Qname.t -> Qname.t list option

(** {2 Introspection} *)

val introspect_relational : t -> ?uri:string -> Database.t -> unit
(** Creates one read function per table ([{uri}TABLE() as element(TABLE)*])
    with key metadata in its pragmas, a navigation function per foreign key
    (as a generated XQuery body), a shape schema per table, and one data
    service per table. *)

val introspect_service : t -> ?uri:string -> Web_service.t -> unit
(** One function per operation, typed from its WSDL-like schemas. *)

val register_custom_function : t -> Custom_function.t -> unit
(** Registers an externally-provided ("Java") function for use in queries
    (§4.5). *)

val introspect_procedure : t -> ?uri:string -> Database.t -> Procedure.t -> unit
(** Surfaces a stored procedure as a typed function: row-returning
    procedures yield [element(NAME_ROW)*], scalar ones an optional
    atomic. *)

val register_csv_source :
  t ->
  ?uri:string ->
  name:string ->
  schema:Schema.element_decl ->
  ?separator:char ->
  ?header:bool ->
  string ->
  (unit, string) result
(** Registers a delimited-file source (§2.2): the CSV text is parsed and
    validated against [schema] at registration time and surfaced as a
    zero-argument function over the typed rows. *)

val register_file_source :
  t ->
  ?uri:string ->
  name:string ->
  schema:Schema.element_decl ->
  Node.t list ->
  (unit, string) result
(** Registers a non-queryable XML/CSV file source: documents are validated
    against [schema] at registration time (§5.3) and surfaced as a
    zero-argument function returning the typed documents. *)

val stype_of_schema : Schema.element_decl -> Stype.item_type
(** Structural static type of a schema shape. *)
