(** Table schemas and row storage.

    Rows are value arrays positionally aligned with the column list, held
    in a growable array: appends are O(1) amortized and every row has a
    stable integer id (its insertion position) that indexes refer to.
    Deletion tombstones the slot, so ids never shift. Primary and foreign
    keys are part of the schema; ALDSP's introspector reads them to
    generate read and navigation functions (§2.1), and the table
    auto-builds a hash index on each (plus any {!create_index}
    registrations), maintained incrementally across insert, update, delete
    and rollback. *)

type sql_type = T_int | T_varchar | T_decimal | T_boolean | T_timestamp

type column = { col_name : string; col_type : sql_type; nullable : bool }

type foreign_key = {
  fk_columns : string list;
  references_table : string;
  references_columns : string list;
}

type t = private {
  table_name : string;
  columns : column list;
  primary_key : string list;
  foreign_keys : foreign_key list;
  lock : Mutex.t;
      (** Guards storage, indexes and statistics; every function below
          takes it, so tables are safe under concurrent sessions
          (including concurrent DML). *)
  mutable store : Sql_value.t array array;
      (** Slots by row id; managed via the functions below. *)
  mutable size : int;
  mutable live : Bytes.t;
  mutable live_count : int;
  mutable indexes : Index.t list;
  mutable pk_index : Index.t option;
  mutable version : int;
  mutable stats_version : int;
  mutable last_scan : (int * int array * Sql_value.t array array) option;
      (** The latest {!scan} and the {!version} it was taken at. *)
}

val create :
  ?primary_key:string list ->
  ?foreign_keys:foreign_key list ->
  string ->
  column list ->
  t
(** Builds the table and its automatic indexes: a unique [pk_<table>]
    index when a primary key is declared (and resolvable against the
    columns) and one [fk_<table>_<cols>] index per foreign key. *)

val column : ?nullable:bool -> string -> sql_type -> column

val column_index : t -> string -> int option
val column_type : t -> string -> sql_type option

val create_index : t -> name:string -> string list -> (unit, string) result
(** CREATE INDEX-style explicit registration: builds a hash index over the
    given columns, populated from the current rows and maintained from
    then on. Errors on a duplicate name or unknown column. *)

val indexes : t -> Index.t list
val pk_index : t -> Index.t option

val find_index : t -> string list -> Index.t option
(** An index whose key columns are exactly the given set (order
    insensitive), if one is registered. *)

val insert : t -> Sql_value.t array -> (unit, string) result
(** Validates arity, NOT NULL constraints, basic type conformance and
    primary-key uniqueness (an O(1) probe of the PK index), then appends
    the row. *)

val insert_many : t -> Sql_value.t array list -> (int, string) result
(** Bulk insert with the same per-row validation, O(1) amortized per row.
    All-or-nothing: on the first failure the rows already appended by this
    call are removed and the error returned. [Ok n] is the number
    inserted. *)

val row_count : t -> int

val scan : t -> int array * Sql_value.t array array
(** The live rows in insertion order and their ids, one snapshot taken
    under the table lock: later mutations do not change it. Scans of an
    unchanged table return the same arrays, so callers must not mutate
    them. *)

val get_row : t -> int -> Sql_value.t array option
(** The row at this id, if live. *)

val probe_index : t -> Index.t -> Sql_value.t array -> int list
(** {!Index.probe} under the table lock: the executor's probe paths race
    with DML maintaining the same index buckets, and an unlocked hash
    read during a concurrent resize is unsafe. *)

val probe_rows :
  t -> Index.t -> Sql_value.t array list -> int array * Sql_value.t array array
(** The live rows {!Index.probe_many} finds for these probe tuples and
    their ids, ascending and distinct, read under one lock: every key of
    an IN-list statement, or one left row of an index nested loop. *)

val update_row : t -> int -> Sql_value.t array -> unit
(** Replaces the row at [id] (no constraint validation, matching the
    executor's historical UPDATE semantics) and fixes the indexes whose
    key changed; an index whose key columns hold the same values leaves
    its entry alone. The new array must not be mutated afterwards. *)

val delete_row : t -> int -> unit
(** Tombstones the slot and unindexes the row; a no-op on dead ids. *)

val type_check : sql_type -> Sql_value.t -> bool

(** {2 Undo logs}

    What {!Txn} rolls back with. A log belongs to the thread that opened
    it and covers a set of tables; {!insert}, {!insert_many},
    {!update_row} and {!delete_row} called on that thread append
    (table, row id, before image) to the innermost open log covering the
    table. While no log is open anywhere, they pay one atomic read for
    this. *)

type log

val open_log : t list -> log
(** Opens a log on the calling thread covering these tables. *)

val close_log : log -> unit
(** Discards the log (commit). *)

val undo_log : log -> unit
(** Closes the log and replays it backwards: inserted rows are deleted,
    updated rows get their before image back, deleted rows come back at
    their own ids, and the indexes are fixed row by row. Rows the log
    did not record, such as another session's committed writes, are
    left as they are. *)

(** {2 Statistics}

    Per-table statistics for the cost-based planner, maintained
    incrementally by every mutation path (insert, update, delete, bulk
    insert unwind, rollback). *)

val version : t -> int
(** The data epoch: a counter bumped on every row mutation, including an
    UPDATE that changes no key. It fences what must see the current rows:
    {!scan}'s shared snapshot, and (summed by
    {!Database.data_version}) cross-session work sharing. Cached plans
    do not key on it. *)

val stats_version : t -> int
(** The planning epoch: a counter bumped only when something the cost
    model reads may have moved — the live row count (insert, delete, a
    bulk insert's unwind, a rollback's revive or delete), the index set
    ({!create_index}) or some index's {!Index.distinct_keys} (an UPDATE
    that moves a key into a new or out of its last bucket). An UPDATE
    that leaves every distinct-key count as it was does not move it.
    Summed by {!Database.stats_version}, it keys cached plans. Like
    {!version}, it only moves forward. Numeric min/max is not covered:
    nothing in the planner reads it yet. *)

type column_stats = {
  cs_columns : string list;  (** Key columns of the backing index. *)
  cs_distinct : int;  (** Live distinct keys ({!Index.distinct_keys}). *)
  cs_min : float option;  (** Numeric minimum (single-column numeric keys). *)
  cs_max : float option;
  cs_unique : bool;
}

type statistics = {
  stat_rows : int;  (** Exact live row count. *)
  stat_version : int;  (** {!stats_version} at the time of the snapshot. *)
  stat_columns : column_stats list;  (** One entry per registered index. *)
}

val statistics : t -> statistics

val distinct_estimate : t -> string -> int option
(** Exact live NDV for a column, when a single-column index (primary key,
    foreign key or {!create_index}) covers it. *)

val atomic_type_of_sql : sql_type -> Aldsp_xml.Atomic.atomic_type
(** The SQL-to-XML type mapping used when introspection builds the XML
    shape of a table (§4.4). *)
