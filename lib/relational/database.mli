(** A named in-memory database: the queryable-source substrate.

    Stands in for the Oracle/DB2/SQL Server/Sybase backends of the paper.
    Each database carries a vendor tag (driving SQL dialect generation), a
    simulated per-roundtrip latency (so distributed-join tradeoffs such as
    PP-k's block size are observable), and execution statistics (roundtrips,
    rows shipped) that the benchmarks report. *)

type vendor = Oracle | Db2 | Sql_server | Sybase | Generic_sql92

type stats = {
  mutable statements : int;  (** Statements executed (= roundtrips). *)
  mutable rows_shipped : int;  (** Result rows returned to the caller. *)
  mutable params_bound : int;
  mutable full_scans : int;  (** Table accesses that read every row. *)
  mutable rows_scanned : int;  (** Rows visited by full scans. *)
  mutable index_lookups : int;  (** Index probes (one per key tuple). *)
  mutable index_rows : int;  (** Candidate rows produced by probes. *)
  mutable hash_joins : int;
  mutable index_joins : int;  (** Index nested-loop joins. *)
  mutable nl_joins : int;  (** Plain nested-loop joins. *)
  mutable coalesced_hits : int;
      (** Statements served from another session's byte-identical
          in-flight statement (single-flight coalescing) — no roundtrip
          of their own. *)
  mutable batch_merges : int;
      (** Single-key probes merged into another session's accumulated
          IN-list roundtrip (batched dispatch) — beyond the leader. *)
  mutable dedup_roundtrips_saved : int;
      (** Roundtrips avoided by work sharing: the sum of statements that
          would have hit the wire without coalescing + batching. *)
}

type t = {
  db_uid : int;
      (** Process-unique id: keys this database in the executor's
          work-sharing registries (names recur across fuzz catalogs). *)
  db_name : string;
  vendor : vendor;
  tables : (string, Table.t) Hashtbl.t;
  stats : stats;
  stats_lock : Mutex.t;
      (** Guards counter increments (use {!record_operator}); plain field
          reads need no lock. *)
  mutable roundtrip_latency : float;
      (** Simulated seconds of network+parse cost per statement; applied
          with a cancellation-aware sleep when positive, so session
          deadlines abort mid-roundtrip. *)
  faults : Aldsp_concurrency.Fault_schedule.t;
      (** Scripted per-statement behaviour: statement [n] consumes event
          [n]. Lets the differential harness test fail-over and timeout
          around the relational adaptor deterministically (§5.4-5.6). *)
  mutable use_indexes : bool;
      (** Backend access-path switch, independent of the middleware
          optimizer: when false the executor only uses scans and nested
          loops (the differential oracle's reference mode). Indexes are
          maintained either way. Default [true]. *)
  mutable share_work : bool;
      (** Cross-session work sharing (single-flight statement coalescing
          and batched single-key dispatch) in the executor. Off by
          default: sharing changes statement accounting and interleaves
          sessions, so it is opt-in for serving workloads (the
          differential oracle runs a dedicated sharing pass). Disabled
          internally while a fault schedule is active — scripted events
          must align with statements one-to-one. *)
  mutable batch_window : float;
      (** Current adaptive accumulation window (seconds) for batched
          dispatch: grown when batches merge probes, shrunk towards the
          floor when a window closes solo. Maintained by the executor. *)
  mutable last_plan : string list;
      (** EXPLAIN-style access-path decisions of the most recent
          statement, recorded by the executor. *)
}

val create : ?vendor:vendor -> ?roundtrip_latency:float -> string -> t

val zero_stats : unit -> stats

val add_stats : stats -> stats -> unit
(** [add_stats acc s] accumulates [s] into [acc]; used to roll per-source
    counters up into {!Aldsp_core.Server.stats}-level totals. *)

val set_use_indexes : t -> bool -> unit

val set_share_work : t -> bool -> unit
(** Flips cross-session work sharing for statements on this database. *)

val set_last_plan : t -> string list -> unit

val explain_last : t -> string
(** The recorded access-path decisions of the last statement, one line
    per operator, rendered for humans. *)

val add_table : t -> Table.t -> unit
val find_table : t -> string -> (Table.t, string) result
val table_names : t -> string list

val vendor_name : vendor -> string

val reset_stats : t -> unit

val apply_fault : t -> (unit, string) result
(** Consumes and applies the next event of [faults]: sleeps any scripted
    stall, then returns [Error] for a scripted transport failure. Called
    by the executor at the start of every statement. *)

val record_statement : t -> params:int -> rows:int -> unit
(** Accounts one roundtrip and applies the simulated latency. Used by the
    executor; exposed so functional-source simulators can share the
    accounting. Thread-safe; the latency sleep is cancellation-aware and
    happens outside the stats lock so concurrent roundtrips overlap. *)

val open_statement : t -> params:int -> unit
(** Cursor-style accounting, first half: one statement roundtrip with its
    bound params and simulated latency, before any row ships. Pair with
    {!ship_rows} per fetched chunk; a fully drained cursor totals exactly
    one {!record_statement} call. *)

val ship_rows : t -> int -> unit
(** Cursor-style accounting, second half: adds one fetched chunk's rows
    to [rows_shipped]. Chunks are engine-side iteration, not extra
    roundtrips. *)

val record_operator : t -> (stats -> unit) -> unit
(** Runs the counter update under [stats_lock]: the executor's per-operator
    increments are read-modify-write and concurrent sessions share one
    [stats] record. *)

(** {2 Planner statistics} *)

val stats_version : t -> int
(** Sum of {!Table.stats_version} over every table: moves when a row
    count, an index set or an index's distinct-key count of this database
    may have moved — an insert, a delete, a rolled-back write, a
    [create_index], or an UPDATE that changes some distinct-key count.
    An UPDATE of non-key columns leaves it alone. Folded into
    {!Aldsp_core.Metadata.stats_generation}, which keys cached plans. *)

val data_version : t -> int
(** Sum of {!Table.version} over every table: moves on every row
    mutation. Cross-session work sharing keys on it ({!Sql_exec}), so a
    reader admitted after any write never joins a flight started before
    it. *)

val table_statistics : t -> (string * Table.statistics) list
(** [(table, statistics)] pairs in table-name order. *)

val cost_profile : t -> float * float
(** The declared [(roundtrip_latency, per_row_cost)] profile in seconds:
    what one statement roundtrip and one shipped row cost the middleware.
    The cost model prices plans with these. *)
