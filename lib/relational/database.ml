type vendor = Oracle | Db2 | Sql_server | Sybase | Generic_sql92

type stats = {
  mutable statements : int;
  mutable rows_shipped : int;
  mutable params_bound : int;
  (* operator-level execution counters *)
  mutable full_scans : int;
  mutable rows_scanned : int;
  mutable index_lookups : int;
  mutable index_rows : int;
  mutable hash_joins : int;
  mutable index_joins : int;
  mutable nl_joins : int;
  (* cross-session work-sharing counters *)
  mutable coalesced_hits : int;
  mutable batch_merges : int;
  mutable dedup_roundtrips_saved : int;
}

type t = {
  db_uid : int;
  db_name : string;
  vendor : vendor;
  tables : (string, Table.t) Hashtbl.t;
  stats : stats;
  stats_lock : Mutex.t;
  mutable roundtrip_latency : float;
  faults : Aldsp_concurrency.Fault_schedule.t;
  mutable use_indexes : bool;
  mutable share_work : bool;
  mutable batch_window : float;
  mutable last_plan : string list;
}

let zero_stats () =
  { statements = 0;
    rows_shipped = 0;
    params_bound = 0;
    full_scans = 0;
    rows_scanned = 0;
    index_lookups = 0;
    index_rows = 0;
    hash_joins = 0;
    index_joins = 0;
    nl_joins = 0;
    coalesced_hits = 0;
    batch_merges = 0;
    dedup_roundtrips_saved = 0 }

(* Distinguishes databases with recurring names (fuzz catalogs) in the
   executor's process-wide work-sharing registries. *)
let next_uid =
  let counter = ref 0 in
  let lock = Mutex.create () in
  fun () ->
    Mutex.lock lock;
    incr counter;
    let uid = !counter in
    Mutex.unlock lock;
    uid

let create ?(vendor = Generic_sql92) ?(roundtrip_latency = 0.) db_name =
  { db_uid = next_uid ();
    db_name;
    vendor;
    tables = Hashtbl.create 16;
    stats = zero_stats ();
    stats_lock = Mutex.create ();
    roundtrip_latency;
    faults = Aldsp_concurrency.Fault_schedule.create ();
    use_indexes = true;
    share_work = false;
    (* accumulation window start: a quarter roundtrip (adapted at run
       time between 50 µs and half the roundtrip, see Sql_exec) *)
    batch_window = roundtrip_latency /. 4.;
    last_plan = [] }

let add_stats acc s =
  acc.statements <- acc.statements + s.statements;
  acc.rows_shipped <- acc.rows_shipped + s.rows_shipped;
  acc.params_bound <- acc.params_bound + s.params_bound;
  acc.full_scans <- acc.full_scans + s.full_scans;
  acc.rows_scanned <- acc.rows_scanned + s.rows_scanned;
  acc.index_lookups <- acc.index_lookups + s.index_lookups;
  acc.index_rows <- acc.index_rows + s.index_rows;
  acc.hash_joins <- acc.hash_joins + s.hash_joins;
  acc.index_joins <- acc.index_joins + s.index_joins;
  acc.nl_joins <- acc.nl_joins + s.nl_joins;
  acc.coalesced_hits <- acc.coalesced_hits + s.coalesced_hits;
  acc.batch_merges <- acc.batch_merges + s.batch_merges;
  acc.dedup_roundtrips_saved <-
    acc.dedup_roundtrips_saved + s.dedup_roundtrips_saved

let add_table t table = Hashtbl.replace t.tables table.Table.table_name table

let find_table t name =
  match Hashtbl.find_opt t.tables name with
  | Some table -> Ok table
  | None -> Error (Printf.sprintf "database %s: no table %s" t.db_name name)

let table_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.tables []
  |> List.sort String.compare

let vendor_name = function
  | Oracle -> "Oracle"
  | Db2 -> "DB2"
  | Sql_server -> "SQL Server"
  | Sybase -> "Sybase"
  | Generic_sql92 -> "SQL92"

(* Counter mutations from concurrent sessions go through [stats_lock]:
   increments are read-modify-write and would lose updates under
   preemption. Reads stay unlocked — fields are word-sized and the
   consumers (stats reports) tolerate an in-flight statement. *)
let record_operator t f =
  Mutex.lock t.stats_lock;
  f t.stats;
  Mutex.unlock t.stats_lock

let reset_stats t =
  record_operator t @@ fun _ ->
  t.stats.statements <- 0;
  t.stats.rows_shipped <- 0;
  t.stats.params_bound <- 0;
  t.stats.full_scans <- 0;
  t.stats.rows_scanned <- 0;
  t.stats.index_lookups <- 0;
  t.stats.index_rows <- 0;
  t.stats.hash_joins <- 0;
  t.stats.index_joins <- 0;
  t.stats.nl_joins <- 0;
  t.stats.coalesced_hits <- 0;
  t.stats.batch_merges <- 0;
  t.stats.dedup_roundtrips_saved <- 0

let set_use_indexes t flag = t.use_indexes <- flag

let set_share_work t flag = t.share_work <- flag

let set_last_plan t plan = t.last_plan <- plan

let explain_last t =
  match t.last_plan with
  | [] -> Printf.sprintf "-- %s: no statement executed" t.db_name
  | lines -> String.concat "\n" lines

let apply_fault t =
  if Aldsp_concurrency.Fault_schedule.next_fails t.faults then
    Error (Printf.sprintf "database %s: scripted transport failure" t.db_name)
  else Ok ()

(* ------------------------------------------------------------------ *)
(* Statistics for the cost-based planner *)

(* Sums of per-table counters: order-independent, so iterating the
   hashtable directly is deterministic. The planner keys cached plans on
   the planning epoch, so a cost decision survives exactly the writes
   that move none of its inputs; work sharing keys on the data epoch. *)
let sum_tables t counter =
  Hashtbl.fold (fun _ table acc -> acc + counter table) t.tables 0

let stats_version t = sum_tables t Table.stats_version
let data_version t = sum_tables t Table.version

let table_statistics t =
  List.filter_map
    (fun name ->
      match find_table t name with
      | Ok table -> Some (name, Table.statistics table)
      | Error _ -> None)
    (table_names t)

(* The declared cost profile of this source: seconds per statement
   roundtrip and per shipped row. The per-row cost matches the observed
   middleware materialization cost on this workload (~2 µs/row); vendors
   do not differ here, latency does. *)
let cost_profile t = (t.roundtrip_latency, 2e-6)

(* The latency sleep happens outside the stats lock (other sessions'
   roundtrips overlap it) and through the cancellation-aware sleep, so a
   session deadline aborts a statement mid-"network wait". *)
let record_statement t ~params ~rows =
  record_operator t (fun stats ->
      stats.statements <- stats.statements + 1;
      stats.params_bound <- stats.params_bound + params;
      stats.rows_shipped <- stats.rows_shipped + rows);
  if t.roundtrip_latency > 0. then
    Aldsp_concurrency.Cancel.sleepf t.roundtrip_latency

(* Cursor-style accounting: one roundtrip (and one latency payment) when
   the statement opens, rows added chunk by chunk as they ship. Success
   paths total exactly what a single [record_statement ~rows] reports. *)
let open_statement t ~params = record_statement t ~params ~rows:0

let ship_rows t n =
  if n > 0 then
    record_operator t (fun stats ->
        stats.rows_shipped <- stats.rows_shipped + n)
