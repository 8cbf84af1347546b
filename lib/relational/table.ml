type sql_type = T_int | T_varchar | T_decimal | T_boolean | T_timestamp

type column = { col_name : string; col_type : sql_type; nullable : bool }

type foreign_key = {
  fk_columns : string list;
  references_table : string;
  references_columns : string list;
}

(* Row storage is a growable array of slots; a row's slot number is its
   stable id (insertion order), referenced by index entries. Deleted rows
   leave a dead slot behind — scans skip them via [live] — so surviving
   ids never shift. *)
type t = {
  table_name : string;
  columns : column list;
  primary_key : string list;
  foreign_keys : foreign_key list;
  lock : Mutex.t;
      (* one lock per table, guarding storage, the live bitmap, the
         indexes and the incremental statistics: concurrent sessions run
         DML and index probes against the same tables. Not reentrant —
         public entry points lock exactly once and compose the unlocked
         internals below. *)
  mutable store : Sql_value.t array array;
  mutable size : int;  (* slots allocated so far; next fresh row id *)
  mutable live : Bytes.t;  (* '\001' live, '\000' dead, per slot *)
  mutable live_count : int;
  mutable indexes : Index.t list;
  mutable pk_index : Index.t option;  (* member of [indexes] *)
  mutable version : int;  (* bumped on every row mutation *)
  mutable stats_version : int;
      (* bumped when something the planner reads moves: the row count,
         the index set or an index's distinct-key count *)
  mutable last_scan : (int * int array * Sql_value.t array array) option;
      (* the latest [scan] and the [version] it was taken at *)
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect f ~finally:(fun () -> Mutex.unlock t.lock)

let column ?(nullable = true) col_name col_type = { col_name; col_type; nullable }

let column_index t name =
  let rec go i = function
    | [] -> None
    | c :: _ when String.equal c.col_name name -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 t.columns

let column_type t name =
  List.find_map
    (fun c -> if String.equal c.col_name name then Some c.col_type else None)
    t.columns

let resolve_positions t cols =
  let rec go acc = function
    | [] -> Some (Array.of_list (List.rev acc))
    | c :: rest -> (
      match column_index t c with
      | Some i -> go (i :: acc) rest
      | None -> None)
  in
  if cols = [] then None else go [] cols

(* [indexes]/[pk_index] read one immutable list/option value: registration
   replaces the field wholesale, so unlocked readers see the old or the
   new list, never a torn one. Probing an index's contents concurrently
   with DML does need the lock — see [probe_index]. *)
let indexes t = t.indexes
let pk_index t = t.pk_index

let find_index t cols =
  let sorted = List.sort String.compare cols in
  List.find_opt
    (fun idx -> List.sort String.compare (Index.columns idx) = sorted)
    t.indexes

(* Builds and registers an index over the current rows; [None] when some
   key column is not in the schema (legacy schemas may declare keys over
   absent columns — those fall back to scans, as before). *)
let register_index t ?(unique = false) ~name cols =
  match resolve_positions t cols with
  | None -> None
  | Some positions ->
    let idx = Index.create ~unique ~name ~cols ~positions () in
    for id = 0 to t.size - 1 do
      if Bytes.get t.live id = '\001' then Index.add idx id t.store.(id)
    done;
    t.indexes <- t.indexes @ [ idx ];
    t.stats_version <- t.stats_version + 1;
    Some idx

let create_index t ~name cols =
  with_lock t @@ fun () ->
  if List.exists (fun idx -> String.equal (Index.name idx) name) t.indexes
  then Error (Printf.sprintf "table %s: index %s already exists" t.table_name name)
  else
    match register_index t ~name cols with
    | Some _ -> Ok ()
    | None ->
      Error
        (Printf.sprintf "table %s: index %s names an unknown column"
           t.table_name name)

let create ?(primary_key = []) ?(foreign_keys = []) table_name columns =
  let t =
    { table_name;
      columns;
      primary_key;
      foreign_keys;
      lock = Mutex.create ();
      store = [||];
      size = 0;
      live = Bytes.empty;
      live_count = 0;
      indexes = [];
      pk_index = None;
      version = 0;
      stats_version = 0;
      last_scan = None }
  in
  if primary_key <> [] then
    t.pk_index <- register_index t ~unique:true ~name:("pk_" ^ table_name)
        primary_key;
  List.iter
    (fun fk ->
      if find_index t fk.fk_columns = None then
        ignore
          (register_index t
             ~name:
               (Printf.sprintf "fk_%s_%s" table_name
                  (String.concat "_" fk.fk_columns))
             fk.fk_columns))
    foreign_keys;
  t

let type_check ty v =
  match (ty, v) with
  | _, Sql_value.Null -> true
  | T_int, Sql_value.Int _ -> true
  | T_varchar, Sql_value.Str _ -> true
  | T_decimal, (Sql_value.Int _ | Sql_value.Float _) -> true
  | T_boolean, Sql_value.Bool _ -> true
  | T_timestamp, (Sql_value.Timestamp _ | Sql_value.Int _) -> true
  | _ -> false

let key_of_row t row =
  List.map
    (fun k ->
      match column_index t k with
      | Some i -> row.(i)
      | None -> Sql_value.Null)
    t.primary_key

(* ------------------------------------------------------------------ *)
(* Row access *)

let is_live_u t id = id >= 0 && id < t.size && Bytes.get t.live id = '\001'

let iter_rows_u t f =
  for id = 0 to t.size - 1 do
    if Bytes.get t.live id = '\001' then f id t.store.(id)
  done

let get_row t id =
  with_lock t @@ fun () -> if is_live_u t id then Some t.store.(id) else None

(* A snapshot of the live rows and their ids, taken under the lock.
   Callers read it outside the lock: evaluating a row may query (or
   mutate) this same table, which must not re-enter the non-reentrant
   lock. Row arrays are never mutated in place, so sharing them is
   safe, and every mutation bumps [version], so scans of an unchanged
   table share one snapshot. *)
let scan t =
  with_lock t @@ fun () ->
  match t.last_scan with
  | Some (version, ids, rows) when version = t.version -> (ids, rows)
  | _ ->
    let ids = Array.make t.live_count 0 in
    let rows = Array.make t.live_count [||] in
    let k = ref 0 in
    iter_rows_u t (fun id row ->
        ids.(!k) <- id;
        rows.(!k) <- row;
        incr k);
    t.last_scan <- Some (t.version, ids, rows);
    (ids, rows)

(* a single word-sized field: torn reads are impossible, so the planner
   can read row counts without taking the lock *)
let row_count t = t.live_count

let probe_index t idx values = with_lock t @@ fun () -> Index.probe idx values

let probe_rows t idx tuples =
  with_lock t @@ fun () ->
  let ids = Index.probe_many idx tuples in
  let live = is_live_u t in
  let ids =
    if Array.for_all live ids then ids
    else Array.of_seq (Seq.filter live (Array.to_seq ids))
  in
  (ids, Array.map (fun id -> t.store.(id)) ids)

(* ------------------------------------------------------------------ *)
(* Mutation *)

let ensure_capacity t =
  if t.size >= Array.length t.store then begin
    let cap = max 8 (2 * Array.length t.store) in
    let store = Array.make cap [||] in
    Array.blit t.store 0 store 0 t.size;
    let live = Bytes.make cap '\000' in
    Bytes.blit t.live 0 live 0 t.size;
    t.store <- store;
    t.live <- live
  end

let append_unchecked t row =
  ensure_capacity t;
  let id = t.size in
  t.store.(id) <- row;
  Bytes.set t.live id '\001';
  t.size <- t.size + 1;
  t.live_count <- t.live_count + 1;
  t.version <- t.version + 1;
  t.stats_version <- t.stats_version + 1;
  List.iter (fun idx -> Index.add idx id row) t.indexes;
  id

let pk_duplicate t key =
  match t.pk_index with
  | Some idx ->
    (* grouping probe: primary-key uniqueness treats NULL keys as equal,
       matching [Sql_value.equal]; candidates are re-verified exactly *)
    List.exists
      (fun id -> List.for_all2 Sql_value.equal key (key_of_row t t.store.(id)))
      (Index.probe_grouping idx (Array.of_list key))
  | None ->
    (* the declared key names a column the schema lacks: scan, as before
       (the caller holds the lock) *)
    let dup = ref false in
    iter_rows_u t (fun _ row ->
        if
          (not !dup)
          && List.for_all2 Sql_value.equal key (key_of_row t row)
        then dup := true);
    !dup

let validate t row =
  if Array.length row <> List.length t.columns then
    Error
      (Printf.sprintf "table %s: row has %d values, expected %d" t.table_name
         (Array.length row) (List.length t.columns))
  else
    let violations =
      List.filteri
        (fun i c ->
          (Sql_value.is_null row.(i) && not c.nullable)
          || not (type_check c.col_type row.(i)))
        t.columns
    in
    match violations with
    | c :: _ ->
      Error
        (Printf.sprintf "table %s: constraint violation on column %s"
           t.table_name c.col_name)
    | [] ->
      if t.primary_key <> [] && pk_duplicate t (key_of_row t row) then
        Error (Printf.sprintf "table %s: duplicate primary key" t.table_name)
      else Ok ()

let insert_u t row =
  match validate t row with
  | Error msg -> Error msg
  | Ok () -> Ok (append_unchecked t row)

let delete_row_u t id =
  if is_live_u t id then begin
    let row = t.store.(id) in
    List.iter (fun idx -> Index.remove idx id row) t.indexes;
    Bytes.set t.live id '\000';
    t.store.(id) <- [||];
    t.live_count <- t.live_count - 1;
    t.version <- t.version + 1;
    t.stats_version <- t.stats_version + 1
  end

(* An index whose key is the same in both rows keeps its entry: the id
   would go back into the bucket it left, at the same position. The
   planner's statistics move only when some index's distinct-key count
   does. *)
let replace_row_u t id row =
  if is_live_u t id then begin
    let old = t.store.(id) in
    List.iter
      (fun idx ->
        if not (Index.same_key idx old row) then begin
          let ndv = Index.distinct_keys idx in
          Index.remove idx id old;
          Index.add idx id row;
          if Index.distinct_keys idx <> ndv then
            t.stats_version <- t.stats_version + 1
        end)
      t.indexes;
    t.store.(id) <- row;
    t.version <- t.version + 1
  end

(* Puts a deleted row back at its own id; ids are never reused, so the
   slot is still free. *)
let revive_row_u t id row =
  if not (is_live_u t id) then begin
    t.store.(id) <- row;
    Bytes.set t.live id '\001';
    t.live_count <- t.live_count + 1;
    t.version <- t.version + 1;
    t.stats_version <- t.stats_version + 1;
    List.iter (fun idx -> Index.add idx id row) t.indexes
  end

(* ------------------------------------------------------------------ *)
(* Undo logs (transactions)

   An open transaction owns a log of the row changes its thread makes to
   the tables it covers, newest first, each with the row's before image.
   The mutators below find that log through a table keyed by Thread.id,
   as Cancel finds a thread's ambient token; while no transaction is
   open anywhere the lookup is one atomic read. Rolling back replays the
   log backwards, so it undoes this transaction's rows and nothing that
   another session committed meanwhile. *)

type change =
  | Inserted
  | Updated of Sql_value.t array  (* the row before *)
  | Deleted of Sql_value.t array

type log = {
  owner : int;  (* Thread.id of the thread that opened it *)
  covers : t list;
  mutable changes : (t * int * change) list;  (* newest first *)
}

(* Each thread's open logs, innermost first. *)
let open_logs : (int, log list) Hashtbl.t = Hashtbl.create 16
let open_logs_lock = Mutex.create ()
let open_count = Atomic.make 0

let open_log covers =
  let log = { owner = Thread.id (Thread.self ()); covers; changes = [] } in
  Mutex.protect open_logs_lock (fun () ->
      let stack =
        Option.value (Hashtbl.find_opt open_logs log.owner) ~default:[]
      in
      Hashtbl.replace open_logs log.owner (log :: stack);
      Atomic.incr open_count);
  log

(* Closing twice is a no-op, so [open_count] stays exact. *)
let close_log log =
  Mutex.protect open_logs_lock (fun () ->
      match Hashtbl.find_opt open_logs log.owner with
      | Some stack when List.memq log stack -> (
        Atomic.decr open_count;
        match List.filter (fun l -> l != log) stack with
        | [] -> Hashtbl.remove open_logs log.owner
        | rest -> Hashtbl.replace open_logs log.owner rest)
      | _ -> ());
  log.changes <- []

let undo_log log =
  let changes = log.changes in
  close_log log;
  List.iter
    (fun (t, id, change) ->
      with_lock t @@ fun () ->
      match change with
      | Inserted -> delete_row_u t id
      | Updated before -> replace_row_u t id before
      | Deleted before -> revive_row_u t id before)
    changes

(* The innermost of this thread's open logs that covers [t]. Looked up
   before taking [t]'s lock, so the two locks never nest. *)
let log_for t =
  if Atomic.get open_count = 0 then None
  else
    Mutex.protect open_logs_lock @@ fun () ->
    match Hashtbl.find_opt open_logs (Thread.id (Thread.self ())) with
    | None -> None
    | Some stack -> List.find_opt (fun l -> List.memq t l.covers) stack

let note log t id change =
  match log with
  | Some l -> l.changes <- (t, id, change) :: l.changes
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Logged mutators *)

let insert t row =
  let log = log_for t in
  with_lock t @@ fun () ->
  match insert_u t row with
  | Ok id ->
    note log t id Inserted;
    Ok ()
  | Error msg -> Error msg

let delete_row t id =
  let log = log_for t in
  with_lock t @@ fun () ->
  if is_live_u t id then begin
    note log t id (Deleted t.store.(id));
    delete_row_u t id
  end

(* one critical section for the whole batch, so all-or-nothing holds even
   against concurrent writers: no other session can observe (or collide
   with) a half-applied batch *)
let insert_many t rows =
  let log = log_for t in
  with_lock t @@ fun () ->
  let rec go inserted = function
    | [] ->
      List.iter (fun id -> note log t id Inserted) (List.rev inserted);
      Ok (List.length inserted)
    | row :: rest -> (
      match insert_u t row with
      | Ok id -> go (id :: inserted) rest
      | Error msg ->
        (* all-or-nothing: unwind the rows this call appended *)
        List.iter (delete_row_u t) inserted;
        Error msg)
  in
  go [] rows

(* The executor validated nothing on UPDATE historically; [update_row]
   keeps that contract and only maintains the indexes. *)
let update_row t id row =
  let log = log_for t in
  with_lock t @@ fun () ->
  if is_live_u t id then begin
    note log t id (Updated t.store.(id));
    replace_row_u t id row
  end

(* ------------------------------------------------------------------ *)
(* Statistics *)

let version t = t.version
let stats_version t = t.stats_version

type column_stats = {
  cs_columns : string list;
  cs_distinct : int;
  cs_min : float option;
  cs_max : float option;
  cs_unique : bool;
}

type statistics = {
  stat_rows : int;
  stat_version : int;
  stat_columns : column_stats list;
}

(* One entry per index: row counts are exact, NDV comes from the live
   bucket count, and min/max is tracked for single-column numeric keys.
   Everything here is maintained incrementally by the mutation paths
   above, so reading statistics costs nothing beyond a possible lazy
   range recompute after endpoint deletes. *)
let statistics t =
  with_lock t @@ fun () ->
  { stat_rows = t.live_count;
    stat_version = t.stats_version;
    stat_columns =
      List.map
        (fun idx ->
          let rng = Index.numeric_range idx in
          { cs_columns = Index.columns idx;
            cs_distinct = Index.distinct_keys idx;
            cs_min = Option.map fst rng;
            cs_max = Option.map snd rng;
            cs_unique = Index.unique idx })
        t.indexes }

(* NDV for a single column when some index leads with it: an index keyed
   exactly on [col] gives the exact live distinct count; a compound index
   leading with [col] gives a lower bound on the tuple NDV which is an
   upper bound for neither, so only exact matches are reported. *)
let distinct_estimate t col =
  with_lock t @@ fun () ->
  List.find_map
    (fun idx ->
      match Index.columns idx with
      | [ c ] when String.equal c col -> Some (Index.distinct_keys idx)
      | _ -> None)
    t.indexes

let atomic_type_of_sql = function
  | T_int -> Aldsp_xml.Atomic.T_integer
  | T_varchar -> Aldsp_xml.Atomic.T_string
  | T_decimal -> Aldsp_xml.Atomic.T_decimal
  | T_boolean -> Aldsp_xml.Atomic.T_boolean
  | T_timestamp -> Aldsp_xml.Atomic.T_date_time
