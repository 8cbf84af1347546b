open Aldsp_xml
module Metadata = Aldsp_core.Metadata
open Aldsp_relational
module Sql = Sql_ast

type concurrency_policy =
  | All_read_values
  | Updated_values_only
  | Designated of Qname.t list list

type table_update = {
  tu_db : string;
  tu_table : string;
  tu_sql : string;
  tu_rows : int;
}

type report = {
  updates : table_update list;
  sources_touched : string list;
  overridden : bool;
}

type overrides = (Qname.t, Sdo.t -> (unit, string) result) Hashtbl.t

let no_overrides () : overrides = Hashtbl.create 4

let register_override overrides fn handler = Hashtbl.replace overrides fn handler

let ( let* ) = Result.bind

(* map a document value back to the stored value, applying the write-back
   function lineage recorded (the inverse for single-argument transforms,
   the per-argument projection for multi-argument ones, §4.5) *)
let stored_value registry (cs : Lineage.column_source) = function
  | None -> Ok Sql_value.Null
  | Some atom -> (
    match (cs.Lineage.cs_writeback, cs.Lineage.cs_via) with
    | None, None -> Ok (Sql_value.of_atomic atom)
    | None, Some via ->
      Error
        (Printf.sprintf "no inverse registered for %s; %s.%s not updatable"
           (Qname.to_string via) cs.Lineage.cs_table cs.Lineage.cs_column)
    | Some writeback, _ -> (
      match
        Aldsp_services.Custom_function.call
          (Metadata.custom_registry registry)
          writeback [ atom ]
      with
      | Ok stored -> Ok (Sql_value.of_atomic stored)
      | Error msg -> Error msg))

let find_database registry name =
  match Metadata.find_database registry name with
  | Some db -> Ok db
  | None -> Error (Printf.sprintf "unknown database %s" name)

let original_value sdo path =
  Sdo.get_field
    { sdo with Sdo.current = sdo.Sdo.original }
    path

(* lineage paths a policy requires to be unchanged, per table *)
let concurrency_columns policy lineage sdo table_db table_name changed_paths =
  match policy with
  | Updated_values_only -> changed_paths
  | All_read_values ->
    List.filter_map
      (fun (path, cs) ->
        if
          cs.Lineage.cs_db = table_db
          && cs.Lineage.cs_table = table_name
          && original_value sdo path <> None
        then Some path
        else None)
      lineage.Lineage.columns
  | Designated paths ->
    List.filter
      (fun path ->
        match Lineage.source_of lineage path with
        | Some cs ->
          cs.Lineage.cs_db = table_db && cs.Lineage.cs_table = table_name
        | None -> false)
      paths

(* The WHERE of a keyed UPDATE or DELETE (§6): the primary key and the
   policy's guard columns, all compared with read-time (original) values,
   so a row changed since the read matches nothing. *)
let read_time_where registry policy lineage sdo (key : Lineage.table_key)
    changed_paths =
  let table = key.Lineage.tk_table in
  let* key_conds =
    List.fold_left
      (fun acc (col, path) ->
        let* acc = acc in
        match original_value sdo path with
        | Some v ->
          Ok
            (acc
            @ [ Sql.Binop
                  (Sql.Eq, Sql.Col (None, col), Sql.Lit (Sql_value.of_atomic v))
              ])
        | None ->
          Error (Printf.sprintf "object lacks key value for %s.%s" table col))
      (Ok []) key.Lineage.tk_columns
  in
  let guard_paths =
    concurrency_columns policy lineage sdo key.Lineage.tk_db table
      changed_paths
  in
  let* guard_conds =
    List.fold_left
      (fun acc path ->
        let* acc = acc in
        match Lineage.source_of lineage path with
        | None -> Ok acc
        | Some cs -> (
          let col = Sql.Col (None, cs.Lineage.cs_column) in
          match original_value sdo path with
          | Some v ->
            let* stored = stored_value registry cs (Some v) in
            Ok (acc @ [ Sql.Binop (Sql.Eq, col, Sql.Lit stored) ])
          | None -> Ok (acc @ [ Sql.Is_null col ])))
      (Ok []) guard_paths
  in
  Ok
    (List.fold_left
       (fun acc c ->
         match acc with
         | None -> Some c
         | Some a -> Some (Sql.Binop (Sql.And, a, c)))
       None (key_conds @ guard_conds))

let propagate_object registry policy lineage (sdo : Sdo.t) =
  (* group the changed paths by their source table *)
  let changes_by_table = Hashtbl.create 4 in
  let* () =
    List.fold_left
      (fun acc change ->
        let* () = acc in
        match Lineage.sources_of lineage change.Sdo.change_path with
        | [] ->
          Error
            (Printf.sprintf "path %s has no updatable lineage"
               (String.concat "/"
                  (List.map Qname.to_string change.Sdo.change_path)))
        | sources ->
          (* a multi-argument transformation maps one changed path to one
             assignment per underlying column *)
          List.iter
            (fun cs ->
              let key = (cs.Lineage.cs_db, cs.Lineage.cs_table) in
              let existing =
                Option.value (Hashtbl.find_opt changes_by_table key)
                  ~default:[]
              in
              Hashtbl.replace changes_by_table key (existing @ [ (change, cs) ]))
            sources;
          Ok ())
      (Ok ()) sdo.Sdo.change_log
  in
  (* one UPDATE per affected table *)
  Hashtbl.fold
    (fun (db_name, table_name) changes acc ->
      let* acc = acc in
      let* key =
        match
          List.find_opt
            (fun k ->
              k.Lineage.tk_db = db_name && k.Lineage.tk_table = table_name)
            lineage.Lineage.keys
        with
        | Some k -> Ok k
        | None ->
          Error
            (Printf.sprintf "table %s.%s has no usable primary key" db_name
               table_name)
      in
      let* db = find_database registry db_name in
      (* SET: new values (through inverses) *)
      let* assignments =
        List.fold_left
          (fun acc (change, cs) ->
            let* acc = acc in
            let* v = stored_value registry cs change.Sdo.new_value in
            Ok (acc @ [ (cs.Lineage.cs_column, Sql.Lit v) ]))
          (Ok []) changes
      in
      let changed_paths = List.map (fun (c, _) -> c.Sdo.change_path) changes in
      let* where =
        read_time_where registry policy lineage sdo key changed_paths
      in
      let dml = Sql.Update { table = table_name; assignments; where } in
      Ok ((db, dml) :: acc))
    changes_by_table (Ok [])

(* INSERT for a Created object: one row per updatable table, populated
   from every lineage column whose path has a value in the document. *)
let insert_object registry lineage (sdo : Sdo.t) =
  let current_value path =
    Sdo.get_field sdo path
  in
  List.fold_left
    (fun acc (key : Lineage.table_key) ->
      let* acc = acc in
      let* db = find_database registry key.Lineage.tk_db in
      let* () =
        if
          List.for_all
            (fun (_, path) -> current_value path <> None)
            key.Lineage.tk_columns
        then Ok ()
        else
          Error
            (Printf.sprintf "new object lacks key values for %s.%s"
               key.Lineage.tk_db key.Lineage.tk_table)
      in
      let* cells =
        List.fold_left
          (fun acc (path, cs) ->
            let* acc = acc in
            if
              cs.Lineage.cs_db <> key.Lineage.tk_db
              || cs.Lineage.cs_table <> key.Lineage.tk_table
            then Ok acc
            else
              match current_value path with
              | None -> Ok acc
              | Some v ->
                let* stored = stored_value registry cs (Some v) in
                Ok (acc @ [ (cs.Lineage.cs_column, Sql.Lit stored) ]))
          (Ok []) lineage.Lineage.columns
      in
      let dml =
        Sql.Insert
          { table = key.Lineage.tk_table;
            columns = List.map fst cells;
            values = List.map snd cells }
      in
      Ok ((db, dml) :: acc))
    (Ok []) lineage.Lineage.keys

(* DELETE for a Deleted object: remove the row from each updatable table,
   identified by primary key (plus the policy's guards). *)
let delete_object registry policy lineage (sdo : Sdo.t) =
  List.fold_left
    (fun acc (key : Lineage.table_key) ->
      let* acc = acc in
      let* db = find_database registry key.Lineage.tk_db in
      let* where = read_time_where registry policy lineage sdo key [] in
      Ok ((db, Sql.Delete { table = key.Lineage.tk_table; where }) :: acc))
    (Ok []) lineage.Lineage.keys

let submit ?(policy = Updated_values_only) ?overrides registry sdos =
  let overrides = match overrides with Some o -> o | None -> no_overrides () in
  let changed = List.filter Sdo.is_changed sdos in
  if changed = [] then
    Ok { updates = []; sources_touched = []; overridden = false }
  else begin
    (* overrides replace default propagation per data service *)
    let overridden, default =
      List.partition
        (fun sdo -> Hashtbl.mem overrides sdo.Sdo.ds_function)
        changed
    in
    let* () =
      List.fold_left
        (fun acc sdo ->
          let* () = acc in
          (Hashtbl.find overrides sdo.Sdo.ds_function) sdo)
        (Ok ()) overridden
    in
    (* plan all statements first so lineage errors abort before any write *)
    let* planned =
      List.fold_left
        (fun acc sdo ->
          let* acc = acc in
          let provider =
            (* the object's data service function is its lineage provider
               unless the registry's data service says otherwise *)
            sdo.Sdo.ds_function
          in
          let* lineage = Lineage.analyze registry provider in
          let* stmts =
            match sdo.Sdo.status with
            | Sdo.Created -> insert_object registry lineage sdo
            | Sdo.Deleted -> delete_object registry policy lineage sdo
            | Sdo.Modified | Sdo.Unchanged ->
              propagate_object registry policy lineage sdo
          in
          Ok (acc @ stmts))
        (Ok []) default
    in
    let participants =
      List.sort_uniq compare (List.map (fun (db, _) -> db) planned)
    in
    let executed = ref [] in
    let outcome =
      Txn.two_phase_commit ~participants ~work:(fun () ->
          List.fold_left
            (fun acc (db, dml) ->
              let* () = acc in
              match Sql_exec.execute_dml db dml with
              | Error msg -> Error msg
              | Ok 0 ->
                Error
                  (Printf.sprintf
                     "optimistic concurrency conflict: %s matched no row"
                     (Sql_print.statement db.Database.vendor (Sql.Dml dml)))
              | Ok n ->
                executed :=
                  { tu_db = db.Database.db_name;
                    tu_table =
                      (match dml with
                      | Sql.Update { table; _ } -> table
                      | Sql.Insert { table; _ } | Sql.Delete { table; _ } ->
                        table);
                    tu_sql = Sql_print.statement db.Database.vendor (Sql.Dml dml);
                    tu_rows = n }
                  :: !executed;
                Ok ())
            (Ok ()) planned)
    in
    match outcome with
    | Txn.Rolled_back msg -> Error msg
    | Txn.Committed ->
      List.iter
        (fun (sdo : Sdo.t) ->
          sdo.Sdo.change_log <- [];
          sdo.Sdo.status <- Sdo.Unchanged)
        changed;
      Ok
        { updates = List.rev !executed;
          sources_touched =
            List.map (fun db -> db.Database.db_name) participants;
          overridden = overridden <> [] }
  end
