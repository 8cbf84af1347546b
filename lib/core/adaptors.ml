open Aldsp_xml
open Aldsp_relational
open Aldsp_services

let row_to_element ~row_name ~columns row =
  let children =
    List.concat
      (List.mapi
         (fun i (col_name, atomic_ty) ->
           match Sql_value.to_atomic row.(i) with
           | None -> []  (* NULL: missing element, the "ragged" mapping *)
           | Some atom ->
             let atom =
               match Atomic.cast atomic_ty atom with
               | Ok v -> v
               | Error _ -> atom
             in
             [ Node.element (Qname.local col_name) [ Node.atom atom ] ])
         columns)
  in
  Node.element row_name children

let table_columns table =
  List.map
    (fun c -> (c.Table.col_name, Table.atomic_type_of_sql c.Table.col_type))
    table.Table.columns

let relational_scan db ~table ~row_name =
  match Database.find_table db table with
  | Error msg -> Error msg
  | Ok t ->
    let columns = table_columns t in
    let select =
      Sql_ast.select
        ~projections:
          (List.map (fun (c, _) -> (Sql_ast.col "t0" c, c)) columns)
        (Sql_ast.Table { table; alias = "t0" })
    in
    (match Sql_exec.query db select with
    | Error msg -> Error msg
    | Ok result ->
      Ok
        (List.map
           (fun row -> Item.Node (row_to_element ~row_name ~columns row))
           result.Sql_exec.rows))

let service_call service ~operation args =
  match args with
  | [ Item.Node request ] -> (
    match Web_service.invoke service operation request with
    | Ok response -> Ok [ Item.Node response ]
    | Error msg -> Error msg)
  | _ ->
    Error
      (Printf.sprintf
         "service operation %s expects a single request element" operation)

let atomic_to_sql = function
  | None -> Sql_value.Null
  | Some atom -> Sql_value.of_atomic atom

let custom_call registry fname args =
  let ( let* ) = Result.bind in
  let* atoms =
    List.fold_left
      (fun acc arg ->
        let* acc = acc in
        let* atomized = Item.atomize arg in
        match atomized with
        | [ a ] -> Ok (a :: acc)
        | [] ->
          Error
            (Printf.sprintf "external function %s: empty argument"
               (Qname.to_string fname))
        | _ ->
          Error
            (Printf.sprintf "external function %s: sequence argument"
               (Qname.to_string fname)))
      (Ok []) args
  in
  let* result = Custom_function.call registry fname (List.rev atoms) in
  Ok [ Item.Atom result ]
