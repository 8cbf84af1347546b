open Aldsp_xml
open Aldsp_relational
open Aldsp_services

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
          (* None: scalar result *)
    }
  | Service_op of { service : Web_service.t; operation : string }
  | External_custom of Custom_function.registry
  | File_docs of Node.t list

type kind = Read | Navigate | Library

type impl = Body of Cexpr.t | External of source

type function_def = {
  fd_name : Qname.t;
  fd_params : (Cexpr.var * Stype.t) list;
  fd_return : Stype.t;
  fd_impl : impl;
  fd_kind : kind;
  fd_cacheable : bool;
  fd_pragmas : (string * string) list;
}

type data_service = {
  ds_name : string;
  ds_shape : Schema.element_decl option;
  ds_functions : Qname.t list;
  ds_lineage_provider : Qname.t option;
}

type t = {
  functions : (Qname.t * int, function_def) Hashtbl.t;
  databases : (string, Database.t) Hashtbl.t;
  services : (string, data_service) Hashtbl.t;
  schemas : (Qname.t, Schema.element_decl) Hashtbl.t;
  custom : Custom_function.registry;
  inverses : (Qname.t, Qname.t) Hashtbl.t;
  transforms : (Qname.t, Qname.t) Hashtbl.t;  (* directional: f -> inverse *)
  multi_inverses : (Qname.t, Qname.t list) Hashtbl.t;
      (* f(a1..an) -> per-argument projections g_i with a_i = g_i(f(..)) *)
  lock : Mutex.t;
      (* guards every table and the generation counter: sessions compile
         concurrently (transient prolog functions mutate the registry)
         while others read, and an unlocked Hashtbl read during a resize
         is a crash, not just a stale answer. The lock is not reentrant:
         public operations lock exactly once and compound updates go
         through the unlocked internals inside a single critical
         section. *)
  mutable generation : int;
}

let create () =
  { functions = Hashtbl.create 64;
    databases = Hashtbl.create 8;
    services = Hashtbl.create 16;
    schemas = Hashtbl.create 32;
    custom = Custom_function.create_registry ();
    inverses = Hashtbl.create 8;
    transforms = Hashtbl.create 8;
    multi_inverses = Hashtbl.create 4;
    lock = Mutex.create ();
    generation = 0 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect f ~finally:(fun () -> Mutex.unlock t.lock)

let copy t =
  locked t @@ fun () ->
  { functions = Hashtbl.copy t.functions;
    databases = Hashtbl.copy t.databases;
    services = Hashtbl.copy t.services;
    schemas = Hashtbl.copy t.schemas;
    custom = t.custom;
    inverses = Hashtbl.copy t.inverses;
    transforms = Hashtbl.copy t.transforms;
    multi_inverses = Hashtbl.copy t.multi_inverses;
    lock = Mutex.create ();
    generation = t.generation }

let generation t = locked t @@ fun () -> t.generation

let bump_unlocked t = t.generation <- t.generation + 1

let add_function t fd =
  locked t @@ fun () ->
  bump_unlocked t;
  Hashtbl.replace t.functions (fd.fd_name, List.length fd.fd_params) fd

let find_function t name arity =
  locked t @@ fun () -> Hashtbl.find_opt t.functions (name, arity)

(* Unprefixed calls resolve to the default function namespace (fn); when no
   builtin claims the name, fall back to the no-namespace registry so that
   introspected sources registered without a URI stay callable without a
   prefix. *)
let resolve_call t name arity =
  match find_function t name arity with
  | Some fd -> Some fd
  | None ->
    if String.equal name.Qname.uri Names.fn_uri then
      find_function t (Qname.local name.Qname.local) arity
    else None

let external_call t = function
  | Cexpr.Call { fn; args } -> (
    match resolve_call t fn (List.length args) with
    | Some { fd_impl = External _; _ } -> true
    | Some { fd_impl = Body _; _ } | None -> false)
  | _ -> false

let functions t =
  locked t @@ fun () ->
  Hashtbl.fold (fun _ fd acc -> fd :: acc) t.functions []
  |> List.sort (fun a b -> Qname.compare a.fd_name b.fd_name)

(* read-modify-write across every overload of [name]: one critical
   section, or a concurrent [add_function] could interleave between the
   fold and the replaces *)
let set_cacheable t name flag =
  locked t @@ fun () ->
  let updates =
    Hashtbl.fold
      (fun key fd acc ->
        if Qname.equal fd.fd_name name then (key, fd) :: acc else acc)
      t.functions []
  in
  bump_unlocked t;
  List.iter
    (fun (key, fd) ->
      Hashtbl.replace t.functions key { fd with fd_cacheable = flag })
    updates

let add_database t db =
  locked t @@ fun () ->
  bump_unlocked t;
  Hashtbl.replace t.databases db.Database.db_name db

let find_database t name =
  locked t @@ fun () -> Hashtbl.find_opt t.databases name

let databases t =
  locked t @@ fun () ->
  Hashtbl.fold (fun _ db acc -> db :: acc) t.databases []
  |> List.sort (fun a b -> String.compare a.Database.db_name b.Database.db_name)

(* The registry-wide planning generation: it moves when a row count, an
   index set or an index's distinct-key count moves in any registered
   database. Plan-cache keys carry it next to [generation] so cost-based
   decisions are recomputed once a statistic a plan was costed against
   has changed, and survive writes that change none. *)
let stats_generation t =
  locked t @@ fun () ->
  Hashtbl.fold (fun _ db acc -> acc + Database.stats_version db) t.databases 0

let add_data_service t ds =
  locked t @@ fun () ->
  bump_unlocked t;
  Hashtbl.replace t.services ds.ds_name ds

let find_data_service t name =
  locked t @@ fun () -> Hashtbl.find_opt t.services name

let data_services t =
  locked t @@ fun () ->
  Hashtbl.fold (fun _ ds acc -> ds :: acc) t.services []
  |> List.sort (fun a b -> String.compare a.ds_name b.ds_name)

let add_schema t decl =
  locked t @@ fun () ->
  bump_unlocked t;
  Hashtbl.replace t.schemas decl.Schema.elem_name decl

let find_schema t name =
  locked t @@ fun () -> Hashtbl.find_opt t.schemas name

let custom_registry t = t.custom

let register_inverse t ~f ~inverse =
  locked t @@ fun () ->
  bump_unlocked t;
  Hashtbl.replace t.inverses f inverse;
  Hashtbl.replace t.inverses inverse f;
  (* the transformation rules of §4.5 are directional: comparisons against
     f(x) rewrite through the inverse, never the other way around *)
  Hashtbl.replace t.transforms f inverse

let inverse_of t f = locked t @@ fun () -> Hashtbl.find_opt t.inverses f

let transform_of t f = locked t @@ fun () -> Hashtbl.find_opt t.transforms f

let register_multi_inverse t ~f ~projections =
  locked t @@ fun () ->
  bump_unlocked t;
  Hashtbl.replace t.multi_inverses f projections

let projections_of t f =
  locked t @@ fun () -> Hashtbl.find_opt t.multi_inverses f

(* ------------------------------------------------------------------ *)
(* Shape conversion                                                    *)

let rec stype_of_schema (decl : Schema.element_decl) : Stype.item_type =
  match decl.Schema.content with
  | Schema.Atomic_content ty ->
    Stype.element ~simple:ty (Some decl.Schema.elem_name)
  | Schema.Empty_content -> Stype.element (Some decl.Schema.elem_name)
  | Schema.Complex particles ->
    let child_items =
      List.map (fun p -> stype_of_schema p.Schema.decl) particles
    in
    let content = { Stype.items = child_items; occ = Stype.occ_star } in
    Stype.element ~content (Some decl.Schema.elem_name)

let row_schema db table_name =
  match Database.find_table db table_name with
  | Error _ -> None
  | Ok table ->
    let particles =
      List.map
        (fun col ->
          let decl =
            Schema.simple
              (Qname.local col.Table.col_name)
              (Table.atomic_type_of_sql col.Table.col_type)
          in
          Schema.particle
            ~occurs:
              (if col.Table.nullable then Schema.Optional
               else Schema.Exactly_one)
            decl)
        table.Table.columns
    in
    Some (Schema.element_decl (Qname.local table_name) (Schema.Complex particles))

let row_stype db table_name =
  match row_schema db table_name with
  | Some decl -> stype_of_schema decl
  | None -> Stype.element (Some (Qname.local table_name))

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let table_function_name ?(uri = "") table = Qname.make ~uri table

let introspect_relational t ?(uri = "") db =
  add_database t db;
  let tables = Database.table_names db in
  (* read function + shape + data service per table *)
  List.iter
    (fun table_name ->
      let row_name = Qname.local table_name in
      let fname = table_function_name ~uri table_name in
      let return_item = row_stype db table_name in
      let table = Result.get_ok (Database.find_table db table_name) in
      let pragmas =
        [ ("kind", "read");
          ("connection", db.Database.db_name);
          ("vendor", Database.vendor_name db.Database.vendor);
          ("table", table_name);
          ("primaryKey", String.concat "," table.Table.primary_key) ]
      in
      add_function t
        { fd_name = fname;
          fd_params = [];
          fd_return = Stype.star return_item;
          fd_impl = External (Relational_table { db; table = table_name; row_name });
          fd_kind = Read;
          fd_cacheable = false;
          fd_pragmas = pragmas };
      (match row_schema db table_name with
      | Some decl -> add_schema t decl
      | None -> ());
      add_data_service t
        { ds_name = Printf.sprintf "%s.%s" db.Database.db_name table_name;
          ds_shape = row_schema db table_name;
          ds_functions = [ fname ];
          ds_lineage_provider = Some fname })
    tables;
  (* navigation functions from foreign keys, generated as XQuery bodies so
     that inlining + pushdown see through them *)
  List.iter
    (fun table_name ->
      let table = Result.get_ok (Database.find_table db table_name) in
      List.iter
        (fun fk ->
          let parent = fk.Table.references_table in
          let fname = Qname.make ~uri ("get" ^ table_name) in
          let arg_var = "arg" in
          let row_var = "row" in
          let conditions =
            List.map2
              (fun child_col parent_col ->
                Cexpr.Binop
                  ( Cexpr.V_eq,
                    Cexpr.Data
                      (Cexpr.Child (Cexpr.Var row_var, Qname.local child_col)),
                    Cexpr.Data
                      (Cexpr.Child (Cexpr.Var arg_var, Qname.local parent_col))
                  ))
              fk.Table.fk_columns fk.Table.references_columns
          in
          let pred =
            match conditions with
            | [] -> Cexpr.Const (Atomic.Boolean true)
            | first :: rest ->
              List.fold_left
                (fun acc c -> Cexpr.Binop (Cexpr.And, Cexpr.Ebv acc, Cexpr.Ebv c))
                first rest
          in
          let body =
            Cexpr.Flwor
              { clauses =
                  [ Cexpr.For
                      { var = row_var;
                        source =
                          Cexpr.Call
                            { fn = table_function_name ~uri table_name;
                              args = [] } };
                    Cexpr.Where (Cexpr.Ebv pred) ];
                return_ = Cexpr.Var row_var }
          in
          add_function t
            { fd_name = fname;
              fd_params = [ (arg_var, Stype.one (row_stype db parent)) ];
              fd_return = Stype.star (row_stype db table_name);
              fd_impl = Body body;
              fd_kind = Navigate;
              fd_cacheable = false;
              fd_pragmas =
                [ ("kind", "navigate");
                  ("connection", db.Database.db_name);
                  ("sourceTable", parent);
                  ("targetTable", table_name) ] };
          (* attach the navigation method to the parent's data service *)
          let ds_name = Printf.sprintf "%s.%s" db.Database.db_name parent in
          match find_data_service t ds_name with
          | Some ds ->
            if not (List.exists (Qname.equal fname) ds.ds_functions) then
              add_data_service t
                { ds with ds_functions = ds.ds_functions @ [ fname ] }
          | None -> ())
        table.Table.foreign_keys)
    tables

let introspect_service t ?(uri = "") (service : Web_service.t) =
  List.iter
    (fun (op : Web_service.operation) ->
      let fname = Qname.make ~uri op.Web_service.op_name in
      let input_item = stype_of_schema op.Web_service.input_schema in
      let output_item = stype_of_schema op.Web_service.output_schema in
      add_function t
        { fd_name = fname;
          fd_params = [ ("request", Stype.one input_item) ];
          fd_return = Stype.one output_item;
          fd_impl =
            External (Service_op { service; operation = op.Web_service.op_name });
          fd_kind = Read;
          fd_cacheable = false;
          fd_pragmas =
            [ ("kind", "read");
              ("wsdl", service.Web_service.wsdl_url);
              ("service", service.Web_service.service_name);
              ("operation", op.Web_service.op_name) ] };
      add_schema t op.Web_service.input_schema;
      add_schema t op.Web_service.output_schema)
    service.Web_service.operations;
  add_data_service t
    { ds_name = service.Web_service.service_name;
      ds_shape =
        (match service.Web_service.operations with
        | op :: _ -> Some op.Web_service.output_schema
        | [] -> None);
      ds_functions =
        List.map
          (fun op -> Qname.make ~uri op.Web_service.op_name)
          service.Web_service.operations;
      ds_lineage_provider = None }

let register_custom_function t (fn : Custom_function.t) =
  Custom_function.register t.custom ~name:fn.Custom_function.fn_name
    ~params:fn.Custom_function.param_types
    ~returns:fn.Custom_function.return_type fn.Custom_function.body;
  add_function t
    { fd_name = fn.Custom_function.fn_name;
      fd_params =
        List.mapi
          (fun i ty -> (Printf.sprintf "p%d" i, Stype.atomic ty))
          fn.Custom_function.param_types;
      fd_return = Stype.opt (Stype.It_atomic fn.Custom_function.return_type);
      fd_impl = External (External_custom t.custom);
      fd_kind = Library;
      fd_cacheable = false;
      fd_pragmas = [ ("kind", "javaFunction") ] }

let introspect_procedure t ?(uri = "") db (proc : Procedure.t) =
  add_database t db;
  let fname = Qname.make ~uri proc.Procedure.proc_name in
  let row_name = Qname.local (proc.Procedure.proc_name ^ "_ROW") in
  let params =
    List.map
      (fun (p, ty) -> (p, Stype.opt (Stype.It_atomic (Table.atomic_type_of_sql ty))))
      proc.Procedure.proc_params
  in
  let columns, fd_return =
    match proc.Procedure.result with
    | Procedure.Returns_scalar ty ->
      (None, Stype.opt (Stype.It_atomic (Table.atomic_type_of_sql ty)))
    | Procedure.Returns_rows cols ->
      let columns =
        List.map (fun (c, ty) -> (c, Table.atomic_type_of_sql ty)) cols
      in
      let content =
        { Stype.items =
            List.map
              (fun (c, ty) ->
                Stype.element ~simple:ty (Some (Qname.local c)))
              columns;
          occ = Stype.occ_star }
      in
      (Some columns, Stype.star (Stype.element ~content (Some row_name)))
  in
  add_function t
    { fd_name = fname;
      fd_params = params;
      fd_return;
      fd_impl =
        External
          (Stored_procedure
             { db; procedure = proc.Procedure.proc_name; row_name; columns });
      fd_kind = Read;
      fd_cacheable = false;
      fd_pragmas =
        [ ("kind", "read");
          ("connection", db.Database.db_name);
          ("storedProcedure", proc.Procedure.proc_name) ] }

(* Registers the validated documents [docs] as the read function
   [fname] of a data service [name] whose pragmas name their [source]. *)
let register_docs t ~fname ~name ~schema ~source docs =
  add_schema t schema;
  add_function t
    { fd_name = fname;
      fd_params = [];
      fd_return = Stype.star (stype_of_schema schema);
      fd_impl = External (File_docs docs);
      fd_kind = Read;
      fd_cacheable = false;
      fd_pragmas = [ ("kind", "read"); ("source", source) ] };
  add_data_service t
    { ds_name = name;
      ds_shape = Some schema;
      ds_functions = [ fname ];
      ds_lineage_provider = None };
  Ok ()

let register_csv_source t ?uri ~name ~schema ?separator ?header text =
  match Csv_source.load ~schema ?separator ?header text with
  | Error _ as e -> e
  | Ok docs ->
    (* rows are already validated; register them directly *)
    register_docs t ~fname:(Qname.make ?uri name) ~name ~schema ~source:"csv"
      docs

let register_file_source t ?(uri = "") ~name ~schema docs =
  let rec validate_all acc = function
    | [] -> Ok (List.rev acc)
    | doc :: rest -> (
      match Schema.validate schema doc with
      | Ok typed -> validate_all (typed :: acc) rest
      | Error msg -> Error (Printf.sprintf "file source %s: %s" name msg))
  in
  match validate_all [] docs with
  | Error _ as e -> e
  | Ok typed_docs ->
    register_docs t ~fname:(Qname.make ~uri name) ~name ~schema
      ~source:"file" typed_docs
