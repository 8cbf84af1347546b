open Aldsp_xml
open Aldsp_relational
module Sql = Sql_ast
module Singleflight = Aldsp_concurrency.Singleflight

type t = {
  storage : Database.t;
  clock : unit -> float;
  ttls : (Qname.t, float) Hashtbl.t;
  (* typed values per key, so hits keep their type annotations; bounded:
     an evicted value falls back to the persistent row's XML (cold hit) *)
  materialized : Item.sequence Lru.t;
  (* one flight per key: concurrent misses coalesce on the computing
     session instead of both invoking the (expensive) function *)
  flights : Item.sequence Singleflight.t;
  (* worker-pool calls hit the cache concurrently: the lock covers the
     counters, the ttl/materialized tables, and makes store's
     DELETE+INSERT atomic with respect to concurrent lookups *)
  lock : Mutex.t;
  mutable hit_count : int;
  mutable miss_count : int;
  mutable coalesced_count : int;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let table_name = "ALDSP_FN_CACHE"

let ensure_table db =
  match Database.find_table db table_name with
  | Ok _ -> ()
  | Error _ ->
    Database.add_table db
      (Table.create ~primary_key:[ "FKEY" ] table_name
         [ Table.column ~nullable:false "FKEY" Table.T_varchar;
           Table.column ~nullable:false "RESULT" Table.T_varchar;
           Table.column ~nullable:false "EXPIRES" Table.T_decimal ])

let create ?(clock = Unix.gettimeofday) ?(capacity = 256) storage =
  ensure_table storage;
  { storage;
    clock;
    ttls = Hashtbl.create 16;
    materialized = Lru.create ~capacity;
    flights = Singleflight.create ();
    lock = Mutex.create ();
    hit_count = 0;
    miss_count = 0;
    coalesced_count = 0 }

let enable t fn ~ttl_seconds =
  locked t (fun () -> Hashtbl.replace t.ttls fn ttl_seconds)

let is_enabled t fn = locked t (fun () -> Hashtbl.mem t.ttls fn)

(* "<fn>(" then, per argument, its item count and each item as its type
   and length-prefixed text: no two argument lists share a key, so
   [("a", "b")] is not ["a b"] and [1] is not ["1"]. *)
let key_of fn args =
  let b = Buffer.create 64 in
  let text kind s = Printf.bprintf b "%s:%d:%s" kind (String.length s) s in
  Printf.bprintf b "%s(" (Qname.to_string fn);
  List.iter
    (fun items ->
      Printf.bprintf b "%d;" (List.length items);
      List.iter
        (function
          | Item.Atom a ->
            text (Atomic.type_name (Atomic.type_of a)) (Atomic.to_string a)
          | Item.Node n -> text "node" (Node.serialize n))
        items)
    args;
  Buffer.add_char b ')';
  Buffer.contents b

(* the single-row lookup of §5.5 *)
let select_entry =
  Sql.select
    ~projections:[ (Sql.col "c" "RESULT", "r"); (Sql.col "c" "EXPIRES", "e") ]
    ~where:(Sql.Binop (Sql.Eq, Sql.col "c" "FKEY", Sql.Param 1))
    (Sql.Table { table = table_name; alias = "c" })

(* [count:false] is the under-flight re-check in [wrapper]: the outer
   (counting) lookup already recorded the miss for this logical call, so
   the probe inside the flight must not count it again. *)
let lookup_probe ~count t fn args =
  let key = key_of fn args in
  locked t @@ fun () ->
  match
    Sql_exec.query t.storage ~params:[| Sql_value.Str key |] select_entry
  with
  | Error _ -> None
  | Ok { Sql_exec.rows = []; _ } ->
    if count then t.miss_count <- t.miss_count + 1;
    None
  | Ok { Sql_exec.rows = row :: _; _ } -> (
    let expires =
      match row.(1) with
      | Sql_value.Float f -> f
      | Sql_value.Int i -> float_of_int i
      | _ -> 0.
    in
    if t.clock () > expires then begin
      if count then t.miss_count <- t.miss_count + 1;
      None
    end
    else begin
      if count then t.hit_count <- t.hit_count + 1;
      match Lru.find t.materialized key with
      | Some _ as hit -> hit
      | None -> (
        (* cold hit (e.g. populated by another node, or evicted from the
           bounded typed-value table): rebuild from the serialized XML;
           atomics re-enter untyped *)
        match row.(0) with
        | Sql_value.Str text -> (
          match Xml_parser.parse_fragment text with
          | Ok nodes -> Some (List.map (fun n -> Item.Node n) nodes)
          | Error _ -> Some [ Item.Atom (Atomic.Untyped text) ])
        | _ -> None)
    end)

let lookup t fn args = lookup_probe ~count:true t fn args

let store t fn args value =
  let key = key_of fn args in
  locked t @@ fun () ->
  let ttl = Option.value (Hashtbl.find_opt t.ttls fn) ~default:60. in
  let expires = t.clock () +. ttl in
  ignore
    (Sql_exec.execute_dml t.storage
       (Sql.Delete
          { table = table_name;
            where =
              Some (Sql.Binop (Sql.Eq, Sql.Col (None, "FKEY"),
                               Sql.Lit (Sql_value.Str key))) }));
  ignore
    (Sql_exec.execute_dml t.storage
       (Sql.Insert
          { table = table_name;
            columns = [ "FKEY"; "RESULT"; "EXPIRES" ];
            values =
              [ Sql.Lit (Sql_value.Str key);
                Sql.Lit (Sql_value.Str (Item.serialize value));
                Sql.Lit (Sql_value.Float expires) ] }));
  (* bound the per-process typed-value table: evicting loses nothing but
     type annotations, since the persistent row still serves a cold hit *)
  ignore (Lru.add t.materialized key value)

(* An exact key prefix, not LIKE: a function name may hold [_], which
   LIKE reads as any character. *)
let invalidate t fn =
  let prefix = Qname.to_string fn ^ "(" in
  let key_prefix =
    Sql.Func
      ( Sql.Substr,
        [ Sql.Col (None, "FKEY");
          Sql.Lit (Sql_value.Int 1);
          Sql.Lit (Sql_value.Int (String.length prefix)) ] )
  in
  locked t @@ fun () ->
  ignore
    (Sql_exec.execute_dml t.storage
       (Sql.Delete
          { table = table_name;
            where =
              Some
                (Sql.Binop (Sql.Eq, key_prefix, Sql.Lit (Sql_value.Str prefix)))
          }));
  Lru.remove_if t.materialized (fun k _ -> String.starts_with ~prefix k)

let wrapper t fd args compute =
  let fn = fd.Metadata.fd_name in
  if fd.Metadata.fd_cacheable && is_enabled t fn then
    match lookup t fn args with
    | Some value -> value
    | None -> (
      (* single-flight around the miss: concurrent sessions missing on
         the same key coalesce on one computation instead of all
         invoking the function ("two concurrent misses both compute" is
         exactly the redundancy this kills). The leader re-checks the
         cache under the flight (without double-counting the miss): a
         store that landed between our lookup and the flight forming
         serves everyone without recomputing. *)
      match
        Singleflight.run t.flights (key_of fn args) (fun () ->
            match lookup_probe ~count:false t fn args with
            | Some value -> value
            | None ->
              let value = compute () in
              store t fn args value;
              value)
      with
      | Singleflight.Led value -> value
      | Singleflight.Joined value ->
        locked t (fun () -> t.coalesced_count <- t.coalesced_count + 1);
        value)
  else compute ()

let hits t = locked t (fun () -> t.hit_count)
let misses t = locked t (fun () -> t.miss_count)
let coalesced t = locked t (fun () -> t.coalesced_count)
let materialized_count t = locked t (fun () -> Lru.length t.materialized)
