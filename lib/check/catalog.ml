open Aldsp_xml
open Aldsp_relational
open Aldsp_services
open Aldsp_core
module Demo = Aldsp_demo.Demo
module V = Sql_value

type spec = {
  seed : int;
  main_vendor : Database.vendor;
  card_vendor : Database.vendor;
  customers : int;
  orders_per_customer : int;
  cards_per_customer : int;
  regions : int;
}

type t = {
  spec : spec;
  main_db : Database.t;
  card_db : Database.t;
  rating : Web_service.t;
  registry : Metadata.t;
}

let vendors =
  [| Database.Oracle; Database.Db2; Database.Sql_server; Database.Sybase;
     Database.Generic_sql92 |]

let vendor_to_string = function
  | Database.Oracle -> "oracle"
  | Database.Db2 -> "db2"
  | Database.Sql_server -> "sqlserver"
  | Database.Sybase -> "sybase"
  | Database.Generic_sql92 -> "sql92"

let vendor_of_string = function
  | "oracle" -> Some Database.Oracle
  | "db2" -> Some Database.Db2
  | "sqlserver" -> Some Database.Sql_server
  | "sybase" -> Some Database.Sybase
  | "sql92" -> Some Database.Generic_sql92
  | _ -> None

let pick st names = names.(Random.State.int st (Array.length names))

let region_names = [| "North"; "South"; "East"; "West"; "Centre"; "Rim" |]

(* Main-database dialect cycles with the seed so any run of five
   consecutive scenario seeds covers all five printers; everything else is
   drawn from the generator state. *)
let generate st ~seed =
  { seed;
    main_vendor = vendors.(abs seed mod Array.length vendors);
    card_vendor = pick st vendors;
    customers = 1 + Random.State.int st 9;
    orders_per_customer = Random.State.int st 4;
    cards_per_customer = Random.State.int st 3;
    regions = 1 + Random.State.int st 5 }

(* ------------------------------------------------------------------ *)

let view_source =
  {|(::pragma function kind="read" ::)
declare function getSummary() as element(SUMMARY)* {
  for $c in CUSTOMER()
  return
    <SUMMARY>
      <CID>{fn:data($c/CID)}</CID>
      <LAST_NAME>{fn:data($c/LAST_NAME)}</LAST_NAME>
      <TOTAL>{sum(for $o in ORDER_T() where $o/CID eq $c/CID return $o/AMOUNT)}</TOTAL>
    </SUMMARY>
};
(::pragma function kind="read" ::)
declare function getSummaryByID($id as xs:string) as element(SUMMARY)* {
  getSummary()[CID eq $id]
};|}

let region_schema =
  Schema.element_decl (Qname.local "REGION")
    (Schema.Complex
       [ Schema.particle (Schema.simple (Qname.local "CODE") Atomic.T_string);
         Schema.particle (Schema.simple (Qname.local "NAME") Atomic.T_string);
         Schema.particle (Schema.simple (Qname.local "POP") Atomic.T_integer) ])

let build spec =
  (* a private state derived from the recorded seed: build does not depend
     on the generator's state, so replay needs only the spec *)
  let st = Random.State.make [| spec.seed; 0x5eed |] in
  let main_db = Database.create ~vendor:spec.main_vendor "CustomerDB" in
  let customer = Demo.customer_table () in
  let order_ = Demo.order_table () in
  Database.add_table main_db customer;
  Database.add_table main_db order_;
  let oid = ref 0 in
  for i = 1 to spec.customers do
    let cid = Printf.sprintf "CUST%04d" i in
    let first =
      if Random.State.int st 5 = 0 then V.Null
      else V.Str (pick st Demo.first_names)
    in
    Result.get_ok
      (Table.insert customer
         [| V.Str cid;
            V.Str (pick st Demo.last_names);
            first;
            V.Str
              (Printf.sprintf "%03d-%02d-%04d" i
                 (Random.State.int st 100)
                 (Random.State.int st 10000));
            V.Int (1 + Random.State.int st 999999) |]);
    (* ragged: a customer has 0..orders_per_customer orders *)
    let n_orders =
      if spec.orders_per_customer = 0 then 0
      else Random.State.int st (spec.orders_per_customer + 1)
    in
    for _ = 1 to n_orders do
      incr oid;
      Result.get_ok
        (Table.insert order_
           [| V.Int (1000 + !oid);
              V.Str cid;
              V.Float (float_of_int (5 * (1 + Random.State.int st 100))) |])
    done
  done;
  let card_db = Database.create ~vendor:spec.card_vendor "CardDB" in
  let card = Demo.card_table () in
  Database.add_table card_db card;
  for i = 1 to spec.customers do
    for j = 1 to spec.cards_per_customer do
      Result.get_ok
        (Table.insert card
           [| V.Int ((i * 100) + j);
              V.Str (Printf.sprintf "CUST%04d" i);
              V.Str
                (Printf.sprintf "4400-%04d-%04d" i (Random.State.int st 10000));
              V.Float (float_of_int (500 * (1 + Random.State.int st 6))) |])
    done
  done;
  let rating = Demo.make_rating_service ~latency:0. in
  let registry = Metadata.create () in
  Metadata.introspect_relational registry main_db;
  Metadata.introspect_relational registry card_db;
  Metadata.introspect_service registry rating;
  let csv =
    let rows =
      List.init spec.regions (fun i ->
          Printf.sprintf "R%02d,%s,%d" (i + 1)
            (pick st region_names)
            (1 + Random.State.int st 100000))
    in
    String.concat "\n" ("CODE,NAME,POP" :: rows)
  in
  (match
     Metadata.register_csv_source registry ~name:"REGION"
       ~schema:region_schema csv
   with
  | Ok () -> ()
  | Error msg -> failwith ("check catalog: REGION source: " ^ msg));
  (* the view layer registers through a throwaway server over the shared
     registry; every server built on this registry sees the functions *)
  let setup = Server.reference registry in
  (match Server.register_data_service setup ~name:"SummaryDS" view_source with
  | Ok () -> ()
  | Error ds ->
    failwith
      ("check catalog: view registration failed: "
      ^ String.concat "; " (List.map Diag.to_string ds)));
  { spec; main_db; card_db; rating; registry }

(* ------------------------------------------------------------------ *)

let spec_to_string s =
  Printf.sprintf
    "seed=%d main=%s card=%s customers=%d orders=%d cards=%d regions=%d"
    s.seed
    (vendor_to_string s.main_vendor)
    (vendor_to_string s.card_vendor)
    s.customers s.orders_per_customer s.cards_per_customer s.regions

(* One-line [key=value] records: a spec here, an oracle configuration in
   Oracle. [what] prefixes every error. *)
type fields = { what : string; pairs : (string * string) list }

let fields ~what line =
  { what;
    pairs =
      List.filter_map
        (fun tok ->
          match String.index_opt tok '=' with
          | Some i ->
            Some
              ( String.sub tok 0 i,
                String.sub tok (i + 1) (String.length tok - i - 1) )
          | None -> None)
        (String.split_on_char ' ' (String.trim line)) }

let field ?default f k parse ~invalid =
  match (List.assoc_opt k f.pairs, default) with
  | Some v, _ -> (
    match parse v with
    | Some x -> Ok x
    | None -> Error (f.what ^ ": " ^ invalid v))
  | None, Some d -> Ok d
  | None, None -> Error (Printf.sprintf "%s: missing field %s" f.what k)

let int_field f k =
  field f k int_of_string_opt
    ~invalid:(Printf.sprintf "%s is not an integer: %s" k)

let spec_of_string line =
  let f = fields ~what:"spec" line in
  let vendor_field k =
    field f k vendor_of_string ~invalid:(Printf.sprintf "unknown vendor %s")
  in
  let ( let* ) = Result.bind in
  let* seed = int_field f "seed" in
  let* main_vendor = vendor_field "main" in
  let* card_vendor = vendor_field "card" in
  let* customers = int_field f "customers" in
  let* orders_per_customer = int_field f "orders" in
  let* cards_per_customer = int_field f "cards" in
  let* regions = int_field f "regions" in
  Ok
    { seed; main_vendor; card_vendor; customers; orders_per_customer;
      cards_per_customer; regions }
