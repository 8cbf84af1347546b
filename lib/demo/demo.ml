open Aldsp_xml
open Aldsp_relational
open Aldsp_services
open Aldsp_core
module V = Sql_value

type t = {
  customer_db : Database.t;
  card_db : Database.t;
  rating_service : Web_service.t;
  registry : Metadata.t;
  server : Server.t;
}

let last_names =
  [| "Jones"; "Smith"; "Chen"; "Garcia"; "Okafor"; "Patel"; "Kim"; "Novak" |]

let first_names = [| "Ann"; "Bob"; "Carla"; "Dev"; "Elena"; "Farid" |]

let profile_data_service_source =
  {|declare namespace ext = "urn:external";
(::pragma function kind="read" ::)
declare function getProfile() as element(PROFILE)* {
  for $CUSTOMER in CUSTOMER()
  return
    <PROFILE>
      <CID>{fn:data($CUSTOMER/CID)}</CID>
      <LAST_NAME>{fn:data($CUSTOMER/LAST_NAME)}</LAST_NAME>
      <FIRST_NAME?>{fn:data($CUSTOMER/FIRST_NAME)}</FIRST_NAME>
      <SINCE>{ext:int2date($CUSTOMER/SINCE)}</SINCE>
      <ORDERS>{ getORDER_T($CUSTOMER) }</ORDERS>
      <CREDIT_CARDS>{ CREDIT_CARD()[CID eq $CUSTOMER/CID] }</CREDIT_CARDS>
      <RATING>{
        fn:data(getRating(
          <getRating>
            <lName>{data($CUSTOMER/LAST_NAME)}</lName>
            <ssn>{data($CUSTOMER/SSN)}</ssn>
          </getRating>)/getRatingResult)
      }</RATING>
    </PROFILE>
};
(::pragma function kind="read" ::)
declare function getProfileByID($id as xs:string) as element(PROFILE)* {
  getProfile()[CID eq $id]
};
(::pragma function kind="read" ::)
declare function getCustomerNames() as element(NAME)* {
  for $c in CUSTOMER()
  return <NAME>{fn:data($c/LAST_NAME)}</NAME>
};|}

(* The Figure 3 tables; each call builds a fresh, empty table. *)
let customer_table () =
  Table.create ~primary_key:[ "CID" ] "CUSTOMER"
    [ Table.column ~nullable:false "CID" Table.T_varchar;
      Table.column ~nullable:false "LAST_NAME" Table.T_varchar;
      Table.column "FIRST_NAME" Table.T_varchar;
      Table.column ~nullable:false "SSN" Table.T_varchar;
      Table.column ~nullable:false "SINCE" Table.T_int ]

let order_table () =
  Table.create ~primary_key:[ "OID" ]
    ~foreign_keys:
      [ { Table.fk_columns = [ "CID" ];
          references_table = "CUSTOMER";
          references_columns = [ "CID" ] } ]
    "ORDER_T"
    [ Table.column ~nullable:false "OID" Table.T_int;
      Table.column ~nullable:false "CID" Table.T_varchar;
      Table.column "AMOUNT" Table.T_decimal ]

let card_table () =
  Table.create ~primary_key:[ "CCID" ] "CREDIT_CARD"
    [ Table.column ~nullable:false "CCID" Table.T_int;
      Table.column ~nullable:false "CID" Table.T_varchar;
      Table.column ~nullable:false "NUM" Table.T_varchar;
      Table.column "LIMIT_" Table.T_decimal ]

let make_customer_db ~customers ~orders_per_customer ~latency =
  let db =
    Database.create ~vendor:Database.Oracle ~roundtrip_latency:latency
      "CustomerDB"
  in
  let customer = customer_table () in
  let order_ = order_table () in
  Database.add_table db customer;
  Database.add_table db order_;
  for i = 1 to customers do
    let cid = Printf.sprintf "CUST%04d" i in
    let first =
      (* every 7th customer has no first name: ragged data *)
      if i mod 7 = 0 then V.Null
      else V.Str first_names.(i mod Array.length first_names)
    in
    Result.get_ok
      (Table.insert customer
         [| V.Str cid;
            V.Str last_names.(i mod Array.length last_names);
            first;
            V.Str (Printf.sprintf "%03d-%02d-%04d" i (i mod 100) (i * 13 mod 10000));
            V.Int (i * 86400) |]);
    for j = 1 to orders_per_customer do
      Result.get_ok
        (Table.insert order_
           [| V.Int ((i * 1000) + j);
              V.Str cid;
              V.Float (float_of_int ((i + j) * 10)) |])
    done
  done;
  db

let make_card_db ~customers ~cards_per_customer ~latency =
  let db =
    Database.create ~vendor:Database.Sql_server ~roundtrip_latency:latency
      "CardDB"
  in
  let card = card_table () in
  Database.add_table db card;
  for i = 1 to customers do
    for j = 1 to cards_per_customer do
      Result.get_ok
        (Table.insert card
           [| V.Int ((i * 100) + j);
              V.Str (Printf.sprintf "CUST%04d" i);
              V.Str (Printf.sprintf "4400-%04d-%04d" i j);
              V.Float (float_of_int (1000 * j)) |])
    done
  done;
  db

let rating_request_schema =
  Schema.element_decl (Qname.local "getRating")
    (Schema.Complex
       [ Schema.particle (Schema.simple (Qname.local "lName") Atomic.T_string);
         Schema.particle (Schema.simple (Qname.local "ssn") Atomic.T_string) ])

let rating_response_schema =
  Schema.element_decl (Qname.local "getRatingResponse")
    (Schema.Complex
       [ Schema.particle
           (Schema.simple (Qname.local "getRatingResult") Atomic.T_integer) ])

let make_rating_service ~latency =
  let implementation request =
    let ssn =
      match Node.child_elements request (Qname.local "ssn") with
      | [ n ] -> Node.string_value n
      | _ -> ""
    in
    (* pure function of the request, so any evaluation order agrees *)
    let rating = 500 + (Hashtbl.hash ssn mod 350) in
    Ok
      (Node.element (Qname.local "getRatingResponse")
         [ Node.element (Qname.local "getRatingResult")
             [ Node.text (string_of_int rating) ] ])
  in
  Web_service.create ~latency
    ~wsdl_url:"http://ratings.example.com/rate?wsdl" "RatingService"
    [ Web_service.operation ~name:"getRating" ~input:rating_request_schema
        ~output:rating_response_schema implementation ]

let create ?(customers = 20) ?(orders_per_customer = 3)
    ?(cards_per_customer = 1) ?(db_latency = 0.) ?(service_latency = 0.)
    ?function_cache ?security ?audit ?optimizer_options () =
  let customer_db =
    make_customer_db ~customers ~orders_per_customer ~latency:db_latency
  in
  let card_db =
    make_card_db ~customers ~cards_per_customer ~latency:db_latency
  in
  let rating_service = make_rating_service ~latency:service_latency in
  let registry = Metadata.create () in
  Metadata.introspect_relational registry customer_db;
  Metadata.introspect_relational registry card_db;
  Metadata.introspect_service registry rating_service;
  Custom_function.install_date_conversions (Metadata.custom_registry registry);
  let register_conversion name param_ty return_ty =
    Metadata.add_function registry
      { Metadata.fd_name = name;
        fd_params = [ ("x", Stype.atomic param_ty) ];
        fd_return = Stype.atomic return_ty;
        fd_impl =
          Metadata.External
            (Metadata.External_custom (Metadata.custom_registry registry));
        fd_kind = Metadata.Library;
        fd_cacheable = false;
        fd_pragmas = [ ("kind", "javaFunction") ] }
  in
  register_conversion Custom_function.int2date Atomic.T_integer
    Atomic.T_date_time;
  register_conversion Custom_function.date2int Atomic.T_date_time
    Atomic.T_integer;
  Metadata.register_inverse registry ~f:Custom_function.int2date
    ~inverse:Custom_function.date2int;
  let server =
    Server.create ?optimizer_options ?function_cache ?security ?audit registry
  in
  (match
     Server.register_data_service server ~name:"ProfileDS"
       profile_data_service_source
   with
  | Ok () -> ()
  | Error ds ->
    failwith
      ("demo data service failed to register: "
      ^ String.concat "; " (List.map Diag.to_string ds)));
  { customer_db; card_db; rating_service; registry; server }

let reset_stats t =
  Database.reset_stats t.customer_db;
  Database.reset_stats t.card_db;
  Web_service.reset_stats t.rating_service
