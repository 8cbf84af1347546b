(* The benchmark's workloads: the data each one loads and the operations
   each client issues. Everything seeded comes from --seed; the server
   under test only ever receives the generated query texts. *)

open Aldsp_relational
open Aldsp_demo
module Item = Aldsp_xml.Item
module Node = Aldsp_xml.Node
module Qname = Aldsp_xml.Qname
module V = Sql_value

type op =
  | Read of { text : string; key : string option }
      (** Materialized: [Server.session_run] then [Server.serialize_result].
          [key] is the profile the text asks for, checked structurally. *)
  | Stream of string
      (** Streamed: [Server.session_run_stream] drained to bytes. *)
  | Write of string
      (** Set this profile's LAST_NAME through an SDO read by the
          preceding [Read] of the same key, then [Submit.submit]. *)

type t = {
  name : string;
  clients : int;  (** Closed-loop client threads. *)
  build : seed:int -> Demo.t;
  ops : seed:int -> client:int -> op array;
      (** One client's operations, issued in order and cycled. *)
  read_only : bool;
      (** Results depend on the text alone, so every delivery of a text
          must be byte-identical to a reference server's. *)
}

let ops_per_client = 4096

let ok_exn = function Ok v -> v | Error m -> failwith m

let data_rng seed = Random.State.make [| seed; 0 |]
let client_rng seed client = Random.State.make [| seed; 1 + client |]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* Key popularity follows YCSB's request distribution (Cooper et al.,
   "Benchmarking Cloud Serving Systems with YCSB", SoCC 2010): Zipfian
   with YCSB's default constant 0.99, so rank r (0-based) has weight
   1/(r+1)^0.99. *)
let zipf_constant = 0.99

let zipf rng n =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for r = 0 to n - 1 do
    acc := !acc +. (1. /. (float_of_int (r + 1) ** zipf_constant));
    cdf.(r) <- !acc
  done;
  let total = !acc in
  fun () ->
    let u = Random.State.float rng total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) > u then hi := mid else lo := mid + 1
    done;
    !lo

(* ------------------------------------------------------------------ *)
(* Figure 3's profile service: CustomerDB + CardDB + the rating service *)

let profile_customers = 2000
let cid i = Printf.sprintf "CUST%04d" i
let profile_text key = Printf.sprintf "getProfileByID(%S)" key

let profile_build ~seed:_ =
  Demo.create ~customers:profile_customers ~orders_per_customer:3
    ~cards_per_customer:1 ~db_latency:0.0005 ~service_latency:0.001 ()

let read key = Read { text = profile_text key; key = Some key }

(* YCSB workload C, read only. Both clients draw from one popularity
   order, so they share hot keys. *)
let profile_lookup_ops ~seed ~client =
  let hot = shuffle (data_rng seed) (Array.init profile_customers (fun i -> cid (i + 1))) in
  let draw = zipf (client_rng seed client) profile_customers in
  Array.init ops_per_client (fun _ -> read hot.(draw ()))

(* YCSB workload F: half the requests read a record, half read it,
   modify it and write it back. An SDO update is exactly such a
   read-modify-write. Client [c] owns the customers whose index is [c]
   mod 2 and touches only those, so the last value it wrote to a key is
   the value its own later reads, and the final table, must show. *)
let profile_update_ops ~seed ~client =
  let rng = client_rng seed client in
  let owned =
    List.init profile_customers (fun i -> i + 1)
    |> List.filter (fun i -> i mod 2 = client)
    |> List.map cid |> Array.of_list |> shuffle rng
  in
  let draw = zipf rng (Array.length owned) in
  Array.of_list
    (List.concat
       (List.init ops_per_client (fun _ ->
            let key = owned.(draw ()) in
            if Random.State.bool rng then [ read key; Write key ]
            else [ read key ])))

(* ------------------------------------------------------------------ *)
(* §4.2: the PP-k cross-database join against a padded, indexed probe
   side *)

let ppk_text =
  "for $c in CUSTOMER(), $x in CREDIT_CARD() where $c/CID eq $x/CID return \
   <R>{$c/CID, $x/NUM}</R>"

let ppk_build ~seed =
  let customers = 200 and cards_per_customer = 5 and card_rows = 100_000 in
  let demo =
    Demo.create ~customers ~orders_per_customer:0 ~cards_per_customer
      ~db_latency:0.0005 ()
  in
  let cards = ok_exn (Database.find_table demo.Demo.card_db "CREDIT_CARD") in
  ok_exn (Table.create_index cards ~name:"card_cid" [ "CID" ]);
  (* padding rows match no customer, so the join result is fixed; their
     contents are drawn from the seed *)
  let rng = data_rng seed in
  let pad = card_rows - (customers * cards_per_customer) in
  ignore
    (ok_exn
       (Table.insert_many cards
          (List.init pad (fun i ->
               [| V.Int (1_000_000 + i);
                  V.Str (Printf.sprintf "PAD%06d" i);
                  V.Str
                    (Printf.sprintf "%04d-%04d-%04d" (Random.State.int rng 10000)
                       (Random.State.int rng 10000) (Random.State.int rng 10000));
                  (if Random.State.bool rng then V.Null
                   else V.Float (float_of_int (Random.State.int rng 5000))) |]))));
  demo

(* ------------------------------------------------------------------ *)
(* Large results through one pushed scan. 4000 rows keep a streamed
   operation near 100 ms, so a run collects enough of them for its p95.
   The roundtrip latency gives each operation a point where it blocks:
   without one, clients doing pure CPU work hand the runtime lock over
   only at the 50 ms tick, and the median swings with where ticks
   fall. *)

let bulk_text =
  "for $c in CUSTOMER() where $c/SINCE ge 1900 return \
   <R>{$c/CID}{$c/LAST_NAME}</R>"

let bulk_build ~seed:_ =
  Demo.create ~customers:4000 ~orders_per_customer:0 ~db_latency:0.0005 ()

let all =
  [ { name = "profile_lookup";
      clients = 2;
      build = profile_build;
      ops = profile_lookup_ops;
      read_only = true };
    { name = "ppk_join";
      clients = 2;
      build = ppk_build;
      ops = (fun ~seed:_ ~client:_ -> [| Read { text = ppk_text; key = None } |]);
      read_only = true };
    { name = "bulk_stream";
      clients = 2;
      build = bulk_build;
      ops = (fun ~seed:_ ~client:_ -> [| Stream bulk_text |]);
      read_only = true };
    { name = "bulk_materialize";
      (* Pure CPU work between one blocking point: with a second client
         on the same runtime lock, an operation's latency becomes a sum
         of the other client's whole operations, and p95 jumped between
         multiples of the operation time from run to run. *)
      clients = 1;
      build = bulk_build;
      ops = (fun ~seed:_ ~client:_ -> [| Read { text = bulk_text; key = None } |]);
      read_only = true };
    { name = "profile_update";
      clients = 2;
      build = profile_build;
      ops = profile_update_ops;
      read_only = false } ]

let find name = List.find_opt (fun w -> w.name = name) all

(* ------------------------------------------------------------------ *)
(* Correctness checks that need no reference run *)

let profile_fn = Qname.make ~uri:"fn" "getProfile"
let last_name_path = [ Qname.local "PROFILE"; Qname.local "LAST_NAME" ]

let child_text node name =
  match Node.child_elements node (Qname.local name) with
  | [ n ] -> Some (Node.string_value n)
  | _ -> None

(* A profile read returns exactly one PROFILE whose CID is the key asked
   for, and, when its owner has written the key, the last name written. *)
let check_profile ~key ~last_name items =
  match items with
  | [ Item.Node p ]
    when Option.fold ~none:false ~some:(Qname.equal (Qname.local "PROFILE"))
           (Node.name p) -> (
    match child_text p "CID", last_name with
    | Some c, _ when c <> key -> Error (Printf.sprintf "asked %s, got CID %s" key c)
    | None, _ -> Error (Printf.sprintf "%s: PROFILE without one CID" key)
    | Some _, None -> Ok p
    | Some _, Some expected -> (
      match child_text p "LAST_NAME" with
      | Some got when got = expected -> Ok p
      | got ->
        Error
          (Printf.sprintf "%s: LAST_NAME %s, last written %s" key
             (Option.value got ~default:"(none)") expected)))
  | _ ->
    Error
      (Printf.sprintf "%s: expected one PROFILE, got %d items" key
         (List.length items))

(* The stored LAST_NAME of a customer, read from the table directly. *)
let stored_last_name demo key =
  let t = ok_exn (Database.find_table demo.Demo.customer_db "CUSTOMER") in
  let col = Option.get (Table.column_index t "LAST_NAME") in
  let idx = Option.get (Table.pk_index t) in
  match Table.probe_index t idx [| V.Str key |] with
  | [ id ] -> (
    match Table.get_row t id with
    | Some row -> ( match row.(col) with V.Str s -> Some s | _ -> None)
    | None -> None)
  | _ -> None
