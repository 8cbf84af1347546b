(* Per-layer measurement from outside the program: operator counters read
   per plan object, and backend / service / pool / server counters read
   as deltas. *)

open Aldsp_core
open Aldsp_relational

(* ------------------------------------------------------------------ *)
(* Operator counters, as deltas per distinct plan object               *)

(* Counters accumulate across runs and clients share cached plans, so
   each plan object is snapshotted when a client first receives it from
   [Server.compile] and read again at the end of the run. *)
type plans = {
  lock : Mutex.t;
  seen : (string, (Plan_ir.t * (int * float * int) array) list) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let plans () =
  { lock = Mutex.create (); seen = Hashtbl.create 64; hits = 0; misses = 0 }

let snapshot ir =
  Array.of_list
    (List.map
       (fun (_, c) -> (c.Plan_ir.c_rows, c.Plan_ir.c_wall, c.Plan_ir.c_roundtrips))
       (Plan_ir.operators ir))

(* [missed]: the plan-cache miss counter moved during the call. A miss
   also hands out a plan object nobody has seen, which keeps another
   client's concurrent miss from being counted against this call. *)
let observe p text (compiled : Server.compiled) ~missed =
  Mutex.lock p.lock;
  let known = Option.value (Hashtbl.find_opt p.seen text) ~default:[] in
  let fresh = not (List.exists (fun (ir, _) -> ir == compiled.ir) known) in
  if fresh then
    Hashtbl.replace p.seen text ((compiled.ir, snapshot compiled.ir) :: known);
  if missed && fresh then p.misses <- p.misses + 1 else p.hits <- p.hits + 1;
  Mutex.unlock p.lock

type plan_totals = {
  result_rows : int;  (** Root rows. *)
  operator_rows : int;  (** Rows summed over every operator. *)
  region_wall : float;  (** Seconds in pushed-SQL statement opens. *)
  region_wait : float;  (** Simulated roundtrip latency within that. *)
}

(* A pushed region renders as "sql[<db> dialect=...]". *)
let region_db label =
  let prefix = "sql[" in
  let n = String.length prefix in
  if String.length label > n && String.sub label 0 n = prefix then
    match String.index_from_opt label n ' ' with
    | Some stop -> Some (String.sub label n (stop - n))
    | None -> None
  else None

let plan_totals p registry =
  let acc =
    ref
      { result_rows = 0; operator_rows = 0; region_wall = 0.; region_wait = 0. }
  in
  Hashtbl.iter
    (fun _ objs ->
      List.iter
        (fun (ir, before) ->
          List.iteri
            (fun i (label, c) ->
              let rows0, wall0, rts0 = before.(i) in
              let a = !acc in
              let rows = c.Plan_ir.c_rows - rows0 in
              let a =
                { a with
                  operator_rows = a.operator_rows + rows;
                  result_rows = (if i = 0 then a.result_rows + rows else a.result_rows) }
              in
              acc :=
                match region_db label with
                | None -> a
                | Some db ->
                  let rts = c.Plan_ir.c_roundtrips - rts0 in
                  let latency =
                    match Metadata.find_database registry db with
                    | Some d -> d.Database.roundtrip_latency
                    | None -> failwith ("plan names unknown database " ^ db)
                  in
                  { a with
                    region_wall = a.region_wall +. c.Plan_ir.c_wall -. wall0;
                    region_wait = a.region_wait +. (float_of_int rts *. latency) })
            (Plan_ir.operators ir))
        objs)
    p.seen;
  !acc

(* ------------------------------------------------------------------ *)
(* Counters outside the plan                                           *)

type counters = {
  backend : Database.stats;
  ws_calls : int;
  tokens : int;
  pool_submitted : int;
  gc : Gc.stat;
}

let counters server (demo : Aldsp_demo.Demo.t) =
  let st = Server.stats server in
  { backend = st.Server.st_backend;
    ws_calls = demo.rating_service.Aldsp_services.Web_service.stats.calls;
    tokens = st.Server.st_tokens_streamed;
    pool_submitted = st.Server.st_pool.Pool.st_submitted;
    gc = Gc.quick_stat () }
