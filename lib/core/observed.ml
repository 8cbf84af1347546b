open Aldsp_xml

type sample = {
  calls : int;
  mean_latency : float;
  mean_cardinality : float;
  total_latency : float;
}

type t = {
  samples : (Qname.t, sample) Hashtbl.t;
  lock : Mutex.t;
  (* async-orchestration counters (worker pool, PP-k pipelining) *)
  mutable roundtrips : int;
  mutable overlap_saved : float;
  mutable source_wall : float;
}

let create () =
  { samples = Hashtbl.create 32;
    lock = Mutex.create ();
    roundtrips = 0;
    overlap_saved = 0.;
    source_wall = 0. }

let locked t f =
  Mutex.lock t.lock;
  let r = f () in
  Mutex.unlock t.lock;
  r

let alpha = 0.2

let record t fn ~latency ~cardinality =
  let card = float_of_int cardinality in
  locked t (fun () ->
      let sample =
        match Hashtbl.find_opt t.samples fn with
        | None ->
          { calls = 1;
            mean_latency = latency;
            mean_cardinality = card;
            total_latency = latency }
        | Some s ->
          { calls = s.calls + 1;
            mean_latency =
              ((1. -. alpha) *. s.mean_latency) +. (alpha *. latency);
            mean_cardinality =
              ((1. -. alpha) *. s.mean_cardinality) +. (alpha *. card);
            total_latency = s.total_latency +. latency }
      in
      t.source_wall <- t.source_wall +. latency;
      Hashtbl.replace t.samples fn sample)

let record_roundtrip t ~wall =
  locked t (fun () ->
      t.roundtrips <- t.roundtrips + 1;
      t.source_wall <- t.source_wall +. wall)

let record_overlap t saved =
  if saved > 0. then
    locked t (fun () -> t.overlap_saved <- t.overlap_saved +. saved)

let observed t fn = locked t (fun () -> Hashtbl.find_opt t.samples fn)

let roundtrips t = locked t (fun () -> t.roundtrips)
let overlap_saved t = locked t (fun () -> t.overlap_saved)
let source_wall t = locked t (fun () -> t.source_wall)

(* per-item processing charge: 2us — small against any real source call,
   enough to order two in-memory sources by cardinality *)
let per_item_charge = 2e-6

let cost t fn =
  Option.map
    (fun s -> s.mean_latency +. (per_item_charge *. s.mean_cardinality))
    (observed t fn)

let report t =
  locked t (fun () ->
      Hashtbl.fold (fun fn s acc -> (fn, s) :: acc) t.samples [])
  |> List.sort (fun (_, a) (_, b) ->
         Float.compare b.mean_latency a.mean_latency)
