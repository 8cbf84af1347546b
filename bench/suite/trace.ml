(* Spans recorded around the suite's calls into each layer's public API.
   Each client thread owns one recorder, so recording takes no lock; the
   spans stay in memory and are written once, at exit, as Chrome
   trace-event JSON (load it in chrome://tracing or Perfetto). *)

type span = {
  name : string;
  parent : string;  (** "op" for a call inside an operation, "" for the operation. *)
  client : int;
  op : int;  (** Operation id, unique within the client. *)
  t0 : float;
  t1 : float;
}

type t = { client : int; mutable spans : span list }

(* Seconds on the monotonic clock, at nanosecond resolution: compile
   phases last microseconds, below what [Unix.gettimeofday] resolves. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let create client = { client; spans = [] }

let record t ~op ~parent name t0 t1 =
  t.spans <- { name; parent; client = t.client; op; t0; t1 } :: t.spans

(* [time t ~op name f] runs [f] as a child of operation [op]. *)
let time t ~op name f =
  let t0 = now () in
  let r = f () in
  record t ~op ~parent:"op" name t0 (now ());
  r

let duration s = s.t1 -. s.t0

let write_chrome path ~origin spans =
  let us t = Json.Num ((t -. origin) *. 1e6) in
  let event s =
    Json.Obj
      [ ("name", Json.Str s.name);
        ("cat", Json.Str (if s.parent = "" then "op" else "call"));
        ("ph", Json.Str "X");
        ("ts", us s.t0);
        ("dur", Json.Num (duration s *. 1e6));
        ("pid", Json.Num 1.);
        ("tid", Json.Num (float_of_int s.client));
        ( "args",
          Json.Obj
            [ ("op", Json.Num (float_of_int s.op));
              ("parent", Json.Str s.parent) ] ) ]
  in
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      output_string oc (Json.to_string (event s)))
    spans;
  output_string oc "\n]}\n"
