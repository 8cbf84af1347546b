(* aldsp_bench: the repository benchmark. One process runs one workload
   (see Workloads) as a closed loop of client threads with zero think
   time, each through its own [Server.session], for a fixed wall-clock
   time; checks every delivered result; and prints each metric as a JSON
   line, the last line being the run's summary.

     aldsp_bench --workload W --seed S --seconds T --trace 0|1
     aldsp_bench --compare BASELINE CANDIDATE

   --trace 0 reports the end-to-end metrics of BENCHMARK.json, with times
   corrected to a reference CPU speed (see Host); --trace 1
   reports its per-layer metrics, from a run whose first half is untraced
   and whose second half records a span around every public call an
   operation makes. Each run also writes a new results file (never
   overwriting one) and, when traced, a Chrome trace next to it. See
   README.md in this directory. *)

open Aldsp_core
open Aldsp_demo
module Node = Aldsp_xml.Node
module Atomic = Aldsp_xml.Atomic
module Token_stream = Aldsp_tokens.Token_stream
module Sdo = Aldsp_sdo.Sdo
module Submit = Aldsp_sdo.Submit
module Db = Aldsp_relational.Database

let now = Trace.now

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)

type kind = K_read | K_stream | K_write

type sample = {
  kind : kind;
  start : float;  (** When the API call was made. *)
  text : string;  (** The query text; the key, for a write. *)
  latency : float;  (** API call to last byte delivered. *)
  first_byte : float;
  digest : string;  (** MD5 of the delivered bytes; "" for a write. *)
  blocked : float;  (** Traced streams: time waiting in [stream_read]. *)
  peak_buffered : int;
  statements : int;  (** Writes: UPDATE statements submitted. *)
}

type ctx = {
  workload : Workloads.t;
  demo : Demo.t;
  server : Server.t;
  mutable plans : Layers.plans option;  (** Set while tracing. *)
}

type client = {
  id : int;
  session : Server.session;
  ops : Workloads.op array;
  mutable next : int;
  mutable last_read : (string * Node.t) option;
  written : (string, string) Hashtbl.t;  (** Key -> last LAST_NAME written. *)
  mutable writes : int;
  mutable samples : sample list;
  mutable failed : int;
  mutable errors : string list;
  mutable heap_peak : int;  (** Major heap words, sampled after each op. *)
  mutable trace : Trace.t option;
}

let fail cl msg =
  cl.failed <- cl.failed + 1;
  if List.length cl.errors < 5 then cl.errors <- msg :: cl.errors

let call cl name f =
  match cl.trace with
  | None -> f ()
  | Some tr -> Trace.time tr ~op:cl.next name f

(* A traced operation first calls [Server.compile] itself, so compile
   time (a plan-cache hit or a full compile) is split out of execution,
   which then hits the plan cache for the same text. *)
let traced_compile ctx cl text =
  match cl.trace, ctx.plans with
  | Some _, Some plans -> (
    let misses = Server.plan_cache_misses ctx.server in
    match call cl "Server.compile" (fun () -> Server.compile ctx.server text) with
    | Ok compiled ->
      Layers.observe plans text compiled
        ~missed:(Server.plan_cache_misses ctx.server > misses)
    | Error _ -> (* execution reports it *) ())
  | _ -> ()

(* [Server.stream_serialize] spelled out through the public calls it
   makes, timing how long the consumer waits in [Server.stream_read]. *)
let drain_timed st write blocked =
  let err = ref None in
  let dispenser () =
    let t0 = now () in
    let r = Server.stream_read st in
    blocked := !blocked +. (now () -. t0);
    match r with
    | Ok (Some token) -> Some token
    | Ok None -> None
    | Error e ->
      err := Some e;
      None
  in
  (try
     Seq.iter write
       (Token_stream.serialize_chunks (Seq.of_dispenser dispenser))
   with Invalid_argument m -> if !err = None then err := Some (Server.Failed m));
  match !err with None -> Ok () | Some e -> Error e

let sample ?(first_byte = 0.) ?(digest = "") ?(blocked = 0.) ?(peak_buffered = 0)
    ?(statements = 0) kind text ~t0 ~t1 =
  { kind; start = t0; text; latency = t1 -. t0;
    first_byte = (if first_byte > 0. then first_byte -. t0 else t1 -. t0);
    digest; blocked; peak_buffered; statements }

let exec ctx cl op =
  let t0 = now () in
  let done_ s =
    cl.samples <- s :: cl.samples;
    Option.iter
      (fun tr -> Trace.record tr ~op:cl.next ~parent:"" "op" t0 (t0 +. s.latency))
      cl.trace
  in
  match op with
  | Workloads.Read { text; key } -> (
    traced_compile ctx cl text;
    cl.last_read <- None;
    match
      call cl "Server.session_run" (fun () -> Server.session_run cl.session text)
    with
    | Error e -> fail cl (text ^ ": " ^ Server.submit_error_to_string e)
    | Ok items -> (
      let bytes =
        call cl "Server.serialize_result" (fun () ->
            Server.serialize_result ctx.server items)
      in
      let t1 = now () in
      let checked =
        match key with
        | None -> Ok ()
        | Some key ->
          Workloads.check_profile ~key
            ~last_name:(Hashtbl.find_opt cl.written key) items
          |> Result.map (fun p -> cl.last_read <- Some (key, p))
      in
      match checked with
      | Error m -> fail cl m
      | Ok () ->
        done_ (sample K_read text ~t0 ~t1 ~digest:(Digest.string bytes))))
  | Workloads.Stream text -> (
    traced_compile ctx cl text;
    match
      call cl "Server.session_run_stream" (fun () ->
          Server.session_run_stream cl.session text)
    with
    | Error e -> fail cl (text ^ ": " ^ Server.submit_error_to_string e)
    | Ok st -> (
      let buf = Buffer.create 65536 in
      let first = ref 0. in
      let write chunk =
        if !first = 0. then first := now ();
        Buffer.add_string buf chunk
      in
      let blocked = ref 0. in
      let r =
        match cl.trace with
        | None -> Server.stream_serialize st write
        | Some _ ->
          call cl "Server.stream_serialize" (fun () -> drain_timed st write blocked)
      in
      let t1 = now () in
      match r with
      | Error e -> fail cl (text ^ ": " ^ Server.submit_error_to_string e)
      | Ok () ->
        done_
          (sample K_stream text ~t0 ~t1 ~first_byte:!first
             ~digest:(Digest.string (Buffer.contents buf)) ~blocked:!blocked
             ~peak_buffered:(Server.stream_peak_buffered st))))
  | Workloads.Write key -> (
    match cl.last_read with
    | Some (k, profile) when k = key -> (
      cl.last_read <- None;
      let name = Printf.sprintf "W%d-%d" cl.id cl.writes in
      let sdo = Sdo.of_result ~ds_function:Workloads.profile_fn profile in
      match
        call cl "Sdo.set_field" (fun () ->
            Sdo.set_field sdo Workloads.last_name_path (Atomic.String name))
      with
      | Error m -> fail cl (key ^ ": " ^ m)
      | Ok () -> (
        match
          call cl "Submit.submit" (fun () ->
              Submit.submit (Server.registry ctx.server) [ sdo ])
        with
        | Error m -> fail cl (key ^ ": " ^ m)
        | Ok report ->
          let t1 = now () in
          cl.writes <- cl.writes + 1;
          Hashtbl.replace cl.written key name;
          done_
            (sample K_write key ~t0 ~t1
               ~statements:(List.length report.Submit.updates))))
    | _ -> fail cl (key ^ ": write without a preceding read of the key"))

(* ------------------------------------------------------------------ *)
(* Closed loop                                                         *)

type phase = {
  p_samples : sample list;
  p_attempted : int;
  p_failed : int;
  p_t0 : float;
  p_t1 : float;
  p_host : Host.t;  (** The probes that ran during the phase. *)
  p_heap_peak : int;
  p_spans : Trace.span list;
}

let run_phase ctx clients ~seconds ~traced =
  List.iter
    (fun (cl : client) ->
      cl.samples <- [];
      cl.failed <- 0;
      cl.heap_peak <- 0;
      cl.trace <- (if traced then Some (Trace.create cl.id) else None))
    clients;
  let starts = List.map (fun cl -> cl.next) clients in
  let sampler = Host.start () in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let loop (cl : client) =
    while now () < deadline do
      let op = cl.ops.(cl.next mod Array.length cl.ops) in
      (try exec ctx cl op
       with e -> fail cl ("exception: " ^ Printexc.to_string e));
      cl.next <- cl.next + 1;
      let heap = (Gc.quick_stat ()).Gc.heap_words in
      if heap > cl.heap_peak then cl.heap_peak <- heap
    done
  in
  List.iter Thread.join (List.map (Thread.create loop) clients);
  let t1 = now () in
  let host = Host.stop sampler in
  let sum f = List.fold_left (fun acc (cl : client) -> acc + f cl) 0 clients in
  let phase =
    { p_samples = List.concat_map (fun cl -> cl.samples) clients;
      p_attempted = List.fold_left2 (fun acc cl s -> acc + cl.next - s) 0 clients starts;
      p_failed = sum (fun cl -> cl.failed);
      p_t0 = t0;
      p_t1 = t1;
      p_host = host;
      p_heap_peak = List.fold_left (fun acc cl -> max acc cl.heap_peak) 0 clients;
      p_spans =
        List.concat_map
          (fun cl -> match cl.trace with Some tr -> tr.Trace.spans | None -> [])
          clients }
  in
  List.iter (fun (cl : client) -> cl.trace <- None) clients;
  phase

(* An operation's latency, or its time to the first byte, at the
   reference speed (see Host). *)
let at_reference (p : phase) s x =
  x *. Host.factor p.p_host ~t0:s.start ~t1:(s.start +. s.latency)

(* One set-up: load the data, then one warm-up operation per client (its
   first, always a read), so the first timed operation finds warm caches.
   Returns its time at the reference speed. *)
let setup workload ~seed =
  Host.timed_at_reference @@ fun () ->
  let demo = workload.Workloads.build ~seed in
  let ctx = { workload; demo; server = demo.Demo.server; plans = None } in
  let clients =
    List.init workload.Workloads.clients (fun id ->
        { id;
          session = Server.session ctx.server ();
          ops = workload.Workloads.ops ~seed ~client:id;
          next = 0; last_read = None; written = Hashtbl.create 64; writes = 0;
          samples = []; failed = 0; errors = []; heap_peak = 0;
          trace = None })
  in
  List.iter
    (fun cl ->
      exec ctx cl cl.ops.(0);
      if cl.failed > 0 then
        failwith ("warm-up failed: " ^ String.concat "; " cl.errors);
      cl.samples <- [])
    clients;
  (ctx, clients)

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let sorted l = Array.of_list (List.sort compare l)

(* nearest rank *)
let percentile p l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median l = percentile 0.5 l
let mean l = List.fold_left ( +. ) 0. l /. float_of_int (max 1 (List.length l))
let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* Correctness after timing                                            *)

type verdict = {
  mismatches : int;
  notes : string list;
  miss_compile : float list;  (** [Server.compile] seconds on a cold cache. *)
  verified : string list;  (** The texts re-run on the reference server. *)
}

(* Every delivery of a text must be byte-identical: the most frequent
   texts are re-run serially on a fresh default server over the same data
   and every recorded digest compared; a text not re-run must at least
   agree with its own first delivery. A write workload's reads were
   checked structurally as they ran; here each written key must hold the
   last value its owning client wrote. *)
let verify ctx clients samples =
  let counts = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.kind <> K_write then
        Hashtbl.replace counts s.text
          (1 + Option.value (Hashtbl.find_opt counts s.text) ~default:0))
    samples;
  let texts =
    Hashtbl.fold (fun t c acc -> (c, t) :: acc) counts []
    |> List.sort (fun (c1, t1) (c2, t2) -> compare (c2, t1) (c1, t2))
    |> List.filteri (fun i _ -> i < 32)
    |> List.map snd
  in
  let fresh = Server.create (Server.registry ctx.server) in
  let notes = ref [] in
  let mismatches = ref 0 in
  let miss mismatch_note =
    incr mismatches;
    if List.length !notes < 5 then notes := mismatch_note :: !notes
  in
  let miss_compile =
    List.map
      (fun text ->
        let t0 = now () in
        match Server.compile fresh text with
        | Ok _ -> now () -. t0
        | Error ds -> failwith (text ^ ": " ^ String.concat "; " (List.map Diag.to_string ds)))
      texts
  in
  if ctx.workload.Workloads.read_only then begin
    let reference = Hashtbl.create 64 in
    List.iter
      (fun text ->
        match Server.run fresh text with
        | Ok items ->
          Hashtbl.replace reference text
            (Digest.string (Server.serialize_result fresh items))
        | Error m -> miss (text ^ ": reference run failed: " ^ m))
      texts;
    List.iter
      (fun s ->
        match Hashtbl.find_opt reference s.text with
        | Some d when d = s.digest -> ()
        | Some _ -> miss (s.text ^ ": delivered bytes differ from the reference")
        | None -> Hashtbl.replace reference s.text s.digest)
      (List.rev samples)
  end
  else
    List.iter
      (fun cl ->
        Hashtbl.iter
          (fun key name ->
            match Workloads.stored_last_name ctx.demo key with
            | Some stored when stored = name -> ()
            | stored ->
              miss
                (Printf.sprintf "%s: stored LAST_NAME %s, last written %s" key
                   (Option.value stored ~default:"(none)") name))
          cl.written)
      clients;
  { mismatches = !mismatches; notes = List.rev !notes; miss_compile; verified = texts }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

type metric = { name : string; unit_ : string; value : float; samples : int }

let m name unit_ value samples = { name; unit_; value; samples }
let ms s = s *. 1000.

let end_to_end ~setups (p : phase) =
  let ok = List.length p.p_samples in
  let lat = List.map (fun s -> at_reference p s s.latency) p.p_samples in
  [ m "setup_s" "s" (median setups) (List.length setups);
    m "throughput_qps" "1/s"
      (float_of_int ok /. Host.wall_at_reference p.p_host ~t0:p.p_t0 ~t1:p.p_t1)
      ok;
    m "latency.p50_ms" "ms" (ms (percentile 0.5 lat)) ok;
    m "latency.p95_ms" "ms" (ms (percentile 0.95 lat)) ok;
    m "peak_heap_mb" "MB"
      (float_of_int (p.p_heap_peak * (Sys.word_size / 8)) /. 1048576.)
      ok ]

let per_layer ctx ~(untraced : phase) ~(traced : phase) ~(before : Layers.counters)
    ~(after : Layers.counters) ~pool ~(verdict : verdict) =
  let n = List.length traced.p_samples in
  let nf = float_of_int (max 1 n) in
  let span_sum name =
    List.fold_left
      (fun acc s -> if s.Trace.name = name then acc +. Trace.duration s else acc)
      0. traced.p_spans
  in
  let sample_sum f = List.fold_left (fun acc s -> acc +. f s) 0. traced.p_samples in
  let blocked = sample_sum (fun s -> s.blocked) in
  let op_sum = sample_sum (fun s -> s.latency) in
  let plans = Option.get ctx.plans in
  let pt = Layers.plan_totals plans (Server.registry ctx.server) in
  let ws_calls = after.ws_calls - before.ws_calls in
  let ws_wait =
    float_of_int ws_calls *. ctx.demo.rating_service.Aldsp_services.Web_service.latency
  in
  let compile = span_sum "Server.compile" in
  let execute =
    span_sum "Server.session_run" +. span_sum "Server.session_run_stream" +. blocked
  in
  (* Eval's self time is what execution leaves after backend regions and
     service waits, so the layers sum to the spans by construction. Region
     wall time is summed per statement, and prefetch can overlap
     statements with the join; once the overlap outgrows Eval's own work
     the split is wrong, and the run says so rather than report it. *)
  let eval_self = execute -. pt.region_wall -. ws_wait in
  if eval_self < 0. then
    failwith
      (Printf.sprintf
         "trace: backend regions and service waits (%.1f ms) exceed execution (%.1f ms); \
          their overlap cannot be attributed from outside"
         (ms (pt.region_wall +. ws_wait)) (ms execute));
  let engine = pt.region_wall -. pt.region_wait in
  let deliver =
    span_sum "Server.serialize_result" +. span_sum "Server.stream_serialize" -. blocked
  in
  let submit = span_sum "Sdo.set_field" +. span_sum "Submit.submit" in
  let layers = [ compile; eval_self; engine; pt.region_wait; ws_wait; deliver; submit ] in
  let share x = 100. *. ratio x op_sum in
  let per_op x = x /. nf in
  let db f = float_of_int (f after.backend - f before.backend) in
  let tokens = float_of_int (after.tokens - before.tokens) in
  let writes = List.filter (fun s -> s.kind = K_write) traced.p_samples in
  let alloc (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
  let texts = List.length verdict.verified in
  let hits = float_of_int plans.hits and misses = float_of_int plans.misses in
  let mean_at_reference (p : phase) =
    mean (List.map (fun s -> at_reference p s s.latency) p.p_samples)
  in
  let probes = Array.length untraced.p_host.Host.took in
  [ m "Server.first_byte.p50_ms" "ms"
      (ms
         (median
            (List.map (fun s -> at_reference untraced s s.first_byte) untraced.p_samples)))
      (List.length untraced.p_samples);
    m "Host.slowdown" "ratio" (Host.median_slowdown untraced.p_host) probes;
    m "Host.cpu_busy_pct" "%" (100. *. untraced.p_host.Host.busy) probes;
    m "trace.op_mean_ms" "ms" (ms (per_op op_sum)) n;
    m "trace.overhead_pct" "%"
      (100. *. ((mean_at_reference traced /. mean_at_reference untraced) -. 1.))
      n;
    m "trace.outside_spans_pct" "%"
      (100. *. ratio (Float.abs (op_sum -. List.fold_left ( +. ) 0. layers)) op_sum)
      n;
    m "Plan_cache.hit_ratio" "ratio" (ratio hits (hits +. misses)) (plans.hits + plans.misses);
    m "Server.compile.ms_per_op" "ms" (ms (per_op compile)) n;
    m "Server.compile.ms_per_miss" "ms" (ms (median verdict.miss_compile)) texts;
    m "Eval.self_ms_per_op" "ms" (ms (per_op eval_self)) n;
    m "Eval.result_rows_per_op" "count" (per_op (float_of_int pt.result_rows)) n;
    m "Eval.operator_rows_per_result_row" "ratio"
      (ratio (float_of_int pt.operator_rows) (float_of_int pt.result_rows)) n;
    m "Sql_exec.statements_per_op" "count" (per_op (db (fun s -> s.Db.statements))) n;
    m "Sql_exec.region_wall_ms_per_op" "ms" (ms (per_op pt.region_wall)) n;
    m "Database.engine_ms_per_op" "ms" (ms (per_op engine)) n;
    m "Database.latency_wait_ms_per_op" "ms" (ms (per_op pt.region_wait)) n;
    m "Database.rows_shipped_per_op" "count" (per_op (db (fun s -> s.Db.rows_shipped))) n;
    m "Database.rows_shipped_per_result_row" "ratio"
      (ratio (db (fun s -> s.Db.rows_shipped)) (float_of_int pt.result_rows)) n;
    m "Database.rows_scanned_per_op" "count" (per_op (db (fun s -> s.Db.rows_scanned))) n;
    m "Database.full_scans_per_op" "count" (per_op (db (fun s -> s.Db.full_scans))) n;
    m "Database.index_lookups_per_op" "count" (per_op (db (fun s -> s.Db.index_lookups))) n;
    m "Web_service.calls_per_op" "count" (per_op (float_of_int ws_calls)) n;
    m "Pool.submitted_per_op" "count"
      (per_op (float_of_int (after.pool_submitted - before.pool_submitted))) n;
    m "Pool.max_queue_depth" "count" (float_of_int pool.Pool.st_max_queue_depth) n;
    m "Pool.max_busy" "count" (float_of_int pool.Pool.st_max_busy) n;
    m "Token_stream.tokens_per_op" "count" (per_op tokens) n;
    m "Token_stream.serialize_ms_per_op" "ms" (ms (per_op deliver)) n;
    m "Token_stream.ns_per_token" "ns" (1e9 *. ratio deliver tokens) n;
    m "Spsc.peak_buffered_tokens" "count"
      (float_of_int
         (List.fold_left (fun acc s -> max acc s.peak_buffered) 0 traced.p_samples))
      n;
    m "Submit.writes_per_op" "count" (per_op (float_of_int (List.length writes))) n;
    m "Submit.statements_per_write" "count"
      (ratio
         (float_of_int (List.fold_left (fun acc s -> acc + s.statements) 0 writes))
         (float_of_int (List.length writes)))
      (List.length writes);
    m "Gc.alloc_words_per_op" "words" (per_op (alloc after.gc -. alloc before.gc)) n;
    m "Gc.major_collections" "count"
      (float_of_int (after.gc.major_collections - before.gc.major_collections)) n;
    m "Server.compile.share_pct" "%" (share compile) n;
    m "Eval.share_pct" "%" (share eval_self) n;
    m "Database.engine_share_pct" "%" (share engine) n;
    m "Database.latency_wait_share_pct" "%" (share pt.region_wait) n;
    m "Web_service.wait_share_pct" "%" (share ws_wait) n;
    m "Token_stream.share_pct" "%" (share deliver) n;
    m "Server.stream_read_share_pct" "%" (share blocked) n;
    m "Submit.share_pct" "%" (share submit) n ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* The commit the run measured, read from .git without running git; a
   checkout that is not a repository reports "norev". *)
let git_rev () =
  let read path = try Some (String.trim (Json.read_file path)) with Sys_error _ -> None in
  let hash =
    match read ".git/HEAD" with
    | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read (".git/" ^ r) with
      | Some h -> Some h
      | None ->
        Option.bind (read ".git/packed-refs") (fun packed ->
            List.find_map
              (fun line ->
                match String.split_on_char ' ' line with
                | [ h; name ] when name = r -> Some h
                | _ -> None)
              (String.split_on_char '\n' packed)))
    | other -> other
  in
  match hash with
  | Some h when String.length h >= 12 -> String.sub h 0 12
  | _ -> "norev"

let timestamp () =
  let t = Unix.gettimeofday () in
  let g = Unix.gmtime t in
  Printf.sprintf "%04d%02d%02dT%02d%02d%02d.%03dZ" (g.tm_year + 1900) (g.tm_mon + 1)
    g.tm_mday g.tm_hour g.tm_min g.tm_sec
    (int_of_float (Float.rem t 1. *. 1000.))

(* A fresh results file: exclusive creation, so no run overwrites another. *)
let open_results dir stem =
  mkdir_p dir;
  let rec attempt i =
    let path =
      Filename.concat dir (if i = 0 then stem ^ ".jsonl" else Printf.sprintf "%s.%d.jsonl" stem i)
    in
    match open_out_gen [ Open_wronly; Open_creat; Open_excl; Open_binary ] 0o644 path with
    | oc -> (path, oc)
    | exception Sys_error _ when Sys.file_exists path -> attempt (i + 1)
  in
  attempt 0

let check_against_spec (spec : Spec.t) ~traced metrics =
  let expected = if traced then spec.per_layer else spec.end_to_end in
  let problems =
    List.filter_map
      (fun (e : Spec.metric) ->
        match List.find_opt (fun x -> x.name = e.name) metrics with
        | None -> Some (e.name ^ " not measured")
        | Some x when x.unit_ <> e.unit_ ->
          Some (Printf.sprintf "%s measured in %s, BENCHMARK.json says %s" e.name x.unit_ e.unit_)
        | Some x when not (Float.is_finite x.value) -> Some (e.name ^ " is not finite")
        | Some _ -> None)
      expected
    @ List.filter_map
        (fun x ->
          if List.exists (fun (e : Spec.metric) -> e.name = x.name) expected then None
          else Some (x.name ^ " is not listed in BENCHMARK.json"))
        metrics
  in
  if problems <> [] then failwith (String.concat "; " problems)

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

type args = { workload : string; seed : int; seconds : float; traced : bool }

let usage =
  "aldsp_bench --workload W --seed N --seconds T --trace 0|1\n\
   aldsp_bench --compare BASELINE CANDIDATE  (each a .jsonl file or a \
   directory of them)\n\
   Run from the repository root: BENCHMARK.json is read from there and \
   results are written under bench/suite/results/runs."

let parse_args argv =
  let rec go a = function
    | "--workload" :: w :: rest -> go { a with workload = w } rest
    | "--seed" :: s :: rest -> go { a with seed = int_of_string s } rest
    | "--seconds" :: s :: rest -> go { a with seconds = float_of_string s } rest
    | "--trace" :: ("0" | "1" as t) :: rest -> go { a with traced = t = "1" } rest
    | [] -> a
    | x :: _ -> failwith ("unexpected argument " ^ x ^ "\n" ^ usage)
  in
  let a = go { workload = ""; seed = 1; seconds = 10.; traced = false } argv in
  if a.workload = "" then failwith usage;
  if a.seconds <= 0. then failwith "--seconds must be positive";
  a

(* Prints every metric as a JSON line, then the summary line, and writes
   the same lines to a fresh results file (plus the Chrome trace of a
   traced run). *)
let report a ~phases ~(verdict : verdict) clients metrics =
  let attempted = List.fold_left (fun acc p -> acc + p.p_attempted) 0 phases in
  let failed =
    List.fold_left (fun acc p -> acc + p.p_failed) 0 phases + verdict.mismatches
  in
  List.iter
    (fun cl -> List.iter (fun e -> prerr_endline ("failed: " ^ e)) (List.rev cl.errors))
    clients;
  List.iter (fun e -> prerr_endline ("failed: " ^ e)) verdict.notes;
  let rev = git_rev () in
  let stem = Printf.sprintf "%s-%d-%s-%s" a.workload a.seed rev (timestamp ()) in
  let path, oc = open_results "bench/suite/results/runs" stem in
  let emit line =
    print_endline line;
    output_string oc (line ^ "\n")
  in
  List.iter
    (fun x ->
      emit
        (Json.to_string
           (Json.Obj
              [ ("workload", Json.Str a.workload);
                ("seed", Json.Num (float_of_int a.seed));
                ("rev", Json.Str rev);
                ("trace", Json.Num (if a.traced then 1. else 0.));
                ("seconds", Json.Num a.seconds);
                ("metric", Json.Str x.name);
                ("unit", Json.Str x.unit_);
                ("value", Json.Num x.value);
                ("samples", Json.Num (float_of_int x.samples)) ])))
    metrics;
  if a.traced then begin
    let trace_path = Filename.remove_extension path ^ ".trace.json" in
    let spans = List.concat_map (fun p -> p.p_spans) phases in
    let origin = List.fold_left (fun acc s -> Float.min acc s.Trace.t0) infinity spans in
    Trace.write_chrome trace_path ~origin spans;
    (* the trace must load: parse it back *)
    (try ignore (Json.parse (Json.read_file trace_path))
     with Json.Parse_error m -> failwith (trace_path ^ ": " ^ m))
  end;
  emit
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Num (float_of_int attempted));
            ("failed", Json.Num (float_of_int failed));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun x ->
                     (x.name, Json.Obj [ ("value", Json.Num x.value); ("unit", Json.Str x.unit_) ]))
                   metrics) ) ]));
  close_out oc;
  if failed > 0 then exit 1

(* Set-ups per run; setup_s is their median. *)
let setups_per_run = 5

let run a =
  let spec = Spec.load "BENCHMARK.json" in
  let workload =
    match Workloads.find a.workload with
    | Some w when List.mem w.Workloads.name spec.workloads -> w
    | _ ->
      failwith
        (Printf.sprintf "unknown workload %s (BENCHMARK.json lists %s)" a.workload
           (String.concat ", " spec.workloads))
  in
  let rec setups acc =
    let dt, ctx_clients = setup workload ~seed:a.seed in
    if List.length acc + 1 = setups_per_run then (dt :: acc, ctx_clients)
    else begin
      Gc.compact ();
      setups (dt :: acc)
    end
  in
  let setup_times, (ctx, clients) = setups [] in
  let phases, verdict, metrics =
    if not a.traced then begin
      let p = run_phase ctx clients ~seconds:a.seconds ~traced:false in
      let verdict = verify ctx clients p.p_samples in
      ([ p ], verdict, end_to_end ~setups:setup_times p)
    end
    else begin
      let untraced = run_phase ctx clients ~seconds:(a.seconds /. 2.) ~traced:false in
      ctx.plans <- Some (Layers.plans ());
      Pool.reset_stats (Server.pool ctx.server);
      let before = Layers.counters ctx.server ctx.demo in
      let traced = run_phase ctx clients ~seconds:(a.seconds /. 2.) ~traced:true in
      let after = Layers.counters ctx.server ctx.demo in
      let pool = Pool.stats (Server.pool ctx.server) in
      let verdict = verify ctx clients (untraced.p_samples @ traced.p_samples) in
      ( [ untraced; traced ],
        verdict,
        per_layer ctx ~untraced ~traced ~before ~after ~pool ~verdict )
    end
  in
  check_against_spec spec ~traced:a.traced metrics;
  report a ~phases ~verdict clients metrics

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  try
    match argv with
    | "--compare" :: rest -> exit (Compare.main rest)
    | _ -> run (parse_args argv)
  with Failure m | Sys_error m ->
    prerr_endline ("aldsp_bench: " ^ m);
    exit 2
