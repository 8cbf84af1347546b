open Aldsp_core

type config = {
  workers : int;
  ppk_k : int;
  ppk_prefetch : int;
  indexes : bool;
  cost_based : bool;
  spill : bool;
}

(* the subject's forced budget when [spill] is on: tiny, so even the
   shrunk scenarios' sorts overflow it and exercise the external sort *)
let spill_budget = 4

let generate_config st =
  { workers = 1 + Random.State.int st 6;
    ppk_k = [| 1; 2; 3; 5; 8 |].(Random.State.int st 5);
    ppk_prefetch = [| 0; 1; 2; 4 |].(Random.State.int st 4);
    indexes = Random.State.bool st;
    cost_based = Random.State.bool st;
    spill = Random.State.bool st }

let config_to_string c =
  Printf.sprintf "workers=%d k=%d prefetch=%d indexes=%b cost=%b spill=%b"
    c.workers c.ppk_k c.ppk_prefetch c.indexes c.cost_based c.spill

let config_of_string line =
  let f = Catalog.fields ~what:"config" line in
  (* absent in corpus lines that predate the knob: such scenarios ran
     with indexes unconditionally on *)
  let bool_field k ~default =
    Catalog.field ~default f k bool_of_string_opt
      ~invalid:(Printf.sprintf "%s is not a boolean: %s" k)
  in
  let ( let* ) = Result.bind in
  let* workers = Catalog.int_field f "workers" in
  let* ppk_k = Catalog.int_field f "k" in
  let* ppk_prefetch = Catalog.int_field f "prefetch" in
  let* indexes = bool_field "indexes" ~default:true in
  (* corpus lines predating cost-based selection ran with it on (the
     server default) *)
  let* cost_based = bool_field "cost" ~default:true in
  (* corpus lines predating the external sort ran with in-memory sorts *)
  let* spill = bool_field "spill" ~default:false in
  Ok { workers; ppk_k; ppk_prefetch; indexes; cost_based; spill }

(* one pool per worker count, shared by every scenario in the run: pools
   start threads lazily but never stop them, so per-scenario pools would
   leak a few threads each across a long fuzzing run *)
let pools : (int, Pool.t) Hashtbl.t = Hashtbl.create 4

let pool_for workers =
  match Hashtbl.find_opt pools workers with
  | Some p -> p
  | None ->
    let p = Pool.create ~workers () in
    Hashtbl.add pools workers p;
    p

let shutdown_pools () =
  Hashtbl.iter (fun _ p -> Pool.shutdown p) pools;
  Hashtbl.reset pools

let reference_server (cat : Catalog.t) = Server.reference cat.Catalog.registry

let subject_server ?function_cache (cat : Catalog.t) config =
  Server.create ?function_cache
    ~optimizer_options:
      { Optimizer.default_options with
        Optimizer.ppk_k = config.ppk_k;
        ppk_prefetch = config.ppk_prefetch;
        cost_based = config.cost_based;
        sort_budget_rows =
          (if config.spill then Some spill_budget
           else Optimizer.default_options.Optimizer.sort_budget_rows) }
    ~pool:(pool_for config.workers) cat.Catalog.registry

let run_serialized server q =
  Result.map Aldsp_xml.Item.serialize (Server.run server q)

(* ------------------------------------------------------------------ *)
(* The planted bug: drop the first Where clause of the plan            *)

let drop_first_where plan =
  let dropped = ref false in
  let strip_clauses clauses =
    List.filter
      (fun c ->
        match c with
        | Cexpr.Where _ when not !dropped ->
          dropped := true;
          false
        | _ -> true)
      clauses
  in
  let rec go e =
    if !dropped then e
    else
      match e with
      | Cexpr.Flwor { clauses; return_ }
        when List.exists
               (function Cexpr.Where _ -> true | _ -> false)
               clauses ->
        Cexpr.Flwor { clauses = strip_clauses clauses; return_ }
      | e -> Cexpr.map_children go e
  in
  let mutated = go plan in
  if !dropped then Some mutated else None

let run_mutated server q =
  match Server.compile server q with
  | Error ds ->
    Error
      ("compile failed: " ^ String.concat "; " (List.map Diag.to_string ds))
  | Ok compiled ->
    (* a plan with no Where clause cannot express the bug: evaluate it
       unchanged so such queries count as agreement, keeping the shrinker
       honest about *why* a mutated scenario fails *)
    let plan =
      match drop_first_where compiled.Server.plan with
      | Some mutated -> mutated
      | None -> compiled.Server.plan
    in
    let rt = Eval.runtime (Server.registry server) in
    Result.map Aldsp_xml.Item.serialize (Eval.eval rt plan)

(* ------------------------------------------------------------------ *)

let describe = function
  | Ok s -> "result: " ^ s
  | Error e -> "error: " ^ e

(* The backend access-path switch lives on the shared catalog databases,
   so it is toggled around each side's run: the reference always executes
   on scans and nested loops, the subject per its config. *)
let set_indexes (cat : Catalog.t) flag =
  List.iter
    (fun db -> Aldsp_relational.Database.set_use_indexes db flag)
    (Metadata.databases cat.Catalog.registry)

(* Plan-cache determinism: the second execution of the same query on the
   same server must hit the plan cache (zero new compilations — the
   generator never emits prolog functions, so the metadata generation is
   stable across runs) and serialize to the same bytes as the first. A
   [swap] text, the same call shape with another literal, must then run
   from the shape's plan, also with zero new compilations, and match its
   own reference result. *)
let recheck_cached ~prepare ?swap server q first =
  let misses_before = Server.plan_cache_misses server in
  prepare ();
  match run_serialized server q with
  | Error e -> Error (Printf.sprintf "cached re-run failed: %s" e)
  | Ok second ->
    if not (String.equal first second) then
      Error
        (Printf.sprintf "cached re-run diverged\nfirst  result: %s\nsecond result: %s"
           first second)
    else if Server.plan_cache_misses server <> misses_before then
      Error "cached re-run recompiled: expected a plan-cache hit"
    else
      match swap with
      | None -> Ok ()
      | Some (swapped, expected) -> (
        prepare ();
        let got = run_serialized server swapped in
        if Server.plan_cache_misses server <> misses_before then
          Error
            (Printf.sprintf
               "literal swap %s recompiled: expected its call shape's plan"
               swapped)
        else
          match (expected, got) with
          | Ok a, Ok b when String.equal a b -> Ok ()
          | Error a, Error b when String.equal a b -> Ok ()
          | _ ->
            Error
              (Printf.sprintf "literal swap %s diverged\nreference %s\nsubject   %s"
                 swapped (describe expected) (describe got)))

(* ------------------------------------------------------------------ *)
(* Concurrent serving-layer oracle: the serial reference answers each
   query first; then N session threads replay the whole list against ONE
   shared subject server through the admission-controlled front door
   (Server.submit), query i on session (i mod N). The queries are
   read-only, so whatever the interleaving, every concurrent answer must
   byte-match its serial one — and the admission counters must balance. *)

let compare_concurrent cat config ~sessions queries =
  let queries = Array.of_list queries in
  let n = Array.length queries in
  set_indexes cat false;
  let ref_server = reference_server cat in
  let expected = Array.map (run_serialized ref_server) queries in
  set_indexes cat config.indexes;
  (* one pass through a plain subject, then the same replay with
     cross-session work sharing (single-flight coalescing + batched
     dispatch) switched on: sharing must be invisible in results too *)
  let run_pass ~label subject =
    let results = Array.make n (Error "query never ran") in
    let worker sid =
      let ses = Server.session subject () in
      let i = ref sid in
      while !i < n do
        results.(!i) <-
          (match Server.session_run ses queries.(!i) with
          | Ok items -> Ok (Aldsp_xml.Item.serialize items)
          | Error e -> Error (Server.submit_error_to_string e));
        i := !i + sessions
      done
    in
    let threads = List.init sessions (fun sid -> Thread.create worker sid) in
    List.iter Thread.join threads;
    let adm = Server.admission_stats subject in
    let mismatch = ref None in
    Array.iteri
      (fun i got ->
        if !mismatch = None then
          match (expected.(i), got) with
          | Ok a, Ok b when String.equal a b -> ()
          | Error a, Error b when String.equal a b -> ()
          | exp, got ->
            mismatch :=
              Some
                (Printf.sprintf
                   "query %d (session %d) diverged under %d sessions%s\nquery: %s\nreference %s\nsubject   %s"
                   i (i mod sessions) sessions label queries.(i)
                   (describe exp) (describe got)))
      results;
    match !mismatch with
    | Some report -> Error report
    | None ->
      (* counter consistency: every submission admitted (the oracle never
         outruns the default queue) and completed; nothing left behind *)
      if adm.Server.ad_submitted <> n then
        Error
          (Printf.sprintf "admission%s: %d submitted, expected %d" label
             adm.Server.ad_submitted n)
      else if adm.Server.ad_rejected <> 0 then
        Error
          (Printf.sprintf "admission%s: %d queries rejected Overloaded" label
             adm.Server.ad_rejected)
      else if adm.Server.ad_deadline_aborts <> 0 then
        Error
          (Printf.sprintf "admission%s: %d deadline aborts without deadlines"
             label adm.Server.ad_deadline_aborts)
      else if adm.Server.ad_completed <> n || adm.Server.ad_active <> 0
              || adm.Server.ad_queued <> 0 then
        Error
          (Printf.sprintf
             "admission counters%s inconsistent: completed=%d active=%d queued=%d (submitted %d)"
             label adm.Server.ad_completed adm.Server.ad_active
             adm.Server.ad_queued n)
      else Ok ()
  in
  let plain = run_pass ~label:"" (subject_server cat config) in
  let outcome =
    match plain with
    | Error _ as e -> e
    | Ok () ->
      let shared_subject = subject_server cat config in
      Server.set_work_sharing shared_subject true;
      let r = run_pass ~label:" [work sharing]" shared_subject in
      (* the flag lives on the catalog's databases: restore so later
         scenarios (and the serial fault runs) stay share-free *)
      Server.set_work_sharing shared_subject false;
      (match r with
      | Error _ as e -> e
      | Ok () ->
        (* sharing bookkeeping must balance: every saved roundtrip is a
           coalesced statement or a batch merge *)
        let st = Server.stats shared_subject in
        if
          st.Server.st_dedup_roundtrips_saved
          <> st.Server.st_coalesced_hits + st.Server.st_batch_merges
          || st.Server.st_dedup_roundtrips_saved < 0
        then
          Error
            (Printf.sprintf
               "sharing counters inconsistent: saved=%d coalesced=%d merges=%d"
               st.Server.st_dedup_roundtrips_saved st.Server.st_coalesced_hits
               st.Server.st_batch_merges)
        else Ok ())
  in
  set_indexes cat true;
  outcome

(* Streaming differential: a successful scenario also runs through the
   streamed session path. Both runs go through the one emitter, so this
   checks its two sinks against each other: the items the building sink
   built, serialized by [serialize_items], must byte-match what the
   token sink and the chunk writer delivered through pulled chunks. *)
let check_streamed ~prepare server q items =
  let expected = Server.serialize_result server items in
  let ses = Server.session server () in
  prepare ();
  match Server.session_run_stream ses q with
  | Error e ->
    Error ("streamed run failed: " ^ Server.submit_error_to_string e)
  | Ok stream -> (
    let buf = Buffer.create 256 in
    match Server.stream_serialize stream (Buffer.add_string buf) with
    | Error e ->
      Error ("streamed delivery failed: " ^ Server.submit_error_to_string e)
    | Ok () ->
      let got = Buffer.contents buf in
      if String.equal expected got then Ok ()
      else
        Error
          (Printf.sprintf
             "streamed delivery diverged\nmaterialized: %s\nstreamed    : %s"
             expected got))

(* One subject's runs: the text, its cached re-run (and [swap]) and its
   streamed run. Returns the first run's bytes and the checks' verdict. *)
let run_subject ~prepare ?swap server q =
  match Server.run server q with
  | Ok items ->
    let first = Aldsp_xml.Item.serialize items in
    ( Ok first,
      Result.bind (recheck_cached ~prepare ?swap server q first) (fun () ->
          check_streamed ~prepare server q items) )
  | Error _ as e -> (e, Ok ())

(* [run_subject] on a fresh subject with getSummaryByID marked cacheable
   and a fresh function cache: the first run is a miss, which runs the
   function's call plan, and the re-run a hit. The mark is taken off
   again whatever happens. *)
let run_cacheable (cat : Catalog.t) config ~prepare q =
  let name = Aldsp_xml.Qname.make ~uri:"fn" "getSummaryByID" in
  let cache = Function_cache.create (Aldsp_relational.Database.create "C") in
  Function_cache.enable cache name ~ttl_seconds:3600.;
  let mark flag = Metadata.set_cacheable cat.Catalog.registry name flag in
  mark true;
  Fun.protect ~finally:(fun () -> mark false) @@ fun () ->
  prepare ();
  let server = subject_server ~function_cache:cache cat config in
  match run_subject ~prepare server q with
  | (Ok _ as r), Ok () when Function_cache.hits cache = 0 ->
    (r, Error "cacheable re-run was not a function-cache hit")
  | outcome -> outcome

(* Every evaluation starts from the same scripted rating-call schedule,
   so each side sees call n fail or succeed alike. *)
let compare_query cat config ?(mutate = false) ?(rating_faults = []) ?swap q =
  let script faults =
    if rating_faults <> [] then
      Aldsp_concurrency.Fault_schedule.set
        cat.Catalog.rating.Aldsp_services.Web_service.faults faults
  in
  let prepare () = script rating_faults in
  let reference, swap =
    set_indexes cat false;
    prepare ();
    let reference = run_serialized (reference_server cat) q in
    ( reference,
      Option.map
        (fun swapped ->
          prepare ();
          (swapped, run_serialized (reference_server cat) swapped))
        swap )
  in
  let subject, cached_check =
    set_indexes cat config.indexes;
    prepare ();
    let r, chk =
      if mutate then (run_mutated (subject_server cat config) q, Ok ())
      else
        match run_subject ~prepare ?swap (subject_server cat config) q with
        | r, Ok ()
          when r = reference && String.starts_with ~prefix:"getSummaryByID(" q
          ->
          run_cacheable cat config ~prepare q
        | outcome -> outcome
    in
    set_indexes cat true;
    script [];
    (r, chk)
  in
  match (reference, subject, cached_check) with
  | Ok a, Ok b, Ok () when String.equal a b -> Ok ()
  | Error a, Error b, Ok () when String.equal a b -> Ok ()
  | _, _, Error report -> Error report
  | _ ->
    Error
      (Printf.sprintf "reference %s\nsubject   %s" (describe reference)
         (describe subject))
