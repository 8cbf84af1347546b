open Aldsp_xml

type compiled = {
  source : string;
  plan : Cexpr.t;
  ir : Plan_ir.t;
  bindings : (Cexpr.var * Item.sequence) list;
  static_type : Stype.t;
  diagnostics : Diag.t list;
  sql : (string * string) list;
}

(* ------------------------------------------------------------------ *)
(* Admission control: a fixed number of executing slots plus a bounded
   wait queue. Queries execute on the submitting thread once admitted;
   beyond [max_queue] waiting submitters, new arrivals are rejected
   immediately ([Overloaded]) so an overloaded server sheds load instead
   of building an unbounded backlog (§5.4's "millions of users" posture:
   backpressure at the front door). *)

type admission = {
  adm_max_active : int;
  adm_max_queue : int;
  adm_mutex : Mutex.t;
  adm_slot_free : Condition.t;  (* a slot was released *)
  adm_idle : Condition.t;  (* active and waiting both reached zero *)
  mutable adm_active : int;
  mutable adm_waiting : int;
  mutable adm_draining : bool;
  (* counters *)
  mutable adm_submitted : int;
  mutable adm_admitted : int;
  mutable adm_rejected : int;
  mutable adm_completed : int;
  mutable adm_deadline_aborts : int;
  mutable adm_peak_active : int;
  mutable adm_peak_waiting : int;
}

type admission_stats = {
  ad_submitted : int;
  ad_admitted : int;
  ad_rejected : int;
  ad_completed : int;
  ad_deadline_aborts : int;
  ad_active : int;
  ad_queued : int;
  ad_peak_active : int;
  ad_peak_queued : int;
}

type submit_error =
  | Overloaded
  | Cancelled of string
  | Failed of string

let submit_error_to_string = function
  | Overloaded -> "overloaded: admission queue full"
  | Cancelled m -> m
  | Failed m -> m

(* A call shape's entry in the second cache level: the plan compiled with
   its lifted literals as variables, or the finding that some literal
   shaped that plan, so each text compiles with its literals inline. *)
type shape =
  | Lifted of compiled
  | Inline

(* A body cache entry: the view core view unfolding splices in (§4.2),
   and the call plan, lowered on the first call that runs the body (two
   racing first calls both lower it; either plan serves). *)
type body = { core : Cexpr.t; mutable call_plan : Plan_ir.t option }

type t = {
  registry : Metadata.t;
  options : Optimizer.options;
  plan_cache : compiled Plan_cache.t;  (* per query text *)
  shape_cache : shape Plan_cache.t;
  body_cache : body Plan_cache.t;  (* per function (name, arity) *)
  fingerprint : string;  (* of the optimizer options, fixed at creation *)
  compile_hits : int Stdlib.Atomic.t;
  compile_misses : int Stdlib.Atomic.t;
      (* [compile] calls that ran no compile pipeline / that ran it *)
  function_cache : Function_cache.t option;
  security : Security.t;
  audit : Audit.t;
  observed : Observed.t option;
  pool : Pool.t;
  mutable runtime : Eval.rt;  (* set by [make], around [body_cache] *)
  admission : admission;
  counter_lock : Mutex.t;
      (* guards the read-modify-write rollups below *)
  streamed_tokens : int ref;
  worst_misestimate : float ref;
      (* worst est-vs-actual cardinality ratio seen across executions *)
  spill_runs : int ref;
  spill_rows : int ref;
  spill_bytes : int ref;
  spill_peak_resident : int ref;
      (* external-sort rollup: totals (and peak resident rows) across
         every sort that spilled on this server *)
}

type stats = {
  st_plan_cache_hits : int;
  st_plan_cache_misses : int;
  st_function_cache_hits : int;
  st_function_cache_misses : int;
  st_pool : Pool.stats;
  st_roundtrips : int;  (** Middleware-issued source roundtrips (PP-k). *)
  st_overlap_saved : float;  (** Seconds of source latency hidden. *)
  st_source_wall : float;  (** Total wall time inside sources. *)
  st_tokens_streamed : int;
      (** Tokens delivered on every result path: serialized by
          {!serialize_result} or pulled through a streamed session. *)
  st_backend : Aldsp_relational.Database.stats;
      (** Operator counters (scans, index probes, join algorithms) summed
          over every registered database. *)
  st_max_misestimate : float;
      (** Worst per-operator est-vs-actual cardinality ratio across every
          execution so far; 1.0 when estimates held (or none applied). *)
  st_admission : admission_stats;
      (** Serving-layer counters: submissions, rejections, deadline
          aborts, live/peak concurrency and queue depth. *)
  st_coalesced_hits : int;
      (** Work served from another session's in-flight computation:
          backend statement coalescing plus function-cache miss
          coalescing. *)
  st_batch_merges : int;
      (** Single-key backend probes merged into another session's
          accumulated IN-list roundtrip. *)
  st_dedup_roundtrips_saved : int;
      (** Backend roundtrips avoided by cross-session work sharing. *)
  st_spill_runs : int;
      (** Sorted runs spilled to disk by the external sort
          ({!Optimizer.options}' [sort_budget_rows]), all queries. *)
  st_spill_rows : int;  (** Rows written to spill files. *)
  st_spill_bytes : int;  (** Marshal frame bytes spilled. *)
  st_spill_peak_resident : int;
      (** Peak rows any single spilling sort held resident — bounded by
          the sort budget. 0 when nothing spilled. *)
}

(* ------------------------------------------------------------------ *)
(* The compile back end, and the body cache                            *)

(* A key under the generations in force now. A compile's result is keyed
   after it runs: compilation itself may move the generation (transient
   prolog function registration), and keying under the new one lets an
   identical recompile — which would re-register the same definitions —
   hit. *)
let cache_key ?fingerprint t query =
  { Plan_cache.k_query = query;
    k_options = Option.value fingerprint ~default:t.fingerprint;
    k_generation = Metadata.generation t.registry;
    k_stats = Metadata.stats_generation t.registry }

(* Every compile from the normalized core on: text, call shape and
   function body. [vars] are typed external variables: a shape's
   placeholders, a body's parameters. Raises [Diag.Compile_error]. *)
let rec compile_core t opts ~diag ~vars core =
  let optimizer = optimizer t opts in
  let tenv = Typecheck.env ~vars t.registry diag in
  let static_type, typed = Typecheck.check tenv core in
  (* source reordering must see the raw for-clauses, before join
     introduction (§9) *)
  let typed = Optimizer.reorder_sources optimizer ?observed:t.observed typed in
  let optimized, _stats = Optimizer.optimize optimizer typed in
  let do_push = opts.Optimizer.pushdown in
  let gate = Optimizer.parameterize_gate optimizer in
  let pushed =
    if do_push then Pushdown.push ~gate t.registry optimized else optimized
  in
  let cleaned = Optimizer.cleanup optimizer pushed in
  (* cleanup drops the row-reconstruction lets nothing reads; pruning
     again drops the columns only they read (source-access elimination,
     §4.2) *)
  let pushed = if do_push then Pushdown.prune cleaned else cleaned in
  let plan = Optimizer.select_methods optimizer pushed in
  (static_type, plan, Plan_ir.compile t.registry plan)

(* One optimizer per compile, so its fresh variables number from 1;
   view unfolding takes its bodies from the body cache. *)
and optimizer t options =
  let fingerprint = Optimizer.options_fingerprint options in
  Optimizer.create ~options ~workers:(Pool.size t.pool)
    ~view_body:(fun fd body ->
      (find_body t options fingerprint ~count:true fd body).core)
    t.registry

(* A body's key is "name#arity", which no query text equals, under the
   options it compiles with and the generations in force. Only view
   unfolding's lookups [count] into the view-cache counters. *)
and find_body t options fingerprint ~count (fd : Metadata.function_def) body =
  let key =
    cache_key ~fingerprint t
      (Qname.to_string fd.Metadata.fd_name ^ "#"
      ^ string_of_int (List.length fd.Metadata.fd_params))
  in
  match Plan_cache.find ~count t.body_cache key with
  | Some b -> b
  | None ->
    let b =
      { core = Optimizer.cleanup (optimizer t options) body; call_plan = None }
    in
    Plan_cache.add t.body_cache key b;
    b

(* The runtime's call plans: a body's view core through the back end
   under the server's own options, also inside a hinted query. *)
let body_plan t (fd : Metadata.function_def) body =
  let b = find_body t t.options t.fingerprint ~count:false fd body in
  match b.call_plan with
  | Some plan -> plan
  | None ->
    let diag = Diag.collector Diag.Fail_fast in
    let vars = fd.Metadata.fd_params in
    let _, _, plan =
      try compile_core t t.options ~diag ~vars b.core
      with Diag.Compile_error d -> raise (Eval.Eval_error (Diag.to_string d))
    in
    b.call_plan <- Some plan;
    plan

(* [raw_bodies]: calls run bodies as written, lowered on every call;
   [concurrent_lets] false: lets evaluate in place, in order (both the
   reference). *)
let make ~raw_bodies ~concurrent_lets ?optimizer_options
    ?(plan_cache_capacity = 128) ?function_cache ?security ?audit ?observed
    ?pool ?(max_concurrent = 16) ?(admission_queue = 64) registry =
  let audit = match audit with Some a -> a | None -> Audit.create () in
  let security =
    match security with Some s -> s | None -> Security.create ~audit ()
  in
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let opts =
    match optimizer_options with
    | Some o -> o
    | None -> Optimizer.default_options
  in
  let counter_lock = Mutex.create () in
  let spill_runs = ref 0 in
  let spill_rows = ref 0 in
  let spill_bytes = ref 0 in
  let spill_peak_resident = ref 0 in
  let on_spill ~runs ~rows ~bytes ~peak =
    Mutex.lock counter_lock;
    spill_runs := !spill_runs + runs;
    spill_rows := !spill_rows + rows;
    spill_bytes := !spill_bytes + bytes;
    if peak > !spill_peak_resident then spill_peak_resident := peak;
    Mutex.unlock counter_lock
  in
  let t =
    { registry;
      options = opts;
      plan_cache = Plan_cache.create ~capacity:plan_cache_capacity;
      shape_cache = Plan_cache.create ~capacity:plan_cache_capacity;
      body_cache = Plan_cache.create ~capacity:plan_cache_capacity;
      fingerprint = Optimizer.options_fingerprint opts;
      compile_hits = Stdlib.Atomic.make 0;
      compile_misses = Stdlib.Atomic.make 0;
      function_cache;
      security;
      audit;
      observed;
      pool;
      runtime = Eval.runtime ~pool registry (* until [t] exists *);
      admission =
        { adm_max_active = max max_concurrent 1;
          adm_max_queue = max admission_queue 0;
          adm_mutex = Mutex.create ();
          adm_slot_free = Condition.create ();
          adm_idle = Condition.create ();
          adm_active = 0;
          adm_waiting = 0;
          adm_draining = false;
          adm_submitted = 0;
          adm_admitted = 0;
          adm_rejected = 0;
          adm_completed = 0;
          adm_deadline_aborts = 0;
          adm_peak_active = 0;
          adm_peak_waiting = 0 };
      counter_lock;
      streamed_tokens = ref 0;
      worst_misestimate = ref 1.;
      spill_runs;
      spill_rows;
      spill_bytes;
      spill_peak_resident }
  in
  t.runtime <-
    Eval.runtime
      ?call_wrapper:(Option.map Function_cache.wrapper function_cache)
      ~audit ~pool ?observed
      ~concurrent_lets ?sort_budget_rows:opts.Optimizer.sort_budget_rows
      ~on_spill
      ?body_plan:(if raw_bodies then None else Some (body_plan t))
      registry;
  t

let create = make ~raw_bodies:false ~concurrent_lets:true

(* The differential-testing oracle (see lib/check): every cost-only
   compilation and execution choice disabled — no pushdown, a single
   worker, no prefetch, sequential lets, bodies run as written — so
   results depend only on query semantics. *)
let reference ?plan_cache_capacity ?function_cache ?security ?audit registry =
  make ~raw_bodies:true ~concurrent_lets:false
    ~optimizer_options:Optimizer.reference_options
    ~pool:(Pool.create ~workers:1 ())
    ?plan_cache_capacity ?function_cache ?security ?audit registry

let registry t = t.registry
let security t = t.security
let pool t = t.pool

let admission_stats t =
  let adm = t.admission in
  Mutex.lock adm.adm_mutex;
  let snap =
    { ad_submitted = adm.adm_submitted;
      ad_admitted = adm.adm_admitted;
      ad_rejected = adm.adm_rejected;
      ad_completed = adm.adm_completed;
      ad_deadline_aborts = adm.adm_deadline_aborts;
      ad_active = adm.adm_active;
      ad_queued = adm.adm_waiting;
      ad_peak_active = adm.adm_peak_active;
      ad_peak_queued = adm.adm_peak_waiting }
  in
  Mutex.unlock adm.adm_mutex;
  snap

let stats t =
  let backend = Aldsp_relational.Database.zero_stats () in
  List.iter
    (fun db -> Aldsp_relational.Database.add_stats backend db.Aldsp_relational.Database.stats)
    (Metadata.databases t.registry);
  { st_plan_cache_hits = Stdlib.Atomic.get t.compile_hits;
    st_plan_cache_misses = Stdlib.Atomic.get t.compile_misses;
    st_function_cache_hits =
      (match t.function_cache with Some c -> Function_cache.hits c | None -> 0);
    st_function_cache_misses =
      (match t.function_cache with
      | Some c -> Function_cache.misses c
      | None -> 0);
    st_pool = Pool.stats t.pool;
    st_roundtrips =
      (match t.observed with Some o -> Observed.roundtrips o | None -> 0);
    st_overlap_saved =
      (match t.observed with Some o -> Observed.overlap_saved o | None -> 0.);
    st_source_wall =
      (match t.observed with Some o -> Observed.source_wall o | None -> 0.);
    st_tokens_streamed = !(t.streamed_tokens);
    st_backend = backend;
    st_max_misestimate = !(t.worst_misestimate);
    st_admission = admission_stats t;
    st_coalesced_hits =
      backend.Aldsp_relational.Database.coalesced_hits
      + (match t.function_cache with
        | Some c -> Function_cache.coalesced c
        | None -> 0);
    st_batch_merges = backend.Aldsp_relational.Database.batch_merges;
    st_dedup_roundtrips_saved =
      backend.Aldsp_relational.Database.dedup_roundtrips_saved;
    st_spill_runs = !(t.spill_runs);
    st_spill_rows = !(t.spill_rows);
    st_spill_bytes = !(t.spill_bytes);
    st_spill_peak_resident = !(t.spill_peak_resident) }

(* Cross-session work sharing is a property of the backends this server
   fronts: flip every registered database. Function-cache miss
   coalescing is always on (it is a pure de-duplication). *)
let set_work_sharing t flag =
  List.iter
    (fun db -> Aldsp_relational.Database.set_share_work db flag)
    (Metadata.databases t.registry)

(* ------------------------------------------------------------------ *)
(* Data service registration                                           *)

let truthy = function "true" | "yes" | "1" -> true | _ -> false

let pragma_attrs (decl : Xq_ast.function_decl) =
  List.concat_map
    (fun p ->
      if p.Xq_ast.pragma_name = "function" || p.Xq_ast.pragma_name = "" then
        p.Xq_ast.pragma_attrs
      else [])
    decl.Xq_ast.fn_pragmas

let kind_of_pragmas attrs =
  match List.assoc_opt "kind" attrs with
  | Some "navigate" -> Metadata.Navigate
  | Some "read" -> Metadata.Read
  | Some "library" | None | Some _ -> Metadata.Library

(* Prolog variables ([declare variable $v := expr]) become let-bindings
   prepended to every expression that can see them; earlier declarations
   are visible to later ones. Returns the surface->unique mapping and the
   let clauses. *)
let prolog_variable_bindings ctx (prolog : Xq_ast.prolog) =
  List.fold_left
    (fun (scope, lets) (name, _ty, expr) ->
      let uv = Normalize.fresh_var ctx name in
      let value = Normalize.expr ~params:scope ctx expr in
      ((name, uv) :: scope, lets @ [ Cexpr.Let { var = uv; value } ]))
    ([], []) prolog.Xq_ast.variables

let wrap_lets lets body =
  if lets = [] then body
  else Cexpr.Flwor { clauses = lets; return_ = body }

let register_functions registry ~diag (prolog : Xq_ast.prolog) =
  let ctx =
    Normalize.of_prolog ~schema_lookup:(Metadata.find_schema registry) diag
      prolog
  in
  let var_scope, var_lets = prolog_variable_bindings ctx prolog in
  (* two passes: signatures first so bodies may reference one another *)
  let sigs =
    List.map
      (fun decl ->
        let name, params, return_type = Normalize.function_signature ctx decl in
        (decl, name, params, return_type))
      prolog.Xq_ast.functions
  in
  List.iter
    (fun (decl, name, params, return_type) ->
      let attrs = pragma_attrs decl in
      Metadata.add_function registry
        { Metadata.fd_name = name;
          fd_params = List.map (fun (_, uv, ty) -> (uv, ty)) params;
          fd_return = return_type;
          fd_impl = Metadata.Body (Cexpr.Error_expr "body pending");
          fd_kind = kind_of_pragmas attrs;
          fd_cacheable =
            (match List.assoc_opt "cacheable" attrs with
            | Some v -> truthy v
            | None -> false);
          fd_pragmas = attrs })
    sigs;
  List.iter
    (fun (decl, name, params, return_type) ->
      match decl.Xq_ast.fn_body with
      | None ->
        Diag.error diag ~phase:"register"
          "function %s is declared external but has no source binding"
          (Qname.to_string name)
      | Some body_ast ->
        let surface_params =
          List.map (fun (s, uv, _) -> (s, uv)) params @ var_scope
        in
        let body = Normalize.expr ~params:surface_params ctx body_ast in
        let body = wrap_lets var_lets body in
        let tenv =
          Typecheck.env
            ~vars:(List.map (fun (_, uv, ty) -> (uv, ty)) params)
            registry diag
        in
        let _, body =
          Typecheck.check_function_body tenv ~declared:return_type body
        in
        (match Metadata.find_function registry name (List.length params) with
        | Some fd ->
          Metadata.add_function registry
            { fd with Metadata.fd_impl = Metadata.Body body }
        | None -> ()))
    sigs;
  sigs

let register_data_service t ~name source =
  let diag = Diag.collector Diag.Fail_fast in
  match Xq_parser.parse_query source with
  | Error msg ->
    Error [ { Diag.phase = "parse"; message = msg } ]
  | Ok query -> (
    match register_functions t.registry ~diag query.Xq_ast.prolog with
    | sigs ->
      let fn_names = List.map (fun (_, n, _, _) -> n) sigs in
      let reads =
        List.filter_map
          (fun (decl, n, _, _) ->
            if kind_of_pragmas (pragma_attrs decl) = Metadata.Read then Some n
            else None)
          sigs
      in
      let lineage =
        match List.assoc_opt "lineageProvider"
                (List.concat_map (fun (d, _, _, _) -> pragma_attrs d) sigs)
        with
        | Some fname -> Some (Qname.of_string fname)
        | None -> ( match reads with n :: _ -> Some n | [] -> None)
      in
      Metadata.add_data_service t.registry
        { Metadata.ds_name = name;
          ds_shape = None;
          ds_functions = fn_names;
          ds_lineage_provider = lineage };
      Ok ()
    | exception Diag.Compile_error d -> Error [ d ])

let design_time_check t source =
  let query, parse_errors = Xq_parser.parse_query_recovering source in
  let diag = Diag.collector Diag.Recover in
  (* analyze against a copy of the registry so the live one never sees the
     file's declarations *)
  let shadow = Metadata.copy t.registry in
  (try ignore (register_functions shadow ~diag query.Xq_ast.prolog)
   with Diag.Compile_error d ->
     Diag.error diag ~phase:d.Diag.phase "%s" d.Diag.message);
  List.map
    (fun msg -> { Diag.phase = "parse"; message = msg })
    parse_errors
  @ Diag.diagnostics diag

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)

(* Declarative hints (§9): (::pragma hint k="v" ... ::) ahead of the
   query body tunes this compilation. Supported hints:
     ppk-k="N"              PP-k block size
     ppk-prefetch="N"       PP-k pipeline depth (0 = sequential)
     inline-views="bool"    view unfolding on/off
     inverse-functions="bool"
     join-introduction="bool" *)
let apply_hints base_options (query : Xq_ast.query) =
  let hint_attrs =
    List.concat_map
      (fun p ->
        if p.Xq_ast.pragma_name = "hint" then p.Xq_ast.pragma_attrs else [])
      query.Xq_ast.query_pragmas
  in
  if hint_attrs = [] then None
  else
    let bool_hint key default =
      match List.assoc_opt key hint_attrs with
      | Some v -> truthy v
      | None -> default
    in
    let open Optimizer in
    (* an explicit PP-k hint is a user override: cost-based selection
       would re-derive k/prefetch and ignore it, so it yields *)
    let explicit_ppk =
      List.mem_assoc "ppk-k" hint_attrs
      || List.mem_assoc "ppk-prefetch" hint_attrs
    in
    Some
      { base_options with
        cost_based = (base_options.cost_based && not explicit_ppk);
        ppk_k =
          (match List.assoc_opt "ppk-k" hint_attrs with
          | Some v -> ( match int_of_string_opt v with Some k when k > 0 -> k | _ -> base_options.ppk_k)
          | None -> base_options.ppk_k);
        ppk_prefetch =
          (match List.assoc_opt "ppk-prefetch" hint_attrs with
          | Some v -> (
            match int_of_string_opt v with
            | Some d when d >= 0 -> d
            | _ -> base_options.ppk_prefetch)
          | None -> base_options.ppk_prefetch);
        inline_views = bool_hint "inline-views" base_options.inline_views;
        use_inverse_functions =
          bool_hint "inverse-functions" base_options.use_inverse_functions;
        introduce_joins =
          bool_hint "join-introduction" base_options.introduce_joins }

(* The compile front end on a parsed query (hints, prolog, normalize),
   then the back end. [lifted] are the placeholder variables of a call
   shape ({!Shape.lift}), external variables of the literal's type. *)
let compile_query t ?(lifted = []) source (query : Xq_ast.query) =
  let diag = Diag.collector Diag.Fail_fast in
  match query.Xq_ast.body with
  | None ->
    Error [ { Diag.phase = "parse"; message = "query has no body expression" } ]
  | Some body_ast -> (
    try
      let options =
        Option.value (apply_hints t.options query) ~default:t.options
      in
      (* inline prolog function declarations are registered transiently *)
      ignore (register_functions t.registry ~diag query.Xq_ast.prolog);
      let ctx =
        Normalize.of_prolog
          ~schema_lookup:(Metadata.find_schema t.registry)
          diag query.Xq_ast.prolog
      in
      let var_scope, var_lets = prolog_variable_bindings ctx query.Xq_ast.prolog in
      let params = List.map (fun (v, _) -> (v, v)) lifted @ var_scope in
      let core = wrap_lets var_lets (Normalize.expr ~params ctx body_ast) in
      let vars =
        List.map (fun (v, a) -> (v, Stype.atomic (Atomic.type_of a))) lifted
      in
      let static_type, plan, ir = compile_core t options ~diag ~vars core in
      Ok
        { source;
          plan;
          ir;
          bindings = [];
          static_type;
          diagnostics = Diag.diagnostics diag;
          sql =
            List.map
              (fun r -> (r.Plan_ir.sql_db, r.Plan_ir.sql_text))
              (Plan_ir.regions ir) }
    with Diag.Compile_error d -> Error [ d ])

(* A text miss: compile the text's call shape once and give the text its
   own view of the shape's lowered plan, with its literals as the
   bindings; or compile the text itself when it has nothing to lift or
   its shape is [Inline]. Returns whether the compile pipeline ran. *)
let compile_text t source query =
  let full () = (true, compile_query t source query) in
  match Shape.lift t.registry query with
  | None -> full ()
  | Some (lifted_query, lifted) -> (
    let vars = List.map fst lifted in
    let bindings = List.map (fun (v, a) -> (v, [ Item.Atom a ])) lifted in
    let shape_key = Shape.key lifted_query lifted in
    match Plan_cache.find t.shape_cache (cache_key t shape_key) with
    | Some (Lifted template) ->
      let ir = Plan_ir.instance template.ir in
      (false, Ok { template with source; ir; bindings })
    | Some Inline -> full ()
    | None -> (
      match compile_query t ~lifted source lifted_query with
      | Ok template when Plan_ir.params_only template.ir vars ->
        Plan_cache.add t.shape_cache (cache_key t shape_key) (Lifted template);
        (* the template's own view goes to this first text only *)
        (true, Ok { template with bindings })
      | Ok _ | Error _ ->
        Plan_cache.add t.shape_cache (cache_key t shape_key) Inline;
        full ()))

let compile t source =
  (* drop plans compiled against an older registry — or, since cost-based
     choices are functions of table statistics, against statistics that
     have moved since — before looking up *)
  let generation = Metadata.generation t.registry in
  let stats = Metadata.stats_generation t.registry in
  Plan_cache.purge_stale t.plan_cache ~generation ~stats;
  Plan_cache.purge_stale t.shape_cache ~generation ~stats;
  Plan_cache.purge_stale t.body_cache ~generation ~stats;
  match Plan_cache.find t.plan_cache (cache_key t source) with
  | Some compiled ->
    Stdlib.Atomic.incr t.compile_hits;
    Ok compiled
  | None -> (
    match Xq_parser.parse_query source with
    | Error msg ->
      Stdlib.Atomic.incr t.compile_misses;
      Error [ { Diag.phase = "parse"; message = msg } ]
    | Ok query ->
      let ran, result = compile_text t source query in
      Stdlib.Atomic.incr (if ran then t.compile_misses else t.compile_hits);
      Result.iter (Plan_cache.add t.plan_cache (cache_key t source)) result;
      result)

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

let diags_to_string ds = String.concat "; " (List.map Diag.to_string ds)

(* The per-run est-vs-actual rollup, from the execution's own counters.
   Compare-and-update of a shared maximum: a read-modify-write, so
   locked — concurrent sessions would otherwise lose updates. *)
let note_misestimate t ir counters =
  let worst = Plan_ir.max_misestimate ~counters ir in
  Mutex.lock t.counter_lock;
  if worst > !(t.worst_misestimate) then t.worst_misestimate := worst;
  Mutex.unlock t.counter_lock

(* One execution into its own counters, folded into the text's view once
   it ends; a complete run also feeds the misestimate rollup. The user's
   security filter wraps the building sink, as it wraps a stream's token
   sink, so a restricted user's audit trail is in document order however
   the result is delivered. *)
let execute t ~user compiled =
  let counters = Plan_ir.new_run compiled.ir in
  let result =
    Eval.execute t.runtime ~bindings:compiled.bindings ~counters
      ~through:(Security.filter_tokens t.security user)
      compiled.ir
  in
  Plan_ir.fold compiled.ir counters;
  if Result.is_ok result then note_misestimate t compiled.ir counters;
  (counters, result)

let run t ?(user = Security.admin) source =
  match compile t source with
  | Error ds -> Error (diags_to_string ds)
  | Ok compiled -> snd (execute t ~user compiled)

(* Every result path that serializes or streams tokens counts them here,
   so [st_tokens_streamed] reflects all delivery — streaming sessions,
   file redirect, and materialized results pushed through
   [serialize_result]. Callers add a batch at a time: one lock per result
   or per stream chunk. *)
let count_tokens t n =
  Mutex.lock t.counter_lock;
  t.streamed_tokens := !(t.streamed_tokens) + n;
  Mutex.unlock t.counter_lock

let serialize_result t items =
  let buf = Buffer.create 256 in
  count_tokens t (Aldsp_tokens.Token_stream.serialize_items buf items);
  Buffer.contents buf

let call t ?(user = Security.admin) fn args =
  match Security.check_call t.security user fn with
  | Error _ as e -> e
  | Ok () ->
    Eval.call_function t.runtime
      ~through:(Security.filter_tokens t.security user)
      fn args

(* ------------------------------------------------------------------ *)
(* Serving layer: admission, deadlines, sessions, drain                *)

(* Waits for an executing slot. Called with [adm_mutex] held; returns
   with it held. The wait goes through {!Cancel.wait}, so a cancel or
   the token's deadline wakes the waiter, which then reports [`Expired]. *)
let rec await_slot adm tok =
  if adm.adm_active < adm.adm_max_active then begin
    adm.adm_active <- adm.adm_active + 1;
    if adm.adm_active > adm.adm_peak_active then
      adm.adm_peak_active <- adm.adm_active;
    `Admitted
  end
  else if Cancel.cancelled tok then `Expired
  else begin
    Cancel.wait tok adm.adm_mutex adm.adm_slot_free;
    await_slot adm tok
  end

let signal_if_idle adm =
  if adm.adm_active = 0 && adm.adm_waiting = 0 then
    Condition.broadcast adm.adm_idle

(* Admission decision for one submission. [`Admitted] holds an executing
   slot that [release_slot] must give back. *)
let admit adm tok =
  Mutex.lock adm.adm_mutex;
  adm.adm_submitted <- adm.adm_submitted + 1;
  let outcome =
    if adm.adm_draining then begin
      adm.adm_rejected <- adm.adm_rejected + 1;
      `Rejected
    end
    else if adm.adm_active < adm.adm_max_active then begin
      adm.adm_active <- adm.adm_active + 1;
      if adm.adm_active > adm.adm_peak_active then
        adm.adm_peak_active <- adm.adm_active;
      adm.adm_admitted <- adm.adm_admitted + 1;
      `Admitted
    end
    else if adm.adm_waiting >= adm.adm_max_queue then begin
      adm.adm_rejected <- adm.adm_rejected + 1;
      `Rejected
    end
    else begin
      adm.adm_waiting <- adm.adm_waiting + 1;
      if adm.adm_waiting > adm.adm_peak_waiting then
        adm.adm_peak_waiting <- adm.adm_waiting;
      let r = await_slot adm tok in
      adm.adm_waiting <- adm.adm_waiting - 1;
      (match r with
      | `Admitted -> adm.adm_admitted <- adm.adm_admitted + 1
      | `Expired ->
        adm.adm_deadline_aborts <- adm.adm_deadline_aborts + 1;
        signal_if_idle adm);
      r
    end
  in
  Mutex.unlock adm.adm_mutex;
  outcome

let release_slot adm ~outcome =
  Mutex.lock adm.adm_mutex;
  adm.adm_active <- adm.adm_active - 1;
  (match outcome with
  | `Completed -> adm.adm_completed <- adm.adm_completed + 1
  | `Deadline -> adm.adm_deadline_aborts <- adm.adm_deadline_aborts + 1);
  Condition.signal adm.adm_slot_free;
  signal_if_idle adm;
  Mutex.unlock adm.adm_mutex

(* Runs [f] once [admit] gives it an executing slot, which [f] must
   release; otherwise says why none was given. *)
let with_slot t tok f =
  match admit t.admission tok with
  | `Rejected -> Error Overloaded
  | `Expired -> Error (Cancelled "deadline exceeded while queued")
  | `Admitted -> f ()

(* The deadline covers queue wait plus execution: the token is created
   before [admit], so time spent waiting for a slot counts against it. *)
let submit t ?(user = Security.admin) ?deadline ?token source =
  let tok =
    match token with
    | Some tok -> tok
    | None -> (
      match deadline with
      | Some seconds -> Cancel.with_deadline seconds
      | None -> Cancel.none)
  in
  with_slot t tok @@ fun () ->
  match Cancel.with_token tok (fun () -> run t ~user source) with
  | Ok items ->
    release_slot t.admission ~outcome:`Completed;
    Ok items
  | Error m ->
    (* an Error with a fired token is a cancellation surfacing as an
       evaluation error, not a query bug *)
    if Cancel.cancelled tok then begin
      release_slot t.admission ~outcome:`Deadline;
      Error (Cancelled m)
    end
    else begin
      release_slot t.admission ~outcome:`Completed;
      Error (Failed m)
    end
  | exception e ->
    release_slot t.admission
      ~outcome:(if Cancel.cancelled tok then `Deadline else `Completed);
    raise e

let drain t =
  let adm = t.admission in
  Mutex.lock adm.adm_mutex;
  adm.adm_draining <- true;
  (* already-queued waiters still run; only new arrivals are rejected *)
  while adm.adm_active > 0 || adm.adm_waiting > 0 do
    Condition.wait adm.adm_idle adm.adm_mutex
  done;
  Mutex.unlock adm.adm_mutex

let draining t =
  let adm = t.admission in
  Mutex.lock adm.adm_mutex;
  let d = adm.adm_draining in
  Mutex.unlock adm.adm_mutex;
  d

(* One client domain's connection: a default user and per-query deadline,
   plus the token of the in-flight query so another thread can cancel it. *)
type session = {
  ses_server : t;
  ses_user : Security.user;
  ses_deadline : float option;
  ses_lock : Mutex.t;
  mutable ses_current : Cancel.t;
}

let session t ?(user = Security.admin) ?deadline () =
  { ses_server = t;
    ses_user = user;
    ses_deadline = deadline;
    ses_lock = Mutex.create ();
    ses_current = Cancel.none }

(* A session query's token, under the call's deadline or else the
   session's, published as the one [session_cancel] fires. *)
let session_token s deadline =
  let deadline = match deadline with Some _ as d -> d | None -> s.ses_deadline in
  let tok =
    match deadline with
    | Some seconds -> Cancel.with_deadline seconds
    | None -> Cancel.make ()
  in
  Mutex.lock s.ses_lock;
  s.ses_current <- tok;
  Mutex.unlock s.ses_lock;
  tok

let session_run s ?deadline source =
  submit s.ses_server ~user:s.ses_user ~token:(session_token s deadline) source

let session_cancel s =
  Mutex.lock s.ses_lock;
  let tok = s.ses_current in
  Mutex.unlock s.ses_lock;
  Cancel.cancel tok

(* ------------------------------------------------------------------ *)
(* Streamed session delivery: the reader runs the plan's token emitter on
   its own thread. The emitter pushes tokens into a chunk of
   [stream_chunk]; when the chunk is full, the push performs [Chunk_full],
   the refill's handler keeps the emitter's continuation and returns, and
   the next refill resumes it. Reads hand the chunk out token by token,
   so at most one chunk is live between the executor and the reader,
   also inside a tuple wider than a chunk. The admission slot goes back
   exactly once: the refill that drains or fails the stream releases it,
   and so does the first one to end after a cancel or deadline. A stream
   nobody is reading is freed by its [on_cancel] hook, run by
   [Cancel.cancel] or the deadline thread. [str_lock] and the
   reading/released flags keep the reader and the hook from both
   releasing. Only a refill ever resumes the emitter, and none does once
   the stream has ended. *)

let stream_chunk = 64

type _ Effect.t += Chunk_full : unit Effect.t

type next =
  | Start of ((Aldsp_tokens.Token.t -> unit) -> unit)
      (* the emitter, not run yet *)
  | Resume of (unit, bool) Effect.Deep.continuation
      (* suspended on a full chunk *)
  | Stopped  (* ended, failed, or running in a refill *)

type stream = {
  str_server : t;
  str_token : Cancel.t;
  str_ir : Plan_ir.t;
  str_counters : Plan_ir.run;  (* folded into [str_ir] on release *)
  mutable str_next : next;
  str_chunk : Aldsp_tokens.Token.t array;
  mutable str_len : int;  (* tokens the last refill put in [str_chunk] *)
  mutable str_pos : int;  (* next token of [str_chunk] to hand out *)
  mutable str_done : bool;  (* no refill follows *)
  mutable str_peak : int;
  mutable str_unhook : unit -> unit;
  str_lock : Mutex.t;
  mutable str_reading : bool;  (* a refill is running; under [str_lock] *)
  mutable str_released : bool;  (* the slot went back; under [str_lock] *)
}

(* Called with [str_lock] held. *)
let release_stream st outcome =
  if not st.str_released then begin
    st.str_released <- true;
    Plan_ir.fold st.str_ir st.str_counters;
    release_slot st.str_server.admission ~outcome
  end

let session_run_stream s ?deadline source =
  let server = s.ses_server in
  let tok = session_token s deadline in
  with_slot server tok @@ fun () ->
  (* compile on the caller's thread so compilation errors surface as a
     plain [Error] instead of a one-token failed stream *)
  match compile server source with
  | Error ds ->
    release_slot server.admission ~outcome:`Completed;
    Error (Failed (diags_to_string ds))
  | Ok compiled ->
    let counters = Plan_ir.new_run compiled.ir in
    let emit push =
      Eval.emit server.runtime ~bindings:compiled.bindings ~counters
        compiled.ir
        (Security.filter_tokens server.security s.ses_user
           (Aldsp_tokens.Token_stream.token_sink push))
    in
    let st =
      { str_server = server;
        str_token = tok;
        str_ir = compiled.ir;
        str_counters = counters;
        str_next = Start emit;
        str_chunk = Array.make stream_chunk Aldsp_tokens.Token.End_element;
        str_len = 0;
        str_pos = 0;
        str_done = false;
        str_peak = 0;
        str_unhook = ignore;
        str_lock = Mutex.create ();
        str_reading = false;
        str_released = false }
    in
    st.str_unhook <-
      Cancel.on_cancel tok (fun () ->
          Mutex.lock st.str_lock;
          if not st.str_reading then release_stream st `Deadline;
          Mutex.unlock st.str_lock);
    Ok st

let push st token =
  st.str_chunk.(st.str_len) <- token;
  st.str_len <- st.str_len + 1;
  if st.str_len = stream_chunk then Effect.perform Chunk_full

(* Runs the emitter until it fills the chunk ([true]) or ends ([false]).
   Raises [Cancelled] before running on a fired token, so nothing
   executes after the slot went back. Every token pushed counts in
   [st_tokens_streamed], once per refill, also when the emitter fails
   part way. *)
let refill st =
  Cancel.check st.str_token;
  let next = st.str_next in
  st.str_next <- Stopped;
  st.str_len <- 0;
  st.str_pos <- 0;
  Fun.protect
    ~finally:(fun () ->
      count_tokens st.str_server st.str_len;
      st.str_peak <- max st.str_peak st.str_len)
    (fun () ->
      match next with
      | Start emit ->
        Effect.Deep.match_with emit (push st)
          { retc = (fun () -> false);
            exnc = raise;
            effc =
              (fun (type a) (eff : a Effect.t) ->
                match eff with
                | Chunk_full ->
                  Some
                    (fun (k : (a, bool) Effect.Deep.continuation) ->
                      st.str_next <- Resume k;
                      true)
                | _ -> None) }
      | Resume k -> Effect.Deep.continue k ()
      | Stopped -> false)

(* The refill half of a read, on the calling thread: afterwards the chunk
   holds the next tokens (possibly none), and [str_done] says whether
   another refill follows. A failed refill hands out none of its tokens. *)
let advance st =
  Mutex.lock st.str_lock;
  st.str_reading <- true;
  Mutex.unlock st.str_lock;
  let pulled =
    match Cancel.with_token st.str_token (fun () -> refill st) with
    | more -> Ok more
    | exception e -> Error e
  in
  Mutex.lock st.str_lock;
  st.str_reading <- false;
  (* a cancel during the refill found the reader busy and left the
     slot to it *)
  let cancelled = Cancel.cancelled st.str_token in
  (match pulled with
  | Ok true -> if cancelled then release_stream st `Deadline
  | Ok false -> release_stream st `Completed
  | Error _ -> release_stream st (if cancelled then `Deadline else `Completed));
  let released = st.str_released in
  Mutex.unlock st.str_lock;
  if released then st.str_unhook ();
  match pulled with
  | Ok true -> Ok ()
  | Ok false ->
    note_misestimate st.str_server st.str_ir st.str_counters;
    st.str_done <- true;
    Ok ()
  | Error e ->
    st.str_done <- true;
    st.str_len <- 0;
    let m =
      match e with
      | Eval.Eval_error m | Cancel.Cancelled m -> m
      | e -> Printexc.to_string e
    in
    if cancelled then Error (Cancelled m) else Error (Failed m)

let rec stream_read st =
  if st.str_pos < st.str_len then begin
    let token = st.str_chunk.(st.str_pos) in
    st.str_pos <- st.str_pos + 1;
    Ok (Some token)
  end
  else if st.str_done then Ok None
  else Result.bind (advance st) (fun () -> stream_read st)

let stream_cancel st = Cancel.cancel st.str_token

let stream_peak_buffered st = st.str_peak

(* Ends a stream on the reader's side: no refill follows, and the slot
   goes back unless it already has. *)
let abandon st =
  st.str_next <- Stopped;
  st.str_done <- true;
  st.str_pos <- st.str_len;
  Mutex.lock st.str_lock;
  release_stream st `Completed;
  Mutex.unlock st.str_lock;
  st.str_unhook ()

(* The rest of the stream, serialized. Tokens that [stream_read] already
   handed out are not written, so after a read that stopped inside an
   element the writer meets an end tag it never saw open: that fails the
   stream. *)
let stream_serialize st out =
  let w = Aldsp_tokens.Token_stream.chunk_writer out in
  let rec drain () =
    for i = st.str_pos to st.str_len - 1 do
      Aldsp_tokens.Token_stream.chunk_write w st.str_chunk.(i)
    done;
    st.str_pos <- st.str_len;
    if st.str_done then Ok (Aldsp_tokens.Token_stream.chunk_close w)
    else
      match advance st with
      | Ok () -> drain ()
      | Error _ as e ->
        Aldsp_tokens.Token_stream.chunk_flush w;
        e
  in
  match drain () with
  | result -> result
  | exception Invalid_argument m ->
    Aldsp_tokens.Token_stream.chunk_flush w;
    abandon st;
    Error (Failed m)

let explain t ?(analyze = true) ?(timings = false) source =
  match compile t source with
  | Error ds -> Error (diags_to_string ds)
  | Ok compiled ->
    let buf = Buffer.create 512 in
    Buffer.add_string buf
      (Printf.sprintf "static type: %s\n"
         (Stype.to_string compiled.static_type));
    let counters, result =
      if analyze then execute t ~user:Security.admin compiled
      else (Plan_ir.new_run compiled.ir, Ok [])
    in
    Result.iter_error
      (fun m -> Buffer.add_string buf (Printf.sprintf "error: %s\n" m))
      result;
    Buffer.add_string buf "plan:\n";
    Buffer.add_string buf
      (Plan_ir.render ~timings ~bindings:compiled.bindings ~counters
         compiled.ir);
    Ok (Buffer.contents buf)

let plan_cache_hits t = Stdlib.Atomic.get t.compile_hits
let plan_cache_misses t = Stdlib.Atomic.get t.compile_misses
let view_cache_hits t = Plan_cache.hits t.body_cache
let view_cache_misses t = Plan_cache.misses t.body_cache
