(* The benchmark harness: regenerates every table and figure of the paper
   and quantifies its performance claims. See EXPERIMENTS.md for the
   experiment index and paper-vs-measured discussion.

   Run with: dune exec bench/main.exe            (all experiments)
             dune exec bench/main.exe -- smoke   (the CI subset)
             dune exec bench/main.exe -- micro   (adds bechamel microbenches)

   A full run writes its records to BENCH_results.json, a smoke run to
   bench_smoke.json (not tracked). The guards left here are timed, or
   count work that depends on thread timing; the plan-shape and counter
   checks of the same workloads run in dune runtest.

   Experiment ids (DESIGN.md):
     T1a-T1f, T2g-T2i  pushdown patterns of Tables 1 and 2
     F4                tuple representations of Figure 4
     PPk               PP-k block size sweep (§4.2, default k=20)
     IDX               scan vs index access paths on the PP-k probe side
     CST               cost model: chosen vs forced join methods
     CST-PL            cost model: the getProfileByID point lookup
     GRP               pre-clustered streaming group-by vs sort fallback
     SRT               bounded-memory external sort: spill vs in-memory
     ASY               fn-bea:async latency overlap (§5.4)
     PPk-pipeline      worker pool x PP-k prefetch depth x latency
     CCH               function cache: slow call -> single-row lookup (§5.5)
     FOV               fn-bea:timeout / fail-over behaviour (§5.6)
     VWU               view unfolding + source-access elimination (§4.2)
     PLC               plan cache and view-plan cache (§2.2, §4.2)
     INV               inverse functions enable pushdown (§4.5)
     OBS               observed-cost reordering (§9)
     CCX               concurrent serving layer: client sweep (§5.4)
     CCS               cross-session work sharing: coalescing + batching
     STRM              streamed delivery: TTFT + peak live tokens (§2.2)
*)

open Aldsp_core
open Aldsp_relational
open Aldsp_services
open Aldsp_demo
module Item = Aldsp_xml.Item
module Qname = Aldsp_xml.Qname
module Atomic = Aldsp_xml.Atomic
module Token_stream = Aldsp_tokens.Token_stream

let banner title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let sub title = Printf.printf "\n--- %s\n" title

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

let ok_exn = function Ok v -> v | Error m -> failwith m

let compile_exn server q =
  match Server.compile server q with
  | Ok c -> c
  | Error ds -> failwith (String.concat "; " (List.map Diag.to_string ds))

(* A guard: fails the run with the formatted message when [ok] is false. *)
let guard ok fmt =
  Printf.ksprintf (fun msg -> if not ok then failwith msg) fmt

(* the [p]th percentile (0-100) of a sorted array *)
let percentile sorted p =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1))

let median xs = percentile (Array.of_list (List.sort compare xs)) 50.

(* ------------------------------------------------------------------ *)
(* Records: every experiment emits (name, params, metrics) through
   [record]; params name the sweep point, metrics what it measured. *)

type value = Int of int | Num of float | Str of string | Bool of bool

let records = ref []

let record name ~params metrics =
  records := (name, params, metrics) :: !records

let ms seconds = Num (seconds *. 1000.)

let write_records path =
  let json = function
    | Int i -> string_of_int i
    | Num f -> Printf.sprintf "%.3f" f
    | Str s -> Printf.sprintf "%S" s
    | Bool b -> string_of_bool b
  in
  let obj fields =
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields)
    ^ "}"
  in
  let line (name, params, metrics) =
    let values fields = obj (List.map (fun (k, v) -> (k, json v)) fields) in
    obj
      [ ("name", json (Str name));
        ("params", values params);
        ("metrics", values metrics) ]
  in
  let oc = open_out path in
  output_string oc
    ("[\n  " ^ String.concat ",\n  " (List.rev_map line !records) ^ "\n]\n");
  close_out oc;
  Printf.printf "\nwrote %d records to %s\n" (List.length !records) path

let run demo q = ok_exn (Server.run demo.Demo.server q)

(* ------------------------------------------------------------------ *)
(* Tables 1 and 2: the pushdown pattern catalog                        *)

let pattern_catalog =
  [ ( "T1a", "simple select-project",
      "for $c in CUSTOMER() where $c/CID eq \"CUST0001\" return $c/FIRST_NAME" );
    ( "T1b", "inner join",
      "for $c in CUSTOMER(), $o in ORDER_T() where $c/CID eq $o/CID return <CUSTOMER_ORDER>{$c/CID, $o/OID}</CUSTOMER_ORDER>" );
    ( "T1c", "outer join (nested FLWOR)",
      "for $c in CUSTOMER() return <CUSTOMER>{$c/CID, for $o in ORDER_T() where $c/CID eq $o/CID return $o/OID}</CUSTOMER>" );
    ( "T1d", "if-then-else -> CASE",
      "for $c in CUSTOMER() return <CUSTOMER>{data(if ($c/CID eq \"CUST0001\") then $c/FIRST_NAME else $c/LAST_NAME)}</CUSTOMER>" );
    ( "T1e", "group-by with aggregation",
      "for $c in CUSTOMER() group $c as $p by $c/LAST_NAME as $l return <CUSTOMER>{$l, count($p)}</CUSTOMER>" );
    ( "T1f", "group-by as DISTINCT",
      "for $c in CUSTOMER() group by $c/LAST_NAME as $l return $l" );
    ( "T2g", "outer join with aggregation",
      "for $c in CUSTOMER() return <CUSTOMER>{$c/CID, <ORDERS>{count(for $o in ORDER_T() where $o/CID eq $c/CID return $o)}</ORDERS>}</CUSTOMER>" );
    ( "T2h", "semi join (quantified expression)",
      "for $c in CUSTOMER() where some $o in ORDER_T() satisfies $c/CID eq $o/CID return $c/CID" );
    ( "T2i", "subsequence() -> row window (Oracle ROWNUM)",
      "let $cs := for $c in CUSTOMER() let $oc := count(for $o in ORDER_T() where $c/CID eq $o/CID return $o) order by $oc descending return <CUSTOMER>{data($c/CID), $oc}</CUSTOMER> return subsequence($cs, 10, 20)" ) ]

(* middleware-only reference evaluation (no optimizer, no pushdown) *)
let run_unpushed demo q =
  let registry = demo.Demo.registry in
  let diag = Diag.collector Diag.Fail_fast in
  let ctx =
    Normalize.context ~schema_lookup:(Metadata.find_schema registry) diag
  in
  let core = Normalize.expr ctx (ok_exn (Xq_parser.parse_expr q)) in
  let env = Typecheck.env registry diag in
  let _, typed = Typecheck.check env core in
  ok_exn (Eval.eval (Eval.runtime registry) typed)

let bench_pushdown_patterns () =
  banner "Tables 1 and 2: XQuery-to-SQL pushdown patterns";
  Printf.printf
    "(demo enterprise; CustomerDB speaks Oracle SQL, CardDB SQL Server)\n";
  let demo = Demo.create ~customers:40 ~orders_per_customer:2 () in
  List.iter
    (fun (id, label, q) ->
      sub (Printf.sprintf "%s: %s" id label);
      Printf.printf "XQuery: %s\n" q;
      match Server.compile demo.Demo.server q with
      | Error ds ->
        Printf.printf "COMPILE FAILED: %s\n"
          (String.concat "; " (List.map Diag.to_string ds))
      | Ok compiled ->
        List.iter
          (fun (db, sql) -> Printf.printf "SQL [%s]:\n  %s\n" db sql)
          compiled.Server.sql;
        let pushed = run demo q in
        let reference = run_unpushed demo q in
        Printf.printf "rows: %d   matches middleware evaluation: %b\n"
          (List.length pushed)
          (Item.serialize pushed = Item.serialize reference))
    pattern_catalog

(* ------------------------------------------------------------------ *)
(* Figure 4: tuple representations                                      *)

let bench_tuple_representations () =
  banner "Figure 4: tuple representations (stream / single token / array)";
  let open Aldsp_tokens in
  let n = 20_000 in
  let fields =
    [ [ Item.integer 100 ];
      [ Item.string "al" ];
      [ Item.integer 50 ];
      [ Item.string "dsp" ] ]
  in
  Printf.printf
    "%d tuples of 4 fields; construct = build tuples; last-field = access \n\
     field 3 of each; words/tuple = heap words per tuple\n" n;
  Printf.printf "%-14s %14s %16s %10s\n" "representation" "construct(ms)"
    "last-field(ms)" "words/tuple";
  List.iter
    (fun (name, repr) ->
      let t_build, tuples =
        time (fun () -> List.init n (fun _ -> Tuple.of_sequences repr fields))
      in
      let t_access, _ =
        time (fun () ->
            List.iter (fun t -> ignore (Tuple.field_items t 3)) tuples)
      in
      let words = Obj.reachable_words (Obj.repr tuples) / n in
      record "F4" ~params:[ ("representation", Str name) ]
        [ ("construct_ms", ms t_build);
          ("access_ms", ms t_access);
          ("words_per_tuple", Int words) ];
      Printf.printf "%-14s %14.1f %16.1f %10d\n" name (t_build *. 1000.)
        (t_access *. 1000.) words)
    [ ("stream", Tuple.Stream_repr);
      ("single-token", Tuple.Single_repr);
      ("array", Tuple.Array_repr) ];
  print_endline
    "shape: array has the cheapest field access; the delimited stream is\n\
     the most compact wire form but pays to skip fields (per §5.1)."

(* ------------------------------------------------------------------ *)
(* PP-k sweep (§4.2)                                                   *)

let card_join =
  "for $c in CUSTOMER(), $x in CREDIT_CARD() where $c/CID eq $x/CID return <R>{$c/CID, $x/NUM}</R>"

(* a knob sweep's options: cost-based selection off, so the given k is
   the k used *)
let forced ?(prefetch = Optimizer.default_options.Optimizer.ppk_prefetch) k =
  { Optimizer.default_options with
    Optimizer.ppk_k = k;
    ppk_prefetch = prefetch;
    cost_based = false }

(* Adds [n] cards of customers outside every joined range to the demo's
   CREDIT_CARD, after indexing its CID when [index]: the probe side
   grows, the join result does not. *)
let pad_cards ?(index = false) demo n =
  let cards = ok_exn (Database.find_table demo.Demo.card_db "CREDIT_CARD") in
  if index then ok_exn (Table.create_index cards ~name:"card_cid" [ "CID" ]);
  ignore
    (ok_exn
       (Table.insert_many cards
          (List.init (max 0 n) (fun i ->
               [| Sql_value.Int (1_000_000 + i);
                  Sql_value.Str (Printf.sprintf "PAD%06d" i);
                  Sql_value.Str "0000-0000-0000";
                  Sql_value.Null |]))))

let bench_ppk () =
  banner "PP-k: parameter passing in blocks of k (§4.2, default k = 20)";
  let customers = 400 in
  let latency = 0.0005 (* 0.5 ms per roundtrip *) in
  Printf.printf
    "%d left tuples joined cross-database; %.1f ms simulated latency per \
     roundtrip\n"
    customers (latency *. 1000.);
  let demo =
    Demo.create ~customers ~orders_per_customer:0 ~db_latency:latency ()
  in
  Printf.printf "%6s %12s %12s %12s %14s\n" "k" "roundtrips" "rows" "time(ms)"
    "block memory";
  List.iter
    (fun k ->
      let server =
        Server.create ~optimizer_options:(forced k) demo.Demo.registry
      in
      Demo.reset_stats demo;
      let t, r = time (fun () -> ok_exn (Server.run server card_join)) in
      let roundtrips = demo.Demo.card_db.Database.stats.Database.statements in
      record "PPk" ~params:[ ("k", Int k) ]
        [ ("wall_ms", ms t); ("roundtrips", Int roundtrips) ];
      Printf.printf "%6d %12d %12d %12.1f %14s\n" k roundtrips
        (List.length r) (t *. 1000.)
        (Printf.sprintf "%d tuples" (min k customers)))
    [ 1; 5; 10; 20; 50; 100; 400 ];
  print_endline
    "shape: latency falls ~1/k and flattens past the knee at k~20, the\n\
     paper's default; the hashed block join keeps large k cheap in time,\n\
     so what grows with k is the middleware block footprint."

(* ------------------------------------------------------------------ *)
(* Scan vs index access paths (backend executor)                       *)

(* The PP-k probe lands on the source as WHERE CID IN (?, ..., ?), one
   statement per block of k left tuples. With the backend index layer
   each statement is k hash-index probes; without it each statement scans
   the whole probe-side table. The sweep holds the query fixed and grows
   the probe side. That the indexed path scans nothing and both paths
   return the same rows is test_optimizer's "cost model sweep" case, over
   the same sizes. *)
let bench_scan_vs_index ?(smoke = false) () =
  banner "IDX: scan vs index access paths on the PP-k probe side";
  let customers = 100 and cards_per_customer = 10 and k = 20 in
  Printf.printf
    "%d customers PP-k joined (k=%d) against CREDIT_CARD; the matching rows\n\
     are fixed, the probe side is padded with non-matching cards, and the\n\
     same query runs with access-path selection off (scans) then on (probes)\n"
    customers k;
  Printf.printf "%10s %9s %12s %14s %12s %12s %14s\n" "card rows" "indexes"
    "full scans" "rows scanned" "idx probes" "time(ms)" "words/shipped";
  let sweep = if smoke then [ 1_000 ] else [ 1_000; 10_000; 100_000 ] in
  List.iter
    (fun rows ->
      let demo =
        Demo.create ~customers ~orders_per_customer:0 ~cards_per_customer ()
      in
      pad_cards ~index:true demo (rows - (customers * cards_per_customer));
      let server =
        Server.create ~optimizer_options:(forced k) demo.Demo.registry
      in
      let run_one indexed =
        Database.set_use_indexes demo.Demo.customer_db indexed;
        Database.set_use_indexes demo.Demo.card_db indexed;
        Demo.reset_stats demo;
        let words = Gc.minor_words () in
        let t, _ = time (fun () -> ok_exn (Server.run server card_join)) in
        let words = Gc.minor_words () -. words in
        let st = demo.Demo.card_db.Database.stats in
        (* the whole query's minor words (backend and middleware) over the
           rows the probe side shipped: recorded, not guarded *)
        let per_shipped = words /. float_of_int (max 1 st.Database.rows_shipped) in
        record "scan-vs-index"
          ~params:[ ("rows", Int rows); ("indexes", Bool indexed) ]
          [ ("wall_ms", ms t);
            ("full_scans", Int st.Database.full_scans);
            ("rows_scanned", Int st.Database.rows_scanned);
            ("index_lookups", Int st.Database.index_lookups);
            ("minor_words_per_shipped_row", Num per_shipped) ];
        Printf.printf "%10d %9s %12d %14d %12d %12.1f %14.1f\n" rows
          (if indexed then "on" else "off")
          st.Database.full_scans st.Database.rows_scanned
          st.Database.index_lookups (t *. 1000.) per_shipped;
        t
      in
      (* untimed: the plan-cache miss compiles the plan, which neither
         timed run should pay *)
      ignore (ok_exn (Server.run server card_join));
      let t_scan = run_one false in
      let t_index = run_one true in
      let sstats = Server.stats server in
      let backend = sstats.Server.st_backend in
      Printf.printf
        "%10s speedup: %.1fx   (plan cache %d hits / %d misses; backend: %d \
         probes -> %d rows, %d scans)\n"
        "" (t_scan /. t_index) sstats.Server.st_plan_cache_hits
        sstats.Server.st_plan_cache_misses backend.Database.index_lookups
        backend.Database.index_rows backend.Database.full_scans)
    sweep;
  print_endline
    "shape: scan time grows linearly with the probe side (every block\n\
     statement re-scans it) while the indexed path stays flat; the gap\n\
     widens to orders of magnitude at 100k rows."

(* ------------------------------------------------------------------ *)
(* Cost-based plan selection: chosen vs forced join methods             *)

(* The paper's Figure 3 point lookup, getProfileByID, at 2000 customers
   and 0.5 ms roundtrip latency: timed, and recorded with its statement,
   row-shipped and misestimate counts. The counts are asserted by
   test_explain's "point lookup counts" case, where they are
   deterministic. *)
let cost_model_point_lookup () =
  sub "CST: point lookup (getProfileByID, 2000 customers, 0.5 ms)";
  let demo =
    Demo.create ~customers:2000 ~db_latency:0.0005 ~service_latency:0.001 ()
  in
  let q = "getProfileByID(\"CUST0042\")" in
  let compiled = compile_exn demo.Demo.server q in
  Demo.reset_stats demo;
  let t, _ = time (fun () -> ok_exn (Server.run demo.Demo.server q)) in
  let total f =
    f demo.Demo.customer_db.Database.stats + f demo.Demo.card_db.Database.stats
  in
  let shipped = total (fun s -> s.Database.rows_shipped) in
  let statements = total (fun s -> s.Database.statements) in
  let misestimate =
    (Server.stats demo.Demo.server).Server.st_max_misestimate
  in
  Printf.printf
    "%d pushed regions, %d statements, %d rows shipped, worst misestimate \
     %.2fx, %.1f ms\n"
    (List.length (Plan_ir.regions compiled.Server.ir))
    statements shipped misestimate (t *. 1000.);
  record "CST-PL" ~params:[]
    [ ("wall_ms", ms t);
      ("statements", Int statements);
      ("rows_shipped", Int shipped);
      ("max_misestimate", Num misestimate) ]

(* The PP-k join of [q]'s compiled plan as EXPLAIN labels it: its k and
   prefetch, and inner=inl when each fetched block is hashed on the join
   keys. *)
let join_method server q =
  let ir = (compile_exn server q).Server.ir in
  let method_ (o : Plan_ir.op) =
    match o.Plan_ir.op_node with
    | Plan_ir.O_join { method_ = Cexpr.Ppk { k; prefetch }; keys; _ } ->
      Some
        (Printf.sprintf "pp-k(k=%d, prefetch=%d, inner=%s)" k prefetch
           (if keys = [] then "nl" else "inl"))
    | Plan_ir.O_join _ -> Some "(not pp-k)"
    | _ -> None
  in
  match ir.Plan_ir.tree.Plan_ir.node with
  | Plan_ir.P_pipeline { ops; _ } ->
    Option.value (List.find_map method_ ops) ~default:"(no join)"
  | _ -> "(no join)"

(* The cost model prices NL vs index-NL vs PP-k from the maintained table
   statistics and each source's latency profile, then picks k and the
   prefetch depth itself. This sweep times the same cross-database join
   with the model choosing ("chosen", default options) and with each
   classic configuration forced through the knobs: per-tuple parameter
   passing (k=1), the paper-default block size (k=20), and the unindexed
   full-scan baseline. The four variants run interleaved, one run each
   per round, so load on the host falls on all of them alike; each is
   recorded at its median over the rounds. In the full run the chosen
   median must be within 20% of the best forced one at 100k rows. The
   chosen plan's shape (PP-k with k in [5, 50], index probes, hashed
   blocks) and the variants' equal row counts are test_optimizer's
   "cost model sweep" case, over the same sizes. *)
let cst_rounds = 9

let bench_cost_model ?(smoke = false) () =
  banner "CST: cost model — chosen vs forced join methods";
  let customers = 100 and cards_per_customer = 10 and latency = 0.0005 in
  Printf.printf
    "%d customers joined cross-database against CREDIT_CARD padded to the\n\
     sweep size; %.1f ms simulated latency per roundtrip; 'chosen' lets\n\
     the cost model pick method, k and prefetch from the statistics;\n\
     times are medians of %d interleaved rounds\n"
    customers (latency *. 1000.) cst_rounds;
  Printf.printf "%10s %-12s %-34s %10s %10s\n" "card rows" "variant" "method"
    "roundtrips" "time(ms)";
  let sweep = if smoke then [ 100_000 ] else [ 1_000; 10_000; 100_000 ] in
  List.iter
    (fun rows ->
      let demo =
        Demo.create ~customers ~orders_per_customer:0 ~cards_per_customer
          ~db_latency:latency ()
      in
      pad_cards ~index:true demo (rows - (customers * cards_per_customer));
      let variants =
        List.map
          (fun (label, indexed, options) ->
            ( label,
              indexed,
              Server.create ~optimizer_options:options demo.Demo.registry,
              ref [] ))
          [ ("chosen", true, Optimizer.default_options);
            ("forced k=1", true, forced 1);
            ("forced k=20", true, forced 20);
            ("full scan", false, forced 20) ]
      in
      (* one timed run, and the card statements it sent *)
      let run_once (_, indexed, server, _) =
        Database.set_use_indexes demo.Demo.customer_db indexed;
        Database.set_use_indexes demo.Demo.card_db indexed;
        Demo.reset_stats demo;
        let t, _ = time (fun () -> ok_exn (Server.run server card_join)) in
        (t, demo.Demo.card_db.Database.stats.Database.statements)
      in
      (* warm each once: compilation out of the timing *)
      List.iter (fun v -> ignore (run_once v)) variants;
      for _ = 1 to cst_rounds do
        List.iter
          (fun ((_, _, _, runs) as v) -> runs := run_once v :: !runs)
          variants
      done;
      Database.set_use_indexes demo.Demo.customer_db true;
      Database.set_use_indexes demo.Demo.card_db true;
      let medians =
        List.map
          (fun (label, _, server, runs) ->
            let t = median (List.map fst !runs) and rt = snd (List.hd !runs) in
            record "cost-model"
              ~params:[ ("rows", Int rows); ("variant", Str label) ]
              [ ("wall_ms", ms t); ("roundtrips", Int rt) ];
            Printf.printf "%10d %-12s %-34s %10d %10.1f\n" rows label
              (join_method server card_join) rt (t *. 1000.);
            t)
          variants
      in
      match medians with
      | [ t_chosen; t_k1; t_k20; t_scan ] ->
        let best = Float.min t_k1 (Float.min t_k20 t_scan) in
        Printf.printf
          "%10s chosen %.1f ms vs best forced %.1f ms (%.2fx), full-scan \
           baseline %.1f ms\n"
          "" (t_chosen *. 1000.) (best *. 1000.) (t_chosen /. best)
          (t_scan *. 1000.);
        if (not smoke) && rows = 100_000 then
          guard (t_chosen <= 1.2 *. best)
            "CST: chosen plan %.1f ms is more than 20%% off the best forced \
             config %.1f ms at 100k rows (medians of %d interleaved rounds)"
            (t_chosen *. 1000.) (best *. 1000.) cst_rounds
      | _ -> assert false)
    sweep;
  print_endline
    "shape: the model prices k and prefetch together (blocks of k rows,\n\
     each roundtrip after the first hidden behind the previous block's\n\
     join) and lands on the flat part of the PP-k curve with the index\n\
     probe path, within 20% of the best hand-forced configuration and\n\
     orders of magnitude off the scan baseline — without any per-query\n\
     knob tuning.";
  cost_model_point_lookup ()

(* ------------------------------------------------------------------ *)
(* Group-by: pre-clustered streaming vs sort fallback (§4.2, §5.2)      *)

let bench_group_by () =
  banner "Group-by: pre-clustered streaming operator vs sort fallback (§5.2)";
  (* operator-level comparison on identical input: a clause pipeline
     iterating n pre-clustered tuples, grouped with the streaming operator
     (clustered=true) vs the fallback (clustered=false). *)
  let module C = Cexpr in
  let registry = Metadata.create () in
  let rt = Eval.runtime registry in
  let n = 60_000 in
  let groups = 2_000 in
  let input =
    (* items pre-clustered on key: 0,0,0,1,1,1,... *)
    List.init n (fun i -> Item.integer (i / (n / groups)))
  in
  let make clustered =
    C.Flwor
      { clauses =
          [ C.For { var = "x"; source = C.Var "input" };
            C.Group
              { aggs = [ ("x", "xs") ];
                keys = [ (C.Data (C.Var "x"), "k") ];
                clustered } ];
        return_ =
          C.Elem
            { name = Qname.local "G";
              optional = false;
              attrs = [];
              content =
                C.Call { fn = Names.fn "count"; args = [ C.Var "xs" ] } } }
  in
  Printf.printf "%d pre-clustered tuples, %d groups\n" n groups;
  Printf.printf "%-38s %10s %10s\n" "variant" "groups" "time(ms)";
  let measure label plan =
    (* lower outside the timed section: measure execution, not compilation *)
    let ir = Plan_ir.compile registry plan in
    let t, r =
      time (fun () ->
          ok_exn
            (Eval.execute rt ~bindings:[ ("input", input) ]
               ~counters:(Plan_ir.new_run ir) ~through:Fun.id ir))
    in
    record "GRP" ~params:[ ("variant", Str label) ]
      [ ("wall_ms", ms t); ("groups", Int (List.length r)) ];
    Printf.printf "%-38s %10d %10.1f\n" label (List.length r) (t *. 1000.)
  in
  measure "pre-clustered streaming operator" (make true);
  measure "sort/hash fallback" (make false);
  (* and the streaming operator yields its first group without consuming
     the whole input *)
  print_endline
    "shape: with clustering established by the join order, grouping is a\n\
     single adjacent-key pass — no sort, constant memory (§4.2, §5.2)."

(* ------------------------------------------------------------------ *)
(* SRT: bounded-memory external sort                                    *)

(* ORDER BY over a middleware-resident scan (pushdown off; the [mod]
   sort key is untranslatable anyway), run unbounded then with a 4096-row
   budget: the spilled sort holds at most the budget where the unbounded
   one holds the whole input. That the unbounded sort never spills and
   the spilled one writes the same bytes in >= 2 runs within the budget
   is test_extsort's "ORDER BY at bench scale" case, over the same
   sizes. *)
let bench_extsort ?(smoke = false) () =
  banner "SRT: external sort — spill-to-disk vs in-memory (bounded memory)";
  let budget = 4096 in
  let q =
    "for $c in CUSTOMER() order by fn:string-length($c/FIRST_NAME) mod 3, \
     $c/CID descending return <R>{$c/CID}</R>"
  in
  Printf.printf
    "middleware ORDER BY (multi-key, asc/desc), unbounded vs budget %d rows\n"
    budget;
  Printf.printf "%10s %12s %10s %12s %12s %12s\n" "rows" "mode" "runs"
    "spill(KB)" "peak rows" "time(ms)";
  let sweep = if smoke then [ 100_000 ] else [ 10_000; 100_000 ] in
  List.iter
    (fun rows ->
      let run mode budget_rows =
        let server =
          (Demo.create ~customers:rows ~orders_per_customer:0
             ~cards_per_customer:0
             ~optimizer_options:
               { Optimizer.default_options with
                 Optimizer.pushdown = false;
                 (* pinned (not defaulted) so ALDSP_SORT_BUDGET in the
                    environment cannot leak into the unbounded baseline *)
                 Optimizer.sort_budget_rows = budget_rows }
             ())
            .Demo.server
        in
        let t, _ =
          time (fun () ->
              Server.serialize_result server (ok_exn (Server.run server q)))
        in
        let st = Server.stats server in
        let peak =
          if budget_rows = None then rows else st.Server.st_spill_peak_resident
        in
        record "extsort"
          ~params:[ ("rows", Int rows); ("mode", Str mode) ]
          [ ("wall_ms", ms t);
            ("spill_runs", Int st.Server.st_spill_runs);
            ("spill_bytes", Int st.Server.st_spill_bytes);
            ("peak_resident_rows", Int peak) ];
        Printf.printf "%10d %12s %10d %12d %12d %12.1f\n" rows mode
          st.Server.st_spill_runs
          (st.Server.st_spill_bytes / 1024)
          peak (t *. 1000.)
      in
      run "unbounded" None;
      run "spilled" (Some budget))
    sweep;
  print_endline
    "shape: identical bytes either way; the spilled sort trades a modest\n\
     constant factor (Marshal framing + one disk round trip per row) for\n\
     peak resident rows bounded by the budget instead of the input."

(* ------------------------------------------------------------------ *)
(* Async (§5.4)                                                        *)

let bench_async () =
  banner "fn-bea:async: overlapping independent source calls (§5.4)";
  let latency = 0.03 in
  let demo = Demo.create ~customers:1 ~service_latency:latency () in
  let rating name ssn =
    Printf.sprintf
      "fn:data(getRating(<getRating><lName>{\"%s\"}</lName><ssn>{\"%s\"}</ssn></getRating>)/getRatingResult)"
      name ssn
  in
  let parts =
    [ rating "a" "1"; rating "b" "2"; rating "c" "3"; rating "d" "4" ]
  in
  let sync_q = Printf.sprintf "<R>{%s}</R>" (String.concat ", " parts) in
  let async_q =
    Printf.sprintf "<R>{%s}</R>"
      (String.concat ", "
         (List.map (fun p -> Printf.sprintf "fn-bea:async(%s)" p) parts))
  in
  let t_sync, _ = time (fun () -> run demo sync_q) in
  let t_async, _ = time (fun () -> run demo async_q) in
  record "ASY" ~params:[ ("variant", Str "sequential") ]
    [ ("wall_ms", ms t_sync) ];
  record "ASY" ~params:[ ("variant", Str "async") ] [ ("wall_ms", ms t_async) ];
  Printf.printf "4 independent calls, %.0f ms each:\n" (latency *. 1000.);
  Printf.printf "  sequential : %6.1f ms (~ 4 x latency)\n" (t_sync *. 1000.);
  Printf.printf "  async      : %6.1f ms (~ 1 x latency)\n" (t_async *. 1000.);
  Printf.printf "  speedup    : %6.2fx\n" (t_sync /. t_async)

(* ------------------------------------------------------------------ *)
(* Asynchronous source orchestration: pool size x PP-k prefetch depth   *)
(* x source latency (§4.2 + §6 asynchronous adaptors)                   *)

let bench_async_orchestration () =
  banner
    "Async orchestration: worker pool x PP-k prefetch depth x latency";
  let customers = 400 in
  let k = 5 in
  Printf.printf
    "PP-k join (k = %d, %d block roundtrips) over %d left tuples; prefetch\n\
     keeps depth+1 block queries in flight on the pool while the\n\
     middleware join runs\n"
    k (customers / k) customers;
  (* sweep pool sizes up to what the machine actually has rather than a
     fixed ladder: 1 (the overlap-free baseline), 2, half the cores, and
     the full core count *)
  let cores = Domain.recommended_domain_count () in
  let pool_sizes = List.sort_uniq compare [ 1; 2; max 1 (cores / 2); cores ] in
  Printf.printf "pool sizes swept: %s (machine has %d cores)\n"
    (String.concat ", " (List.map string_of_int pool_sizes))
    cores;
  Printf.printf "%12s %6s %10s %10s %12s %10s %10s\n" "latency(ms)" "pool"
    "prefetch" "time(ms)" "roundtrips" "overlap" "speedup";
  List.iter
    (fun latency ->
      let demo =
        Demo.create ~customers ~orders_per_customer:0 ~db_latency:latency ()
      in
      let baseline_ms = ref 0. in
      let baseline_out = ref "" in
      List.iter
        (fun workers ->
          let pool = Pool.create ~workers () in
          List.iter
            (fun prefetch ->
              let server =
                Server.create ~optimizer_options:(forced ~prefetch k) ~pool
                  ~observed:(Observed.create ()) demo.Demo.registry
              in
              (* warm once so compilation is out of the timing, then take
                 the median of 3 execution-only runs *)
              ignore (ok_exn (Server.run server card_join));
              Demo.reset_stats demo;
              let runs =
                List.init 3 (fun _ ->
                    time (fun () ->
                        Item.serialize (ok_exn (Server.run server card_join))))
              in
              let t = median (List.map fst runs) in
              if workers = 1 && prefetch = 0 then begin
                baseline_ms := t;
                baseline_out := snd (List.hd runs)
              end;
              (* prefetched blocks overlap on the pool by thread timing;
                 they must still be emitted in submission order *)
              List.iter
                (fun (_, out) ->
                  guard (String.equal out !baseline_out)
                    "PPk-pipeline: pool %d, prefetch %d, latency %g ms: \
                     result differs from pool 1, prefetch 0"
                    workers prefetch (latency *. 1000.))
                runs;
              let stats = Server.stats server in
              let speedup = !baseline_ms /. t in
              record "PPk-pipeline"
                ~params:
                  [ ("latency_ms", Num (latency *. 1000.));
                    ("pool", Int workers);
                    ("prefetch", Int prefetch) ]
                [ ("wall_ms", ms t);
                  ("roundtrips", Int stats.Server.st_roundtrips);
                  ("overlap_saved_ms", ms stats.Server.st_overlap_saved);
                  ("speedup", Num speedup) ];
              Printf.printf "%12.1f %6d %10d %10.1f %12d %9.1fms %9.2fx\n"
                (latency *. 1000.) workers prefetch (t *. 1000.)
                stats.Server.st_roundtrips
                (stats.Server.st_overlap_saved *. 1000.)
                speedup)
            [ 0; 1; 2; 4 ])
        pool_sizes)
    [ 0.0005; 0.002 ];
  print_endline
    "shape: identical results at every depth and pool size (blocks are\n\
     emitted in submission order); with prefetch >= 1 the block roundtrips\n\
     overlap the middleware join and each other, so the latency column of\n\
     the PP-k sweep is paid ~once per depth+1 blocks."

(* ------------------------------------------------------------------ *)
(* Concurrent serving layer (§5.4): client sweep through admission      *)

(* N client sessions hammer one shared server through Server.submit with
   a generous per-query deadline. The workload is the PP-k cross-database
   join whose cost is dominated by simulated source latency, so with
   [max_concurrent] executing slots the roundtrip sleeps of concurrent
   queries overlap and throughput scales until the slots saturate. Each
   sweep point records its latency percentiles and admission peaks.
   Guards: every answer byte-identical, zero rejections, zero deadline
   aborts (the deadline is generous), balanced admission counters, and
   throughput monotone 1 -> 4 clients (smoke) / > 2x at 16 clients vs 1
   (full run). *)
let bench_concurrent_serving ?(smoke = false) () =
  banner "CCX: concurrent serving layer — admission-controlled client sweep";
  let customers = 200 in
  let latency = 0.002 in
  let k = 5 in
  let demo =
    Demo.create ~customers ~orders_per_customer:0 ~db_latency:latency ()
  in
  let max_concurrent = 16 in
  let sweep = if smoke then [ 1; 4 ] else [ 1; 4; 16; 64 ] in
  let per_client = if smoke then 3 else 5 in
  Printf.printf
    "PP-k join (k=%d) over %d left tuples, %.1f ms per block roundtrip;\n\
     %d executing slots, %d queries per client, 60 s deadline per query\n"
    k customers (latency *. 1000.) max_concurrent per_client;
  Printf.printf "%8s %10s %12s %10s %10s %10s %12s\n" "clients" "queries"
    "wall(ms)" "qps" "p50(ms)" "p95(ms)" "p99(ms)";
  let qps = Hashtbl.create 4 in
  List.iter
    (fun clients ->
      let server =
        Server.create ~optimizer_options:(forced k) ~max_concurrent
          ~admission_queue:128 demo.Demo.registry
      in
      (* warm: compilation out of the timing, and the canonical answer *)
      let expected = Item.serialize (ok_exn (Server.run server card_join)) in
      let total = clients * per_client in
      let lats = Array.make total 0. in
      let failures = ref [] in
      let fail_lock = Mutex.create () in
      let worker cid () =
        let ses = Server.session server ~deadline:60.0 () in
        for j = 0 to per_client - 1 do
          let tq0 = Unix.gettimeofday () in
          (match Server.session_run ses card_join with
          | Ok items when Item.serialize items = expected -> ()
          | Ok _ ->
            Mutex.lock fail_lock;
            failures := "result bytes diverged" :: !failures;
            Mutex.unlock fail_lock
          | Error e ->
            Mutex.lock fail_lock;
            failures := Server.submit_error_to_string e :: !failures;
            Mutex.unlock fail_lock);
          lats.((cid * per_client) + j) <- Unix.gettimeofday () -. tq0
        done
      in
      let wall, () =
        time (fun () ->
            let ts =
              List.init clients (fun cid -> Thread.create (worker cid) ())
            in
            List.iter Thread.join ts)
      in
      guard (!failures = []) "CCX: %d clients: %s" clients
        (String.concat "; " !failures);
      let adm = Server.admission_stats server in
      guard (adm.Server.ad_deadline_aborts = 0)
        "CCX: %d deadline aborts under a generous 60 s deadline"
        adm.Server.ad_deadline_aborts;
      guard (adm.Server.ad_rejected = 0) "CCX: %d queries rejected Overloaded"
        adm.Server.ad_rejected;
      guard
        (adm.Server.ad_submitted = total && adm.Server.ad_completed = total
        && adm.Server.ad_active = 0 && adm.Server.ad_queued = 0)
        "CCX: admission counters do not balance after the run";
      Array.sort compare lats;
      let throughput = float_of_int total /. wall in
      let p50 = percentile lats 50. and p95 = percentile lats 95. in
      let p99 = percentile lats 99. in
      Hashtbl.replace qps clients throughput;
      record "CCX" ~params:[ ("clients", Int clients) ]
        [ ("queries", Int total);
          ("wall_ms", ms wall);
          ("qps", Num throughput);
          ("p50_ms", ms p50);
          ("p95_ms", ms p95);
          ("p99_ms", ms p99);
          ("peak_active", Int adm.Server.ad_peak_active);
          ("peak_queued", Int adm.Server.ad_peak_queued) ];
      Printf.printf "%8d %10d %12.1f %10.1f %10.1f %10.1f %12.1f\n" clients
        total (wall *. 1000.) throughput (p50 *. 1000.) (p95 *. 1000.)
        (p99 *. 1000.))
    sweep;
  let q1 = Hashtbl.find qps 1 and q4 = Hashtbl.find qps 4 in
  guard (q4 > q1)
    "CCX: throughput not monotone 1 -> 4 clients (%.1f -> %.1f qps)" q1 q4;
  if not smoke then begin
    let q16 = Hashtbl.find qps 16 in
    guard (q16 > 2. *. q1)
      "CCX: 16 clients reached only %.1f qps vs %.1f at 1 client (need > 2x)"
      q16 q1;
    Printf.printf "scaling: %.1fx at 4 clients, %.1fx at 16 clients\n"
      (q4 /. q1) (q16 /. q1)
  end
  else Printf.printf "scaling: %.1fx at 4 clients\n" (q4 /. q1);
  print_endline
    "shape: queries spend their time inside source roundtrips, so the\n\
     serving layer overlaps them across sessions; throughput climbs with\n\
     clients until the executing slots saturate, then queueing shows up\n\
     as p95/p99 latency instead of lost work."

(* ------------------------------------------------------------------ *)
(* Cross-session work sharing: single-flight coalescing + batched       *)
(* backend dispatch                                                     *)

(* N clients replay an overlapping query mix — the same cross-database
   PP-k join plus single-key customer probes — through Server.submit,
   once with work sharing off and once with it on, over the same data.
   The join's block statements are byte-identical across sessions, so
   concurrent sessions convoy on one single-flight execution per block;
   the probes differ only in the key, so the accumulation window merges
   them into one IN-list-style roundtrip. Sharing must be invisible in
   result bytes and visible in the counters: dedup_roundtrips_saved =
   coalesced_hits + batch_merges at quiescence, backend roundtrips
   sublinear in clients, and >= 2x throughput at 64 clients (the engine
   work a follower skips is serialized on the runtime lock, so saved
   roundtrips are saved wall time). The sharing machinery must not wedge
   the tail either: at the top client count the shared p99 stays within
   1.5x of the same run's unshared p99. *)
let bench_shared_workload ?(smoke = false) () =
  banner "CCS: cross-session work sharing — coalescing + batched dispatch";
  let customers = 60 in
  let latency = 0.0002 in
  let probe_q i =
    Printf.sprintf
      "for $c in CUSTOMER() where $c/CID eq \"CUST%04d\" return <P>{$c/CID, $c/FIRST_NAME}</P>"
      ((i mod 32) + 1)
  in
  let demo =
    Demo.create ~customers ~orders_per_customer:0 ~cards_per_customer:1
      ~db_latency:latency ()
  in
  (* pad the probe side so every PP-k block statement carries real engine
     work: what a coalesced follower skips is CPU, not just a sleep *)
  let pad = 12_000 in
  pad_cards demo pad;
  let max_concurrent = 32 in
  let sweep = if smoke then [ 64 ] else [ 1; 8; 64 ] in
  let per_client = if smoke then 2 else 4 in
  let query_for cid j = if j mod 2 = 0 then card_join else probe_q (cid + j) in
  Printf.printf
    "PP-k join (k=20, %d-row padded probe side) + single-key probes;\n\
     %.1f ms per roundtrip, %d executing slots, %d queries per client;\n\
     every sweep point runs sharing OFF then ON over the same data\n"
    (pad + customers) (latency *. 1000.) max_concurrent per_client;
  (* canonical bytes per distinct query: serial, sharing off, same options *)
  let expected : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let warm_server =
    Server.create ~optimizer_options:(forced 20) demo.Demo.registry
  in
  List.iter
    (fun clients ->
      for cid = 0 to clients - 1 do
        for j = 0 to per_client - 1 do
          let q = query_for cid j in
          if not (Hashtbl.mem expected q) then
            Hashtbl.replace expected q
              (Item.serialize (ok_exn (Server.run warm_server q)))
        done
      done)
    sweep;
  Printf.printf "%8s %8s %12s %10s %10s %12s %10s %8s %12s\n" "clients"
    "sharing" "wall(ms)" "qps" "p99(ms)" "roundtrips" "coalesced" "merges"
    "saved";
  let results = Hashtbl.create 8 in
  List.iter
    (fun clients ->
      let one shared =
        let server =
          Server.create ~optimizer_options:(forced 20) ~max_concurrent
            ~admission_queue:256 demo.Demo.registry
        in
        (* plan cache warm (serial, so no sharing counters move) *)
        Hashtbl.iter
          (fun q _ -> ignore (ok_exn (Server.run server q)))
          expected;
        Server.set_work_sharing server shared;
        Demo.reset_stats demo;
        let total = clients * per_client in
        let lats = Array.make total 0. in
        let failures = ref [] and fail_lock = Mutex.create () in
        let worker cid () =
          let ses = Server.session server ~deadline:120.0 () in
          for j = 0 to per_client - 1 do
            let q = query_for cid j in
            let t0 = Unix.gettimeofday () in
            (match Server.session_run ses q with
            | Ok items
              when String.equal (Item.serialize items) (Hashtbl.find expected q)
              -> ()
            | Ok _ ->
              Mutex.lock fail_lock;
              failures :=
                Printf.sprintf "client %d query %d: result bytes diverged" cid j
                :: !failures;
              Mutex.unlock fail_lock
            | Error e ->
              Mutex.lock fail_lock;
              failures := Server.submit_error_to_string e :: !failures;
              Mutex.unlock fail_lock);
            lats.((cid * per_client) + j) <- Unix.gettimeofday () -. t0
          done
        in
        let wall, () =
          time (fun () ->
              let ts =
                List.init clients (fun cid -> Thread.create (worker cid) ())
              in
              List.iter Thread.join ts)
        in
        let st = Server.stats server in
        let adm = Server.admission_stats server in
        Server.set_work_sharing server false;
        guard (!failures = []) "CCS: %d clients%s: %s" clients
          (if shared then " [shared]" else "")
          (String.concat "; " !failures);
        guard
          (adm.Server.ad_completed = total && adm.Server.ad_active = 0
          && adm.Server.ad_queued = 0 && adm.Server.ad_rejected = 0)
          "CCS: admission counters do not balance after the run";
        guard
          (st.Server.st_dedup_roundtrips_saved
          = st.Server.st_coalesced_hits + st.Server.st_batch_merges)
          "CCS: sharing counters do not balance: saved=%d coalesced=%d \
           merges=%d"
          st.Server.st_dedup_roundtrips_saved st.Server.st_coalesced_hits
          st.Server.st_batch_merges;
        guard
          (shared || st.Server.st_dedup_roundtrips_saved = 0)
          "CCS: roundtrips saved with sharing disabled";
        Array.sort compare lats;
        let qps = float_of_int total /. wall in
        let p99 = percentile lats 99. in
        let roundtrips = st.Server.st_backend.Database.statements in
        record "CCS"
          ~params:[ ("clients", Int clients); ("shared", Bool shared) ]
          [ ("wall_ms", ms wall);
            ("qps", Num qps);
            ("p99_ms", ms p99);
            ("roundtrips", Int roundtrips);
            ("coalesced_hits", Int st.Server.st_coalesced_hits);
            ("batch_merges", Int st.Server.st_batch_merges);
            ("dedup_roundtrips_saved", Int st.Server.st_dedup_roundtrips_saved)
          ];
        Printf.printf "%8d %8s %12.1f %10.1f %10.1f %12d %10d %8d %12d\n"
          clients
          (if shared then "on" else "off")
          (wall *. 1000.) qps (p99 *. 1000.) roundtrips
          st.Server.st_coalesced_hits st.Server.st_batch_merges
          st.Server.st_dedup_roundtrips_saved;
        Hashtbl.replace results (clients, shared) (qps, p99, roundtrips, st)
      in
      one false;
      one true)
    sweep;
  let top = List.fold_left max 1 sweep in
  let qps_off, p99_off, rt_off, _ = Hashtbl.find results (top, false) in
  let qps_on, p99_on, rt_on, st_top = Hashtbl.find results (top, true) in
  guard
    (st_top.Server.st_dedup_roundtrips_saved > 0)
    "CCS: no roundtrips saved at %d clients with sharing on" top;
  guard
    (st_top.Server.st_coalesced_hits > 0)
    "CCS: no coalesced statements at %d clients" top;
  guard (rt_on < rt_off)
    "CCS: sharing did not reduce backend roundtrips at %d clients (%d -> %d)"
    top rt_off rt_on;
  guard
    (top < 64 || qps_on >= 2. *. qps_off)
    "CCS: %d clients reached only %.1f qps shared vs %.1f unshared (need >= \
     2x)"
    top qps_on qps_off;
  Printf.printf "sharing speedup at %d clients: %.1fx (%.1f -> %.1f qps)\n" top
    (qps_on /. qps_off) qps_off qps_on;
  if not smoke then begin
    (* roundtrips sublinear in clients: 64 clients of shared traffic must
       cost well under 64x one client's roundtrips *)
    let _, _, rt_one, _ = Hashtbl.find results (1, true) in
    guard
      (2 * rt_on < 64 * rt_one)
      "CCS: shared roundtrips not sublinear: %d at 64 clients vs %d at 1"
      rt_on rt_one;
    guard
      (st_top.Server.st_batch_merges > 0)
      "CCS: no batched probe merges at 64 clients"
  end;
  Printf.printf "p99 at %d clients: %.1f ms shared vs %.1f ms unshared\n" top
    (p99_on *. 1000.) (p99_off *. 1000.);
  guard
    (p99_on <= 1.5 *. p99_off)
    "CCS: shared p99 %.1f ms at %d clients is past 1.5x the unshared p99 \
     %.1f ms"
    (p99_on *. 1000.) top (p99_off *. 1000.);
  print_endline
    "shape: concurrent identical block statements convoy on one execution\n\
     (single-flight) and near-simultaneous single-key probes merge into\n\
     one accumulated roundtrip; answers stay byte-identical while the\n\
     backend sees sublinear traffic."

(* ------------------------------------------------------------------ *)
(* STRM: streamed delivery — time-to-first-token and peak live tokens  *)

(* The same pushed select-project runs twice per sweep point: through the
   materialized path (Server.run + serialize — the first byte is
   deliverable only when the last one is, and the whole token stream is
   live at once) and through the streamed path (session_run_stream:
   backend cursor -> operator stream -> chunks pulled by the reader — the
   first token arrives while the backend result is still draining and at
   most one 64-token chunk is ever pulled ahead of the reader). At the
   100k-row point two timed guards run: streamed TTFT under 20% of the
   streamed end-to-end wall, and a streamed run costing at most 2.5x the
   materialized one (the target is 1.25x of the wall). Both paths run on
   the calling thread, so the cost guard compares process CPU time, the
   same work as the wall but unmoved by other load on the host; it takes
   the best of three runs of each path. The 100k point also measures
   cancellation latency: [stream_cancel] to the [Cancelled] read, over 50
   mid-stream cancels. That the streamed bytes equal the materialized
   ones, at most 64 tokens are pulled ahead and a cancel ends the stream
   in [Cancelled] is test_streaming's "bench scan at 1k/10k/100k rows"
   case, over the same sizes. *)
let stream_cost_guard = 2.5
let stream_wall_target = 1.25
let stream_pairs = 3

type stream_pair = {
  t_mat : float;
  cpu_mat : float;
  live_mat : int;
  t_stream : float;
  cpu_stream : float;
  ttft : float;
  peak : int;
}

(* One materialized run, then one streamed run whose reader serializes
   each token as it is delivered: both produce the result's bytes. *)
let measure_stream_pair server q =
  let t0 = Unix.gettimeofday () and c0 = Sys.time () in
  let items = ok_exn (Server.run server q) in
  ignore (Server.serialize_result server items);
  let t_mat = Unix.gettimeofday () -. t0 and cpu_mat = Sys.time () -. c0 in
  let live_mat = Token_stream.length (Token_stream.of_sequence items) in
  let ses = Server.session server () in
  let t0 = Unix.gettimeofday () and c0 = Sys.time () in
  match Server.session_run_stream ses q with
  | Error e -> failwith (Server.submit_error_to_string e)
  | Ok stream ->
    let ttft = ref 0. in
    let buf = Buffer.create 4096 in
    let out = Token_stream.chunk_writer (Buffer.add_string buf) in
    let rec drain () =
      match Server.stream_read stream with
      | Ok (Some tok) ->
        if !ttft = 0. then ttft := Unix.gettimeofday () -. t0;
        Token_stream.chunk_write out tok;
        drain ()
      | Ok None -> Token_stream.chunk_close out
      | Error e -> failwith (Server.submit_error_to_string e)
    in
    drain ();
    let t_stream = Unix.gettimeofday () -. t0 and cpu_stream = Sys.time () -. c0 in
    { t_mat; cpu_mat; live_mat; t_stream; cpu_stream; ttft = !ttft;
      peak = Server.stream_peak_buffered stream }

let bench_stream_cancel server q =
  let cancels = 50 in
  let lats =
    Array.init cancels (fun _ ->
        let ses = Server.session server () in
        match Server.session_run_stream ses q with
        | Error e -> failwith (Server.submit_error_to_string e)
        | Ok stream ->
          (* well into the stream: execution is live mid-result *)
          for _ = 1 to 256 do
            match Server.stream_read stream with
            | Ok (Some _) -> ()
            | Ok None -> failwith "STRM: stream ended before the cancel"
            | Error e -> failwith (Server.submit_error_to_string e)
          done;
          let t0 = Unix.gettimeofday () in
          Server.stream_cancel stream;
          (* the latency runs to the Cancelled read; any other end has
             none to record *)
          let rec to_end () =
            match Server.stream_read stream with
            | Ok (Some _) -> to_end ()
            | Error (Server.Cancelled _) -> Unix.gettimeofday () -. t0
            | Ok None -> failwith "STRM: cancelled stream ended cleanly"
            | Error e -> failwith (Server.submit_error_to_string e)
          in
          to_end ())
  in
  Array.sort compare lats;
  let p50 = percentile lats 50. and p99 = percentile lats 99. in
  record "streaming"
    ~params:[ ("mode", Str "cancel") ]
    [ ("cancels", Int cancels); ("p50_ms", ms p50); ("p99_ms", ms p99) ];
  Printf.printf "stream_cancel -> Cancelled read over %d mid-stream cancels: \
                 p50 %.3f ms, p99 %.3f ms\n"
    cancels (p50 *. 1000.) (p99 *. 1000.)

let bench_streaming ?(smoke = false) () =
  banner "STRM: streamed vs materialized delivery";
  let q =
    "for $c in CUSTOMER() where $c/SINCE ge 1900 return <R>{$c/CID}{$c/LAST_NAME}</R>"
  in
  print_endline
    "pushed select-project over CUSTOMER, delivered materialized (run +\n\
     serialize) then streamed (cursor -> chunks pulled by the reader); TTFT\n\
     is the wall time to the first delivered token";
  Printf.printf "%10s %14s %12s %10s %12s %12s\n" "rows" "mode" "ttft(ms)"
    "ttft/wall" "live tokens" "time(ms)";
  let sweep = if smoke then [ 100_000 ] else [ 1_000; 10_000; 100_000 ] in
  List.iter
    (fun rows ->
      let demo = Demo.create ~customers:rows ~orders_per_customer:0 () in
      let server = demo.Demo.server in
      let p = measure_stream_pair server q in
      (* materialized: TTFT is the full wall — nothing is deliverable
         before the result set is complete *)
      record "streaming"
        ~params:[ ("rows", Int rows); ("mode", Str "materialized") ]
        [ ("wall_ms", ms p.t_mat);
          ("ttft_ms", ms p.t_mat);
          ("peak_live_tokens", Int p.live_mat) ];
      Printf.printf "%10d %14s %12.1f %10s %12d %12.1f\n" rows "materialized"
        (p.t_mat *. 1000.) "1.00" p.live_mat (p.t_mat *. 1000.);
      let frac = p.ttft /. p.t_stream in
      record "streaming"
        ~params:[ ("rows", Int rows); ("mode", Str "streamed") ]
        [ ("wall_ms", ms p.t_stream);
          ("ttft_ms", ms p.ttft);
          ("peak_live_tokens", Int p.peak) ];
      Printf.printf "%10d %14s %12.1f %10.2f %12d %12.1f\n" rows "streamed"
        (p.ttft *. 1000.) frac p.peak (p.t_stream *. 1000.);
      if rows = 100_000 then begin
        guard (frac < 0.2)
          "STRM: first token at %.0f%% of the streamed wall — the 100k scan \
           is not streaming"
          (frac *. 100.);
        let pairs =
          p :: List.init (stream_pairs - 1) (fun _ -> measure_stream_pair server q)
        in
        let best f = List.fold_left (fun acc p -> Float.min acc (f p)) infinity pairs in
        let ratio streamed materialized = best streamed /. best materialized in
        let wall = ratio (fun p -> p.t_stream) (fun p -> p.t_mat) in
        let cpu = ratio (fun p -> p.cpu_stream) (fun p -> p.cpu_mat) in
        record "streaming"
          ~params:[ ("rows", Int rows); ("mode", Str "streamed/materialized") ]
          [ ("pairs", Int stream_pairs);
            ("wall_ratio", Num wall);
            ("cpu_ratio", Num cpu) ];
        Printf.printf
          "streamed / materialized at %d rows, best of %d runs each: wall \
           %.2fx (per-pair %s; target %.2fx), CPU %.2fx (guard %.1fx)\n"
          rows stream_pairs wall
          (String.concat " "
             (List.map
                (fun p -> Printf.sprintf "%.2fx" (p.t_stream /. p.t_mat))
                pairs))
          stream_wall_target cpu stream_cost_guard;
        guard (cpu <= stream_cost_guard)
          "STRM: streamed CPU time is %.1fx the materialized one at %d rows \
           (guard %.1fx)"
          cpu rows stream_cost_guard;
        bench_stream_cancel server q
      end)
    sweep;
  print_endline
    "shape: materialized TTFT grows with the result (delivery starts after\n\
     the last row) while streamed TTFT stays flat — the first token costs\n\
     one backend chunk — and peak live tokens drop from the whole result\n\
     to one 64-token chunk."

(* ------------------------------------------------------------------ *)
(* Function cache (§5.5)                                               *)

let bench_function_cache () =
  banner "Function cache: slow service call -> single-row lookup (§5.5)";
  let cache = Function_cache.create (Database.create "CacheDB") in
  let demo =
    Demo.create ~customers:2 ~service_latency:0.03 ~function_cache:cache ()
  in
  let name = Qname.make ~uri:"fn" "getProfileByID" in
  Metadata.set_cacheable demo.Demo.registry name true;
  Function_cache.enable cache name ~ttl_seconds:600.;
  let call () =
    ok_exn (Server.call demo.Demo.server name [ [ Item.string "CUST0001" ] ])
  in
  let t_miss, _ = time call in
  let hit_samples = List.init 20 (fun _ -> fst (time call)) in
  let t_hit =
    List.fold_left ( +. ) 0. hit_samples
    /. float_of_int (List.length hit_samples)
  in
  record "CCH" ~params:[ ("variant", Str "miss") ] [ ("wall_ms", ms t_miss) ];
  record "CCH" ~params:[ ("variant", Str "hit") ] [ ("wall_ms", ms t_hit) ];
  Printf.printf "  miss (computes, calls services) : %7.2f ms\n"
    (t_miss *. 1000.);
  Printf.printf "  hit  (one cache-table SELECT)   : %7.3f ms (avg of 20)\n"
    (t_hit *. 1000.);
  Printf.printf "  cache stats: %d hits / %d misses\n"
    (Function_cache.hits cache) (Function_cache.misses cache);
  print_endline
    "shape: a high-latency data service call becomes a single-row database\n\
     lookup; entries are shared across users because filtering runs after\n\
     the cache (§7)."

(* ------------------------------------------------------------------ *)
(* Timeout / fail-over (§5.6)                                          *)

let bench_failover () =
  banner "fn-bea:timeout / fail-over on slow and unavailable sources (§5.6)";
  let demo = Demo.create ~customers:1 () in
  let rating =
    "fn:data(getRating(<getRating><lName>{\"x\"}</lName><ssn>{\"9\"}</ssn></getRating>)/getRatingResult)"
  in
  Printf.printf "%-42s %10s %16s\n" "scenario" "time(ms)" "result";
  let scenario label q =
    let t, r = time (fun () -> run demo q) in
    record "FOV" ~params:[ ("scenario", Str label) ] [ ("wall_ms", ms t) ];
    Printf.printf "%-42s %10.1f %16s\n" label (t *. 1000.) (Item.serialize r)
  in
  demo.Demo.rating_service.Web_service.latency <- 0.002;
  scenario "healthy source, timeout 100ms"
    (Printf.sprintf "fn-bea:timeout(%s, 100, -1)" rating);
  demo.Demo.rating_service.Web_service.latency <- 0.25;
  scenario "slow source (250ms), timeout 25ms"
    (Printf.sprintf "fn-bea:timeout(%s, 25, -1)" rating);
  demo.Demo.rating_service.Web_service.latency <- 0.0;
  Web_service.set_unavailable demo.Demo.rating_service true;
  scenario "unavailable source, fail-over alternate"
    (Printf.sprintf "fn-bea:fail-over(%s, -1)" rating);
  scenario "unavailable source, () partial result"
    (Printf.sprintf "<P>{fn-bea:fail-over(%s, ())}</P>" rating);
  Web_service.set_unavailable demo.Demo.rating_service false;
  print_endline
    "shape: an incomplete-but-fast result is available at the deadline\n\
     regardless of source health."

(* ------------------------------------------------------------------ *)
(* View unfolding + source-access elimination (§4.2)                   *)

let bench_view_unfolding () =
  banner "View unfolding and source-access elimination (§4.2)";
  let customers = 50 in
  let q = "for $p in getProfile() return $p/LAST_NAME" in
  Printf.printf
    "query: %s\n(the view also integrates orders, cards and the rating \
     service)\n" q;
  Printf.printf "%-26s %12s %12s %12s %10s\n" "optimizer" "CustomerDB"
    "CardDB" "rating WS" "time(ms)";
  let variant label options =
    let demo = Demo.create ~customers ~orders_per_customer:2 () in
    let server = Server.create ?optimizer_options:options demo.Demo.registry in
    Demo.reset_stats demo;
    let t, _ = time (fun () -> ok_exn (Server.run server q)) in
    let customer = demo.Demo.customer_db.Database.stats.Database.statements in
    let card = demo.Demo.card_db.Database.stats.Database.statements in
    let rating = demo.Demo.rating_service.Web_service.stats.Web_service.calls in
    record "VWU" ~params:[ ("optimizer", Str label) ]
      [ ("wall_ms", ms t);
        ("customer_statements", Int customer);
        ("card_statements", Int card);
        ("rating_calls", Int rating) ];
    Printf.printf "%-26s %12d %12d %12d %10.1f\n" label customer card rating
      (t *. 1000.)
  in
  variant "unfold + eliminate (on)" None;
  variant "elimination disabled"
    (Some
       { Optimizer.default_options with
         Optimizer.eliminate_constructors = false });
  print_endline
    "shape: with elimination on, unused branches of the view are never\n\
     computed — the rating service is not called at all."

(* ------------------------------------------------------------------ *)
(* Plan cache + view-plan cache (§2.2, §4.2)                           *)

let bench_plan_cache () =
  banner "Plan cache and view sub-optimizer cache (§2.2, §4.2)";
  let demo = Demo.create ~customers:5 () in
  let q =
    "for $p in getProfile() where $p/LAST_NAME eq \"Jones\" return $p/CID"
  in
  let t_first, _ = time (fun () -> ok_exn (Server.run demo.Demo.server q)) in
  let t_cached, _ = time (fun () -> ok_exn (Server.run demo.Demo.server q)) in
  record "PLC" ~params:[ ("variant", Str "first") ]
    [ ("wall_ms", ms t_first) ];
  record "PLC" ~params:[ ("variant", Str "cached") ]
    [ ("wall_ms", ms t_cached) ];
  Printf.printf "same query text twice:\n";
  Printf.printf "  first run (compile + execute): %7.2f ms\n"
    (t_first *. 1000.);
  Printf.printf "  second run (plan cache hit)  : %7.2f ms\n"
    (t_cached *. 1000.);
  Printf.printf "  plan cache: %d hits / %d misses\n"
    (Server.plan_cache_hits demo.Demo.server)
    (Server.plan_cache_misses demo.Demo.server);
  let distinct_queries =
    List.init 8 (fun i ->
        Printf.sprintf
          "for $p in getProfile() where $p/CID eq \"CUST%04d\" return $p/LAST_NAME"
          (i + 1))
  in
  let t_all, _ =
    time (fun () ->
        List.iter
          (fun q -> ignore (Server.compile demo.Demo.server q))
          distinct_queries)
  in
  Printf.printf
    "8 distinct queries over the same view: %.2f ms total;\n\
     view sub-optimizer cache: %d hits / %d misses (the view body is\n\
     partially optimized once and reused, §4.2)\n"
    (t_all *. 1000.)
    (Server.view_cache_hits demo.Demo.server)
    (Server.view_cache_misses demo.Demo.server)

(* ------------------------------------------------------------------ *)
(* Inverse functions (§4.5)                                            *)

let bench_inverse () =
  banner "Inverse functions: pushing a transformed predicate (§4.5)";
  let customers = 300 in
  let q =
    "for $p in getProfile() where $p/SINCE gt xs:dateTime(\"1970-09-01T00:00:00Z\") return $p/CID"
  in
  Printf.printf "query: %s\n" q;
  Printf.printf "%-24s %16s %14s %12s\n" "inverse functions" "rows shipped"
    "selected" "time(ms)";
  let variant label use_inverse =
    let demo = Demo.create ~customers ~orders_per_customer:0 () in
    let options =
      { Optimizer.default_options with
        Optimizer.use_inverse_functions = use_inverse }
    in
    let server = Server.create ~optimizer_options:options demo.Demo.registry in
    Demo.reset_stats demo;
    let t, r = time (fun () -> ok_exn (Server.run server q)) in
    let shipped = demo.Demo.customer_db.Database.stats.Database.rows_shipped in
    record "INV" ~params:[ ("inverse_functions", Bool use_inverse) ]
      [ ("wall_ms", ms t);
        ("rows_shipped", Int shipped);
        ("selected", Int (List.length r)) ];
    Printf.printf "%-24s %16d %14d %12.1f\n" label shipped (List.length r)
      (t *. 1000.);
    match Server.compile server q with
    | Ok compiled ->
      List.iter
        (fun (db, sql) -> Printf.printf "  SQL[%s]: %s\n" db sql)
        compiled.Server.sql
    | Error _ -> ()
  in
  variant "registered (on)" true;
  variant "disabled" false;
  print_endline
    "shape: with date2int registered as int2date's inverse, the selection\n\
     is evaluated by the database (SINCE > ?); without it every row is\n\
     shipped and filtered in the middleware."

(* ------------------------------------------------------------------ *)
(* Observed-cost reordering (§9 roadmap, implemented)                  *)

let bench_observed () =
  banner "Observed cost-based ordering (§9 roadmap item, implemented)";
  (* SLOW: 4 rows behind a 2ms-per-statement source; FAST: 150 rows behind
     a 0.05ms source. An inequality join forces dependent nested-loop
     evaluation, so the outer/inner choice dominates cost. *)
  let build () =
    let slow_db = Database.create "SlowDB" ~roundtrip_latency:0.002 in
    Database.add_table slow_db
      (Table.create ~primary_key:[ "K" ] "SLOW"
         [ Table.column ~nullable:false "K" Table.T_int ]);
    let t = Result.get_ok (Database.find_table slow_db "SLOW") in
    for i = 1 to 4 do
      Result.get_ok (Table.insert t [| Sql_value.Int (i * 40) |])
    done;
    let fast_db = Database.create "FastDB" ~roundtrip_latency:0.00005 in
    Database.add_table fast_db
      (Table.create ~primary_key:[ "K" ] "FAST"
         [ Table.column ~nullable:false "K" Table.T_int ]);
    let t = Result.get_ok (Database.find_table fast_db "FAST") in
    for i = 1 to 150 do
      Result.get_ok (Table.insert t [| Sql_value.Int i |])
    done;
    let registry = Metadata.create () in
    Metadata.introspect_relational registry slow_db;
    Metadata.introspect_relational registry fast_db;
    registry
  in
  let q =
    "for $f in FAST(), $s in SLOW() where $s/K gt $f/K order by $f/K return <R>{$f/K, $s/K}</R>"
  in
  Printf.printf "query (FAST listed first): %s\n" q;
  Printf.printf "%-30s %10s %8s\n" "optimizer" "time(ms)" "rows";
  let registry = build () in
  (* the static cost model would already put SLOW outer; with it off,
     only the observations reorder the written sources *)
  let optimizer_options =
    { Optimizer.default_options with Optimizer.cost_based = false }
  in
  let plain = Server.create ~optimizer_options registry in
  let t_plain, r_plain = time (fun () -> ok_exn (Server.run plain q)) in
  record "OBS" ~params:[ ("optimizer", Str "written order") ]
    [ ("wall_ms", ms t_plain) ];
  Printf.printf "%-30s %10.1f %8d\n" "written order (FAST outer)"
    (t_plain *. 1000.) (List.length r_plain);
  let obs = Observed.create () in
  let observed_server = Server.create ~optimizer_options ~observed:obs registry in
  (* warm-up observations *)
  ignore (ok_exn (Server.run observed_server "count(SLOW())"));
  ignore (ok_exn (Server.run observed_server "count(FAST())"));
  let t_obs, r_obs = time (fun () -> ok_exn (Server.run observed_server q)) in
  record "OBS" ~params:[ ("optimizer", Str "observed-cost reorder") ]
    [ ("wall_ms", ms t_obs) ];
  Printf.printf "%-30s %10.1f %8d\n" "observed-cost reorder"
    (t_obs *. 1000.) (List.length r_obs);
  Printf.printf "  identical results: %b;  observations: %s\n"
    (Item.serialize r_plain = Item.serialize r_obs)
    (String.concat ", "
       (List.map
          (fun (fn, s) ->
            Printf.sprintf "%s lat=%.2fms card=%.0f" fn.Qname.local
              (s.Observed.mean_latency *. 1000.)
              s.Observed.mean_cardinality)
          (Observed.report obs)));
  print_endline
    "shape: with only observed behaviour (no static cost model) the\n\
     small/slow source becomes the outer branch, avoiding per-tuple\n\
     roundtrips to the expensive source."

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                             *)

let bechamel_micro () =
  banner "Bechamel microbenchmarks (compiler and runtime hot paths)";
  let open Bechamel in
  let open Toolkit in
  let demo = Demo.create ~customers:10 ~orders_per_customer:2 () in
  let compile_q =
    "for $c in CUSTOMER(), $o in ORDER_T() where $c/CID eq $o/CID return <CO>{$c/CID, $o/OID}</CO>"
  in
  let registry = demo.Demo.registry in
  let tests =
    [ Test.make ~name:"parse"
        (Staged.stage (fun () -> ignore (Xq_parser.parse_expr compile_q)));
      Test.make ~name:"compile-pipeline"
        (Staged.stage (fun () ->
             let diag = Diag.collector Diag.Fail_fast in
             let ctx =
               Normalize.context
                 ~schema_lookup:(Metadata.find_schema registry) diag
             in
             let core =
               Normalize.expr ctx (ok_exn (Xq_parser.parse_expr compile_q))
             in
             let env = Typecheck.env registry diag in
             let _, typed = Typecheck.check env core in
             let opt = Optimizer.create registry in
             let optimized, _ = Optimizer.optimize opt typed in
             ignore
               (Optimizer.select_methods opt (Pushdown.push registry optimized))));
      Test.make ~name:"execute-join-query"
        (Staged.stage (fun () ->
             ignore (ok_exn (Server.run demo.Demo.server compile_q))));
      Test.make ~name:"tuple-array-field"
        (Staged.stage (fun () ->
             let open Aldsp_tokens in
             let t =
               Tuple.of_sequences Tuple.Array_repr
                 [ [ Item.integer 1 ]; [ Item.string "x" ] ]
             in
             ignore (Tuple.field_items t 1)));
      Test.make ~name:"token-stream-roundtrip"
        (Staged.stage (fun () ->
             let open Aldsp_tokens in
             let node =
               Aldsp_xml.Node.element (Qname.local "R")
                 [ Aldsp_xml.Node.element (Qname.local "A")
                     [ Aldsp_xml.Node.atom (Atomic.Integer 7) ] ]
             in
             ignore (Token_stream.to_items (Token_stream.of_node node)))) ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false
             ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "%-28s %12.0f ns/run\n" name est
          | _ -> Printf.printf "%-28s (no estimate)\n" name)
        results)
    tests

(* ------------------------------------------------------------------ *)

let () =
  let micro = Array.exists (fun a -> a = "micro") Sys.argv in
  let smoke = Array.exists (fun a -> a = "smoke") Sys.argv in
  Printf.printf
    "ALDSP query processing benchmarks — regenerating the paper's tables,\n\
     figures and quantitative claims. Absolute numbers come from the\n\
     in-memory substrates with simulated latencies; the shapes are the\n\
     experiment (see EXPERIMENTS.md).\n";
  if smoke then begin
    (* the CI subset: each experiment's smallest point that still runs
       its timed guards *)
    bench_scan_vs_index ~smoke:true ();
    bench_cost_model ~smoke:true ();
    bench_concurrent_serving ~smoke:true ();
    bench_shared_workload ~smoke:true ();
    bench_streaming ~smoke:true ();
    bench_extsort ~smoke:true ();
    write_records "bench_smoke.json";
    print_endline "\nsmoke run completed";
    exit 0
  end;
  bench_pushdown_patterns ();
  bench_tuple_representations ();
  bench_ppk ();
  bench_scan_vs_index ();
  bench_cost_model ();
  bench_group_by ();
  bench_extsort ();
  bench_async ();
  bench_async_orchestration ();
  bench_function_cache ();
  bench_failover ();
  bench_view_unfolding ();
  bench_plan_cache ();
  bench_inverse ();
  bench_observed ();
  bench_concurrent_serving ();
  bench_shared_workload ();
  bench_streaming ();
  if micro then bechamel_micro ();
  write_records "BENCH_results.json";
  print_endline "\nall experiments completed"
