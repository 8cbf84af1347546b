(* The benchmark harness: regenerates every table and figure of the paper
   and quantifies its performance claims. See EXPERIMENTS.md for the
   experiment index and paper-vs-measured discussion.

   Run with: dune exec bench/main.exe            (all experiments)
             dune exec bench/main.exe -- micro   (adds bechamel microbenches)

   Experiment ids (DESIGN.md):
     T1a-T1f, T2g-T2i  pushdown patterns of Tables 1 and 2
     F4                tuple representations of Figure 4
     PPk               PP-k block size sweep (§4.2, default k=20)
     IDX               scan vs index access paths on the PP-k probe side
     GRP               pre-clustered streaming group-by vs sort fallback
     ASY               fn-bea:async latency overlap (§5.4)
     CCH               function cache: slow call -> single-row lookup (§5.5)
     FOV               fn-bea:timeout / fail-over behaviour (§5.6)
     VWU               view unfolding + source-access elimination (§4.2)
     PLC               plan cache and view-plan cache (§2.2, §4.2)
     INV               inverse functions enable pushdown (§4.5)
     CCX               concurrent serving layer: client sweep (§5.4)
     CCS               cross-session work sharing: coalescing + batching
     STRM              streamed delivery: TTFT + peak live tokens (§2.2)
     SRT               bounded-memory external sort: spill vs in-memory
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

(* ------------------------------------------------------------------ *)
(* Machine-readable results: every experiment appends (name, params,
   wall-time) records; the whole run is written to BENCH_results.json so
   the performance trajectory can be compared across changes. *)

let bench_results : (string * (string * string) list * float) list ref = ref []

(* [params] values must already be JSON-encoded (numbers bare, strings
   quoted by the caller) *)
let record_result name ~params seconds =
  bench_results := (name, params, seconds *. 1000.) :: !bench_results

(* A partial run (the CI smoke sweep, a single re-run experiment) must not
   clobber records other experiments already wrote to [path]: records are
   merged by benchmark name — prior records whose name this run also
   produced are replaced, every other prior record is kept. The writer
   emits one record per line, so prior lines carry over verbatim. *)
let record_name line =
  let marker = "\"name\": \"" in
  let n = String.length line and m = String.length marker in
  let rec find i =
    if i + m > n then None
    else if String.sub line i m = marker then Some (i + m)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start -> (
    match String.index_from_opt line start '"' with
    | Some stop -> Some (String.sub line start (stop - start))
    | None -> None)

let existing_records path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> ());
    close_in ic;
    List.filter_map
      (fun line ->
        let line = String.trim line in
        let line =
          if String.length line > 0 && line.[String.length line - 1] = ',' then
            String.sub line 0 (String.length line - 1)
          else line
        in
        if String.length line > 0 && line.[0] = '{' then
          Option.map (fun name -> (name, line)) (record_name line)
        else None)
      (List.rev !lines)
  end

let write_results path =
  let fresh =
    List.rev_map
      (fun (name, params, wall_ms) ->
        let fields =
          (Printf.sprintf "\"name\": \"%s\"" name)
          :: List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) params
          @ [ Printf.sprintf "\"wall_ms\": %.3f" wall_ms ]
        in
        (name, "{" ^ String.concat ", " fields ^ "}"))
      !bench_results
  in
  let fresh_names = List.sort_uniq compare (List.map fst fresh) in
  let kept =
    List.filter
      (fun (name, _) -> not (List.mem name fresh_names))
      (existing_records path)
  in
  let records = List.map snd kept @ List.map snd fresh in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf ("  " ^ r))
    records;
  Buffer.add_string buf "\n]\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "\nwrote %d result records to %s (%d fresh, %d carried over)\n"
    (List.length records) path (List.length fresh) (List.length kept)

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
  let q =
    "for $c in CUSTOMER(), $x in CREDIT_CARD() where $c/CID eq $x/CID return <R>{$c/CID, $x/NUM}</R>"
  in
  Printf.printf "%6s %12s %12s %12s %14s\n" "k" "roundtrips" "rows" "time(ms)"
    "block memory";
  List.iter
    (fun k ->
      (* knob sweep: cost-based selection off so the swept k is the k used *)
      let options =
        { Optimizer.default_options with
          Optimizer.ppk_k = k;
          cost_based = false }
      in
      let server = Server.create ~optimizer_options:options demo.Demo.registry in
      Demo.reset_stats demo;
      let t, r = time (fun () -> ok_exn (Server.run server q)) in
      record_result "PPk" ~params:[ ("k", string_of_int k) ] t;
      Printf.printf "%6d %12d %12d %12.1f %14s\n" k
        demo.Demo.card_db.Database.stats.Database.statements
        (List.length r) (t *. 1000.)
        (Printf.sprintf "%d tuples" (min k customers)))
    [ 1; 5; 10; 20; 50; 100; 400 ];
  print_endline
    "shape: latency falls ~1/k and flattens past the knee at k~20, the\n\
     paper's default; the hashed block join keeps large k cheap in time,\n\
     so what grows with k is the middleware block footprint."

(* ------------------------------------------------------------------ *)
(* Scan vs index access paths (backend executor)                       *)

(* The PP-k probe lands on the source as WHERE (CID = ? OR CID = ? ...),
   one statement per block of k left tuples. With the backend index layer
   each statement is k hash-index probes; without it each statement scans
   the whole probe-side table. The sweep holds the query fixed and grows
   the probe side. *)
let bench_scan_vs_index ?(smoke = false) () =
  banner "IDX: scan vs index access paths on the PP-k probe side";
  let customers = 100 in
  let k = 20 in
  let q =
    "for $c in CUSTOMER(), $x in CREDIT_CARD() where $c/CID eq $x/CID return <R>{$c/CID, $x/NUM}</R>"
  in
  Printf.printf
    "%d customers PP-k joined (k=%d) against CREDIT_CARD; the matching rows\n\
     are fixed, the probe side is padded with non-matching cards, and the\n\
     same query runs with access-path selection off (scans) then on (probes)\n"
    customers k;
  Printf.printf "%10s %9s %12s %14s %12s %12s\n" "card rows" "indexes"
    "full scans" "rows scanned" "idx probes" "time(ms)";
  let sweep = if smoke then [ 1_000 ] else [ 1_000; 10_000; 100_000 ] in
  List.iter
    (fun rows ->
      let cards_per_customer = 10 in
      let demo =
        Demo.create ~customers ~orders_per_customer:0 ~cards_per_customer ()
      in
      let card_table =
        ok_exn (Database.find_table demo.Demo.card_db "CREDIT_CARD")
      in
      ok_exn (Table.create_index card_table ~name:"card_cid" [ "CID" ]);
      (* grow the probe side without growing the result: bulk-load cards
         of customers outside the joined range *)
      let pad = rows - (customers * cards_per_customer) in
      let pad_rows =
        List.init (max 0 pad) (fun i ->
            [| Sql_value.Int (1_000_000 + i);
               Sql_value.Str (Printf.sprintf "PAD%06d" i);
               Sql_value.Str "0000-0000-0000";
               Sql_value.Null |])
      in
      ignore (ok_exn (Table.insert_many card_table pad_rows));
      (* pinned k: this sweep isolates the backend access path, not the
         join-method choice, so cost-based selection stays off *)
      let options =
        { Optimizer.default_options with
          Optimizer.ppk_k = k;
          cost_based = false }
      in
      let server =
        Server.create ~optimizer_options:options demo.Demo.registry
      in
      let run_one indexed =
        Database.set_use_indexes demo.Demo.customer_db indexed;
        Database.set_use_indexes demo.Demo.card_db indexed;
        Demo.reset_stats demo;
        let t, r = time (fun () -> ok_exn (Server.run server q)) in
        let st = demo.Demo.card_db.Database.stats in
        if indexed && st.Database.full_scans > 0 then
          failwith "IDX: indexed PP-k probe fell back to a full scan";
        record_result "scan-vs-index"
          ~params:
            [ ("rows", string_of_int rows);
              ("indexes", if indexed then "true" else "false") ]
          t;
        Printf.printf "%10d %9s %12d %14d %12d %12.1f\n" rows
          (if indexed then "on" else "off")
          st.Database.full_scans st.Database.rows_scanned
          st.Database.index_lookups (t *. 1000.);
        (t, List.length r)
      in
      let t_scan, n_scan = run_one false in
      let t_index, n_index = run_one true in
      if n_scan <> n_index then
        failwith "IDX: indexed and scan executions disagree on row count";
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
   and 0.5 ms roundtrip latency: timed, recorded with its statement,
   row-shipped and misestimate counts, and its EXPLAIN written to
   EXPLAIN_cost_model_point_lookup.txt for CI upload. The counts are
   asserted by test_explain's "point lookup counts" case, where they are
   deterministic. *)
let cost_model_point_lookup () =
  sub "CST: point lookup (getProfileByID, 2000 customers, 0.5 ms)";
  let demo =
    Demo.create ~customers:2000 ~db_latency:0.0005 ~service_latency:0.001 ()
  in
  let q = "getProfileByID(\"CUST0042\")" in
  let compiled =
    match Server.compile demo.Demo.server q with
    | Ok c -> c
    | Error _ -> failwith "CST: point lookup does not compile"
  in
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
  let oc = open_out "EXPLAIN_cost_model_point_lookup.txt" in
  output_string oc (ok_exn (Server.explain demo.Demo.server q));
  close_out oc;
  Printf.printf
    "%d pushed regions, %d statements, %d rows shipped, worst misestimate \
     %.2fx, %.1f ms\n"
    (List.length (Plan_ir.regions compiled.Server.ir))
    statements shipped misestimate (t *. 1000.);
  record_result "CST-PL"
    ~params:
      [ ("statements", string_of_int statements);
        ("rows_shipped", string_of_int shipped);
        ("max_misestimate", Printf.sprintf "%.2f" misestimate) ]
    t

(* One run of [q], the first on [server], so the text's view holds only
   its counters: the PP-k join's emitted rows and its per-candidate
   reconstruction let's rows, or [None] when the plan has no PP-k join
   with such a let. With the block hash join the let
   runs once per matched pair, so the two are equal on an equi-join; the
   block nested loop ran it once per (left tuple, fetched row) pair. *)
let ppk_reconstructions server q =
  let compiled =
    match Server.compile server q with
    | Ok c -> c
    | Error _ -> failwith "CST: compile failed"
  in
  ignore (ok_exn (Server.run server q));
  let ir = compiled.Server.ir in
  let rows (o : Plan_ir.op) = ir.Plan_ir.totals.(o.Plan_ir.op_id).Plan_ir.c_rows in
  match ir.Plan_ir.tree.Plan_ir.node with
  | Plan_ir.P_pipeline { ops; _ } ->
    List.find_map
      (fun (o : Plan_ir.op) ->
        match o.Plan_ir.op_node with
        | Plan_ir.O_join { method_ = Cexpr.Ppk _; right; _ } ->
          List.find_map
            (fun (r : Plan_ir.op) ->
              match r.Plan_ir.op_node with
              | Plan_ir.O_let _ ->
                Some (rows o, rows r)
              | _ -> None)
            right
        | _ -> None)
      ops
  | _ -> None

(* The cost model prices NL vs index-NL vs PP-k from the maintained table
   statistics and each source's latency profile, then picks k and the
   prefetch depth itself. This sweep runs the same cross-database join
   with the model choosing ("chosen", default options) and with each
   classic configuration forced through the knobs: per-tuple parameter
   passing (k=1), the paper-default block size (k=20), and the unindexed
   full-scan baseline. In smoke mode only the 100k point runs, with
   structural assertions — the chosen plan must be PP-k with k in [5, 50]
   probing through the index (zero full scans), hashing each block
   ([inner=inl]) so the per-candidate let runs no more often than the
   join emits rows — and the chosen plan's
   EXPLAIN is written to EXPLAIN_cost_model_<rows>.txt so CI can upload
   it as an artifact when the assertion trips. *)
let bench_cost_model ?(smoke = false) () =
  banner "CST: cost model — chosen vs forced join methods";
  let customers = 100 in
  let cards_per_customer = 10 in
  let latency = 0.0005 in
  let q =
    "for $c in CUSTOMER(), $x in CREDIT_CARD() where $c/CID eq $x/CID return <R>{$c/CID, $x/NUM}</R>"
  in
  (* the reconstruction guard needs a live per-candidate let: returning
     the whole right element keeps it (the timed field-only text has
     none) *)
  let q_live =
    "for $c in CUSTOMER(), $x in CREDIT_CARD() where $c/CID eq $x/CID return <R>{$c/CID, $x}</R>"
  in
  Printf.printf
    "%d customers joined cross-database against CREDIT_CARD padded to the\n\
     sweep size; %.1f ms simulated latency per roundtrip; 'chosen' lets\n\
     the cost model pick method, k and prefetch from the statistics\n"
    customers (latency *. 1000.);
  Printf.printf "%10s %-12s %-34s %10s %10s\n" "card rows" "variant" "method"
    "roundtrips" "time(ms)";
  (* the chosen method as EXPLAIN renders it: the text between "method="
     and its trailing counters, e.g. "pp-k(k=16, prefetch=1, inner=inl)" *)
  let chosen_method explain_text =
    let find_sub s sub from =
      let n = String.length s and m = String.length sub in
      let rec go i =
        if i + m > n then None
        else if String.sub s i m = sub then Some i
        else go (i + 1)
      in
      go from
    in
    match find_sub explain_text "method=" 0 with
    | None -> "(no join)"
    | Some i -> (
      let start = i + String.length "method=" in
      match find_sub explain_text " (est" start with
      | Some stop -> String.sub explain_text start (stop - start)
      | None -> "(unparsed)")
  in
  let ppk_k_of method_ =
    let marker = "pp-k(k=" in
    let n = String.length method_ and m = String.length marker in
    if n > m && String.sub method_ 0 m = marker then
      let rec digits i =
        if i < n && method_.[i] >= '0' && method_.[i] <= '9' then digits (i + 1)
        else i
      in
      int_of_string_opt (String.sub method_ m (digits m - m))
    else None
  in
  let sweep = if smoke then [ 100_000 ] else [ 1_000; 10_000; 100_000 ] in
  List.iter
    (fun rows ->
      let demo =
        Demo.create ~customers ~orders_per_customer:0 ~cards_per_customer
          ~db_latency:latency ()
      in
      let card_table =
        ok_exn (Database.find_table demo.Demo.card_db "CREDIT_CARD")
      in
      ok_exn (Table.create_index card_table ~name:"card_cid" [ "CID" ]);
      let pad = rows - (customers * cards_per_customer) in
      let pad_rows =
        List.init (max 0 pad) (fun i ->
            [| Sql_value.Int (1_000_000 + i);
               Sql_value.Str (Printf.sprintf "PAD%06d" i);
               Sql_value.Str "0000-0000-0000";
               Sql_value.Null |])
      in
      ignore (ok_exn (Table.insert_many card_table pad_rows));
      let run_variant label ~indexed options =
        Database.set_use_indexes demo.Demo.customer_db indexed;
        Database.set_use_indexes demo.Demo.card_db indexed;
        let server =
          Server.create ~optimizer_options:options demo.Demo.registry
        in
        let explain_text = ok_exn (Server.explain ~analyze:false server q) in
        let method_ = chosen_method explain_text in
        (* warm once (compilation out of the timing), then median of 3 *)
        ignore (ok_exn (Server.run server q));
        Demo.reset_stats demo;
        let runs =
          List.init 3 (fun _ -> time (fun () -> ok_exn (Server.run server q)))
        in
        let t, r =
          match List.sort (fun (a, _) (b, _) -> compare a b) runs with
          | [ _; median; _ ] -> median
          | _ -> assert false
        in
        let card_stats = demo.Demo.card_db.Database.stats in
        let roundtrips = card_stats.Database.statements / 3 in
        record_result "cost-model"
          ~params:
            [ ("rows", string_of_int rows);
              ("variant", Printf.sprintf "\"%s\"" label) ]
          t;
        Printf.printf "%10d %-12s %-34s %10d %10.1f\n" rows label method_
          roundtrips (t *. 1000.);
        (t, method_, explain_text, card_stats.Database.full_scans,
         List.length r)
      in
      let forced k = { Optimizer.default_options with ppk_k = k; cost_based = false } in
      let t_chosen, method_, explain_text, full_scans, n_chosen =
        run_variant "chosen" ~indexed:true Optimizer.default_options
      in
      (* the chosen plan's EXPLAIN, for inspection / CI artifact upload *)
      let artifact = Printf.sprintf "EXPLAIN_cost_model_%d.txt" rows in
      let oc = open_out artifact in
      output_string oc explain_text;
      close_out oc;
      (match ppk_k_of method_ with
      | Some k when k >= 5 && k <= 50 -> ()
      | Some k ->
        failwith
          (Printf.sprintf
             "CST: chosen k=%d outside [5, 50] at %d rows (see %s)" k rows
             artifact)
      | None ->
        failwith
          (Printf.sprintf
             "CST: cost model did not choose PP-k at %d rows (method %s, \
              see %s)"
             rows method_ artifact));
      if full_scans > 0 then
        failwith
          (Printf.sprintf
             "CST: chosen plan fell back to %d full scan(s) at %d rows \
              (see %s)"
             full_scans rows artifact);
      if not (String.ends_with ~suffix:"inner=inl)" method_) then
        failwith
          (Printf.sprintf
             "CST: chosen PP-k join does not hash its blocks at %d rows \
              (method %s, see %s)"
             rows method_ artifact);
      (match ppk_reconstructions (Server.create demo.Demo.registry) q_live with
      | Some (joined, reconstructed) when reconstructed <= joined ->
        Printf.printf "%10s per-candidate let act=%d, join act=%d\n" ""
          reconstructed joined
      | Some (joined, reconstructed) ->
        failwith
          (Printf.sprintf
             "CST: per-candidate let act=%d exceeds the join's act=%d at \
              %d rows: the block join is not hashing (see %s)"
             reconstructed joined rows artifact)
      | None ->
        failwith
          (Printf.sprintf
             "CST: chosen plan has no PP-k join with a reconstruction let \
              at %d rows (see %s)"
             rows artifact));
      let t_k1, _, _, _, n_k1 =
        run_variant "forced k=1" ~indexed:true (forced 1)
      in
      let t_k20, _, _, _, n_k20 =
        run_variant "forced k=20" ~indexed:true (forced 20)
      in
      let t_scan, _, _, _, n_scan =
        run_variant "full scan" ~indexed:false (forced 20)
      in
      Database.set_use_indexes demo.Demo.customer_db true;
      Database.set_use_indexes demo.Demo.card_db true;
      if not (n_chosen = n_k1 && n_k1 = n_k20 && n_k20 = n_scan) then
        failwith "CST: variants disagree on result row count";
      let best = List.fold_left Float.min t_k1 [ t_k20; t_scan ] in
      Printf.printf
        "%10s chosen %.1f ms vs best forced %.1f ms (%.2fx), full-scan \
         baseline %.1f ms\n"
        "" (t_chosen *. 1000.) (best *. 1000.)
        (t_chosen /. best)
        (t_scan *. 1000.);
      if (not smoke) && rows = 100_000 && t_chosen > 1.2 *. best then
        failwith
          (Printf.sprintf
             "CST: chosen plan %.1f ms is more than 20%% off the best \
              forced config %.1f ms at 100k rows"
             (t_chosen *. 1000.) (best *. 1000.)))
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
   budget. The spilled run must produce byte-identical output while its
   peak resident rows stay within the budget — the unbounded sort holds
   the whole input. Smoke mode runs only the 100k point; the structural
   assertions (byte identity, >= 2 runs spilled, peak resident <= budget)
   hold in every mode. *)
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
      let make budget_rows =
        Demo.create ~customers:rows ~orders_per_customer:0
          ~cards_per_customer:0
          ~optimizer_options:
            { Optimizer.default_options with
              Optimizer.pushdown = false;
              (* pinned (not defaulted) so ALDSP_SORT_BUDGET in the
                 environment cannot leak into the unbounded baseline *)
              Optimizer.sort_budget_rows = budget_rows }
          ()
      in
      let unbounded = make None in
      let t_mem, expected =
        time (fun () ->
            Server.serialize_result unbounded.Demo.server
              (ok_exn (Server.run unbounded.Demo.server q)))
      in
      let st_mem = Server.stats unbounded.Demo.server in
      if st_mem.Server.st_spill_runs <> 0 then
        failwith "SRT: the unbounded sort spilled";
      record_result "extsort"
        ~params:
          [ ("rows", string_of_int rows);
            ("mode", "\"unbounded\"");
            ("spill_runs", "0");
            ("spill_bytes", "0");
            ("peak_resident_rows", string_of_int rows) ]
        t_mem;
      Printf.printf "%10d %12s %10d %12d %12d %12.1f\n" rows "unbounded" 0 0
        rows (t_mem *. 1000.);
      let spilled = make (Some budget) in
      let t_spill, got =
        time (fun () ->
            Server.serialize_result spilled.Demo.server
              (ok_exn (Server.run spilled.Demo.server q)))
      in
      let st = Server.stats spilled.Demo.server in
      if not (String.equal expected got) then
        failwith
          (Printf.sprintf "SRT: spilled output diverged at %d rows" rows);
      if st.Server.st_spill_runs < 2 then
        failwith
          (Printf.sprintf "SRT: expected >= 2 spilled runs, saw %d"
             st.Server.st_spill_runs);
      if st.Server.st_spill_peak_resident > budget then
        failwith
          (Printf.sprintf
             "SRT: peak resident rows %d exceeded the %d-row budget"
             st.Server.st_spill_peak_resident budget);
      record_result "extsort"
        ~params:
          [ ("rows", string_of_int rows);
            ("mode", "\"spilled\"");
            ("spill_runs", string_of_int st.Server.st_spill_runs);
            ("spill_bytes", string_of_int st.Server.st_spill_bytes);
            ("peak_resident_rows",
             string_of_int st.Server.st_spill_peak_resident) ]
        t_spill;
      Printf.printf "%10d %12s %10d %12d %12d %12.1f\n" rows "spilled"
        st.Server.st_spill_runs
        (st.Server.st_spill_bytes / 1024)
        st.Server.st_spill_peak_resident (t_spill *. 1000.))
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
  record_result "ASY" ~params:[ ("variant", "\"sequential\"") ] t_sync;
  record_result "ASY" ~params:[ ("variant", "\"async\"") ] t_async;
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
  let q =
    "for $c in CUSTOMER(), $x in CREDIT_CARD() where $c/CID eq $x/CID return <R>{$c/CID, $x/NUM}</R>"
  in
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
              let options =
                { Optimizer.default_options with
                  Optimizer.ppk_k = k;
                  Optimizer.ppk_prefetch = prefetch;
                  cost_based = false }
              in
              let obs = Observed.create () in
              let server =
                Server.create ~optimizer_options:options ~pool ~observed:obs
                  demo.Demo.registry
              in
              (* warm once so compilation is out of the timing, then take
                 the median of 3 execution-only runs *)
              ignore (ok_exn (Server.run server q));
              Demo.reset_stats demo;
              let runs =
                List.init 3 (fun _ ->
                    time (fun () -> ok_exn (Server.run server q)))
              in
              let t, r =
                match List.sort (fun (a, _) (b, _) -> compare a b) runs with
                | [ _; median; _ ] -> median
                | _ -> assert false
              in
              let stats = Server.stats server in
              if workers = 1 && prefetch = 0 then begin
                baseline_ms := t;
                baseline_out := Item.serialize r
              end
              else if Item.serialize r <> !baseline_out then
                failwith "async orchestration: result differs from baseline!";
              let speedup = !baseline_ms /. t in
              record_result "PPk-pipeline"
                ~params:
                  [ ("latency_ms", Printf.sprintf "%g" (latency *. 1000.));
                    ("pool", string_of_int workers);
                    ("prefetch", string_of_int prefetch);
                    ("roundtrips", string_of_int stats.Server.st_roundtrips);
                    ("speedup", Printf.sprintf "%.2f" speedup) ]
                t;
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
   queries overlap and throughput scales until the slots saturate.
   Latency percentiles for every sweep point are written to
   CCX_latency.json. Assertions: every answer byte-identical, zero
   rejections, zero deadline aborts (the deadline is generous), balanced
   admission counters, and throughput monotone 1 -> 4 clients (smoke) /
   > 2x at 16 clients vs 1 (full run). *)
let bench_concurrent_serving ?(smoke = false) () =
  banner "CCX: concurrent serving layer — admission-controlled client sweep";
  let customers = 200 in
  let latency = 0.002 in
  let k = 5 in
  let q =
    "for $c in CUSTOMER(), $x in CREDIT_CARD() where $c/CID eq $x/CID return <R>{$c/CID, $x/NUM}</R>"
  in
  let demo =
    Demo.create ~customers ~orders_per_customer:0 ~db_latency:latency ()
  in
  let options =
    { Optimizer.default_options with Optimizer.ppk_k = k; cost_based = false }
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
  let percentile sorted p =
    let n = Array.length sorted in
    sorted.(min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1))
  in
  let qps = Hashtbl.create 4 in
  let json_lines = ref [] in
  let expected = ref "" in
  List.iter
    (fun clients ->
      let server =
        Server.create ~optimizer_options:options ~max_concurrent
          ~admission_queue:128 demo.Demo.registry
      in
      (* warm: compilation out of the timing, and the canonical answer *)
      expected := Item.serialize (ok_exn (Server.run server q));
      let total = clients * per_client in
      let lats = Array.make total 0. in
      let failures = ref [] in
      let fail_lock = Mutex.create () in
      let worker cid () =
        let ses = Server.session server ~deadline:60.0 () in
        for j = 0 to per_client - 1 do
          let tq0 = Unix.gettimeofday () in
          (match Server.session_run ses q with
          | Ok items when Item.serialize items = !expected -> ()
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
      (match !failures with
      | [] -> ()
      | msg :: _ ->
        failwith (Printf.sprintf "CCX: %d clients: %s" clients msg));
      let adm = Server.admission_stats server in
      if adm.Server.ad_deadline_aborts <> 0 then
        failwith
          (Printf.sprintf
             "CCX: %d deadline aborts under a generous 60 s deadline"
             adm.Server.ad_deadline_aborts);
      if adm.Server.ad_rejected <> 0 then
        failwith
          (Printf.sprintf "CCX: %d queries rejected Overloaded"
             adm.Server.ad_rejected);
      if adm.Server.ad_submitted <> total || adm.Server.ad_completed <> total
         || adm.Server.ad_active <> 0 || adm.Server.ad_queued <> 0 then
        failwith "CCX: admission counters do not balance after the run";
      Array.sort compare lats;
      let throughput = float_of_int total /. wall in
      let p50 = percentile lats 50. and p95 = percentile lats 95. in
      let p99 = percentile lats 99. in
      Hashtbl.replace qps clients throughput;
      record_result "CCX"
        ~params:
          [ ("clients", string_of_int clients);
            ("qps", Printf.sprintf "%.1f" throughput);
            ("p95_ms", Printf.sprintf "%.2f" (p95 *. 1000.)) ]
        wall;
      json_lines :=
        Printf.sprintf
          "{\"clients\": %d, \"queries\": %d, \"wall_ms\": %.3f, \"qps\": \
           %.2f, \"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f, \
           \"peak_active\": %d, \"peak_queued\": %d}"
          clients total (wall *. 1000.) throughput (p50 *. 1000.)
          (p95 *. 1000.) (p99 *. 1000.) adm.Server.ad_peak_active
          adm.Server.ad_peak_queued
        :: !json_lines;
      Printf.printf "%8d %10d %12.1f %10.1f %10.1f %10.1f %12.1f\n" clients
        total (wall *. 1000.) throughput (p50 *. 1000.) (p95 *. 1000.)
        (p99 *. 1000.))
    sweep;
  let oc = open_out "CCX_latency.json" in
  output_string oc
    ("[\n  " ^ String.concat ",\n  " (List.rev !json_lines) ^ "\n]\n");
  close_out oc;
  print_endline "latency percentiles written to CCX_latency.json";
  let q1 = Hashtbl.find qps 1 and q4 = Hashtbl.find qps 4 in
  if q4 <= q1 then
    failwith
      (Printf.sprintf
         "CCX: throughput not monotone 1 -> 4 clients (%.1f -> %.1f qps)" q1
         q4);
  if not smoke then begin
    let q16 = Hashtbl.find qps 16 in
    if q16 <= 2. *. q1 then
      failwith
        (Printf.sprintf
           "CCX: 16 clients reached only %.1f qps vs %.1f at 1 client \
            (need > 2x)"
           q16 q1);
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
(* Cross-session work sharing (tentpole): single-flight coalescing +    *)
(* batched backend dispatch                                             *)

let find_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let json_float_field line key =
  match find_substring line (Printf.sprintf "\"%s\": " key) with
  | None -> None
  | Some i ->
    let start = i + String.length key + 4 in
    let n = String.length line in
    let stop = ref start in
    while
      !stop < n
      && (match line.[!stop] with '0' .. '9' | '.' | '-' -> true | _ -> false)
    do
      incr stop
    done;
    float_of_string_opt (String.sub line start (!stop - start))

(* The p99 of a given client count recorded in a CCX_latency.json file —
   used to guard the shared run against the serving-layer baseline the
   previous change committed. *)
let ccx_baseline_p99 path ~clients =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in path in
    let needle = Printf.sprintf "\"clients\": %d," clients in
    let found = ref None in
    (try
       while true do
         let line = input_line ic in
         if !found = None && find_substring line needle <> None then
           found := json_float_field line "p99_ms"
       done
     with End_of_file -> ());
    close_in ic;
    !found
  end

(* N clients replay an overlapping query mix — the same cross-database
   PP-k join plus single-key customer probes — through Server.submit,
   once with work sharing off and once with it on. The join's block
   statements are byte-identical across sessions, so concurrent sessions
   convoy on one single-flight execution per block; the probes differ
   only in the key, so the accumulation window merges them into one
   IN-list-style roundtrip. Sharing must be invisible in result bytes
   and visible in the counters: dedup_roundtrips_saved = coalesced_hits
   + batch_merges at quiescence, backend roundtrips sublinear in
   clients, and >= 2x throughput at 64 clients (the engine work a
   follower skips is serialized on the runtime lock, so saved roundtrips
   are saved wall time). Per-sweep-point numbers land in
   CCX_shared.json. *)
let bench_shared_workload ?(smoke = false) ?baseline_p99_ms () =
  banner "CCS: cross-session work sharing — coalescing + batched dispatch";
  let customers = 60 in
  let latency = 0.0002 in
  let join_q =
    "for $c in CUSTOMER(), $x in CREDIT_CARD() where $c/CID eq $x/CID return <R>{$c/CID, $x/NUM}</R>"
  in
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
  let card_table =
    ok_exn (Database.find_table demo.Demo.card_db "CREDIT_CARD")
  in
  let pad = 12_000 in
  let pad_rows =
    List.init pad (fun i ->
        [| Sql_value.Int (1_000_000 + i);
           Sql_value.Str (Printf.sprintf "PAD%06d" i);
           Sql_value.Str "0000-0000-0000";
           Sql_value.Null |])
  in
  ignore (ok_exn (Table.insert_many card_table pad_rows));
  let options =
    { Optimizer.default_options with Optimizer.ppk_k = 20; cost_based = false }
  in
  let max_concurrent = 32 in
  let sweep = if smoke then [ 64 ] else [ 1; 8; 64 ] in
  let per_client = if smoke then 2 else 4 in
  let query_for cid j = if j mod 2 = 0 then join_q else probe_q (cid + j) in
  Printf.printf
    "PP-k join (k=20, %d-row padded probe side) + single-key probes;\n\
     %.1f ms per roundtrip, %d executing slots, %d queries per client;\n\
     every sweep point runs sharing OFF then ON over the same data\n"
    (pad + customers) (latency *. 1000.) max_concurrent per_client;
  (* canonical bytes per distinct query: serial, sharing off, same options *)
  let expected : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let warm_server =
    Server.create ~optimizer_options:options demo.Demo.registry
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
  let percentile sorted p =
    let n = Array.length sorted in
    sorted.(min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1))
  in
  Printf.printf "%8s %8s %12s %10s %10s %12s %10s %8s %12s\n" "clients"
    "sharing" "wall(ms)" "qps" "p99(ms)" "roundtrips" "coalesced" "merges"
    "saved";
  let results = Hashtbl.create 8 in
  let json_lines = ref [] in
  List.iter
    (fun clients ->
      let one shared =
        let server =
          Server.create ~optimizer_options:options ~max_concurrent
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
        (match !failures with
        | [] -> ()
        | msg :: _ ->
          failwith
            (Printf.sprintf "CCS: %d clients%s: %s" clients
               (if shared then " [shared]" else "")
               msg));
        if
          adm.Server.ad_completed <> total || adm.Server.ad_active <> 0
          || adm.Server.ad_queued <> 0 || adm.Server.ad_rejected <> 0
        then failwith "CCS: admission counters do not balance after the run";
        if
          st.Server.st_dedup_roundtrips_saved
          <> st.Server.st_coalesced_hits + st.Server.st_batch_merges
        then
          failwith
            (Printf.sprintf
               "CCS: sharing counters do not balance: saved=%d coalesced=%d \
                merges=%d"
               st.Server.st_dedup_roundtrips_saved st.Server.st_coalesced_hits
               st.Server.st_batch_merges);
        if (not shared) && st.Server.st_dedup_roundtrips_saved <> 0 then
          failwith "CCS: roundtrips saved with sharing disabled";
        Array.sort compare lats;
        let qps = float_of_int total /. wall in
        let p99 = percentile lats 99. *. 1000. in
        let roundtrips = st.Server.st_backend.Database.statements in
        record_result "CCS"
          ~params:
            [ ("clients", string_of_int clients);
              ("shared", if shared then "true" else "false");
              ("qps", Printf.sprintf "%.1f" qps);
              ("saved", string_of_int st.Server.st_dedup_roundtrips_saved) ]
          wall;
        Printf.printf "%8d %8s %12.1f %10.1f %10.1f %12d %10d %8d %12d\n"
          clients
          (if shared then "on" else "off")
          (wall *. 1000.) qps p99 roundtrips st.Server.st_coalesced_hits
          st.Server.st_batch_merges st.Server.st_dedup_roundtrips_saved;
        Hashtbl.replace results (clients, shared) (qps, p99, roundtrips, st)
      in
      one false;
      one true;
      let (qps_off, p99_off, rt_off, _) = Hashtbl.find results (clients, false) in
      let (qps_on, p99_on, rt_on, st) = Hashtbl.find results (clients, true) in
      json_lines :=
        Printf.sprintf
          "{\"clients\": %d, \"qps_unshared\": %.2f, \"qps_shared\": %.2f, \
           \"p99_unshared_ms\": %.3f, \"p99_shared_ms\": %.3f, \
           \"roundtrips_unshared\": %d, \"roundtrips_shared\": %d, \
           \"coalesced_hits\": %d, \"batch_merges\": %d, \
           \"dedup_roundtrips_saved\": %d}"
          clients qps_off qps_on p99_off p99_on rt_off rt_on
          st.Server.st_coalesced_hits st.Server.st_batch_merges
          st.Server.st_dedup_roundtrips_saved
        :: !json_lines)
    sweep;
  let oc = open_out "CCX_shared.json" in
  output_string oc
    ("[\n  " ^ String.concat ",\n  " (List.rev !json_lines) ^ "\n]\n");
  close_out oc;
  print_endline "work-sharing sweep written to CCX_shared.json";
  let top = List.fold_left max 1 sweep in
  let (qps_off, _, rt_off, _) = Hashtbl.find results (top, false) in
  let (qps_on, p99_on, rt_on, st_top) = Hashtbl.find results (top, true) in
  if st_top.Server.st_dedup_roundtrips_saved <= 0 then
    failwith
      (Printf.sprintf
         "CCS: no roundtrips saved at %d clients with sharing on" top);
  if st_top.Server.st_coalesced_hits <= 0 then
    failwith
      (Printf.sprintf "CCS: no coalesced statements at %d clients" top);
  if rt_on >= rt_off then
    failwith
      (Printf.sprintf
         "CCS: sharing did not reduce backend roundtrips at %d clients (%d \
          -> %d)"
         top rt_off rt_on);
  if top >= 64 && qps_on < 2. *. qps_off then
    failwith
      (Printf.sprintf
         "CCS: %d clients reached only %.1f qps shared vs %.1f unshared \
          (need >= 2x)"
         top qps_on qps_off);
  Printf.printf "sharing speedup at %d clients: %.1fx (%.1f -> %.1f qps)\n" top
    (qps_on /. qps_off) qps_off qps_on;
  if not smoke then begin
    (* roundtrips sublinear in clients: 64 clients of shared traffic must
       cost well under 64x one client's roundtrips *)
    let (_, _, rt_one, _) = Hashtbl.find results (1, true) in
    if 2 * rt_on >= 64 * rt_one then
      failwith
        (Printf.sprintf
           "CCS: shared roundtrips not sublinear: %d at 64 clients vs %d at 1"
           rt_on rt_one);
    let (_, _, _, st1) = Hashtbl.find results (64, true) in
    if st1.Server.st_batch_merges <= 0 then
      failwith "CCS: no batched probe merges at 64 clients"
  end;
  (* tail-latency guard against the committed serving-layer baseline: the
     sharing machinery must not wedge the 64-client p99 *)
  (match baseline_p99_ms with
  | Some base when top >= 64 ->
    Printf.printf "p99 at %d clients: %.1f ms shared vs %.1f ms baseline\n"
      top p99_on base;
    if p99_on > 1.5 *. base then
      failwith
        (Printf.sprintf
           "CCS: shared p99 %.1f ms regressed past 1.5x the serving-layer \
            baseline %.1f ms"
           p99_on base)
  | _ -> print_endline "p99 baseline unavailable; regression guard skipped");
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
   most one 64-token chunk is ever pulled ahead of the reader). Both runs
   must produce byte-identical output. In smoke mode only the 100k-row
   point runs, with the structural assertions: streamed TTFT under 20% of
   the streamed end-to-end wall, at most 64 tokens pulled ahead, and a
   streamed run costing at most 2.5x the materialized one (the target is
   1.25x of the wall). Both paths run on the calling thread, so the guard
   compares process CPU time, the same work as the wall but unmoved by
   other load on the host; it takes the best of three runs of each path.
   The 100k point also measures cancellation latency: [stream_cancel] to
   the [Cancelled] read, over 50 mid-stream cancels. *)
let stream_cost_guard = 2.5
let stream_wall_target = 1.25
let stream_pairs = 3
let stream_peak_bound = 64

type stream_pair = {
  t_mat : float;
  cpu_mat : float;
  live_mat : int;
  t_stream : float;
  cpu_stream : float;
  ttft : float;
  peak : int;
}

(* One materialized run, then one streamed run whose tokens are
   collected as delivered and serialized afterwards for the byte check. *)
let measure_stream_pair server q =
  let t0 = Unix.gettimeofday () and c0 = Sys.time () in
  let items = ok_exn (Server.run server q) in
  let expected = Server.serialize_result server items in
  let t_mat = Unix.gettimeofday () -. t0 and cpu_mat = Sys.time () -. c0 in
  let live_mat = Token_stream.length (Token_stream.of_sequence items) in
  let ses = Server.session server () in
  let t0 = Unix.gettimeofday () and c0 = Sys.time () in
  match Server.session_run_stream ses q with
  | Error e -> failwith (Server.submit_error_to_string e)
  | Ok stream ->
    let ttft = ref 0. in
    let tokens = ref [] in
    let rec drain () =
      match Server.stream_read stream with
      | Ok (Some tok) ->
        if !ttft = 0. then ttft := Unix.gettimeofday () -. t0;
        tokens := tok :: !tokens;
        drain ()
      | Ok None -> ()
      | Error e -> failwith (Server.submit_error_to_string e)
    in
    drain ();
    let t_stream = Unix.gettimeofday () -. t0 and cpu_stream = Sys.time () -. c0 in
    let peak = Server.stream_peak_buffered stream in
    let buf = Buffer.create (String.length expected) in
    Token_stream.serialize_to buf (List.to_seq (List.rev !tokens));
    if not (String.equal expected (Buffer.contents buf)) then
      failwith "STRM: streamed delivery diverged from materialized";
    if peak > stream_peak_bound then
      failwith
        (Printf.sprintf "STRM: %d tokens pulled ahead of the reader (bound %d)"
           peak stream_peak_bound);
    { t_mat; cpu_mat; live_mat; t_stream; cpu_stream; ttft = !ttft; peak }

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
  let pct p = lats.(min (cancels - 1) (int_of_float (ceil (p *. float_of_int cancels)) - 1)) in
  let p50 = pct 0.5 and p99 = pct 0.99 in
  record_result "streaming"
    ~params:
      [ ("mode", "\"cancel\"");
        ("cancels", string_of_int cancels);
        ("p50_ms", Printf.sprintf "%.3f" (p50 *. 1000.));
        ("p99_ms", Printf.sprintf "%.3f" (p99 *. 1000.)) ]
    p50;
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
      record_result "streaming"
        ~params:
          [ ("rows", string_of_int rows);
            ("mode", "\"materialized\"");
            ("ttft_ms", Printf.sprintf "%.3f" (p.t_mat *. 1000.));
            ("peak_live_tokens", string_of_int p.live_mat) ]
        p.t_mat;
      Printf.printf "%10d %14s %12.1f %10s %12d %12.1f\n" rows "materialized"
        (p.t_mat *. 1000.) "1.00" p.live_mat (p.t_mat *. 1000.);
      let frac = p.ttft /. p.t_stream in
      record_result "streaming"
        ~params:
          [ ("rows", string_of_int rows);
            ("mode", "\"streamed\"");
            ("ttft_ms", Printf.sprintf "%.3f" (p.ttft *. 1000.));
            ("peak_live_tokens", string_of_int p.peak) ]
        p.t_stream;
      Printf.printf "%10d %14s %12.1f %10.2f %12d %12.1f\n" rows "streamed"
        (p.ttft *. 1000.) frac p.peak (p.t_stream *. 1000.);
      if rows = 100_000 then begin
        if frac >= 0.2 then
          failwith
            (Printf.sprintf
               "STRM: first token at %.0f%% of the streamed wall — the 100k \
                scan is not streaming"
               (frac *. 100.));
        let pairs =
          p :: List.init (stream_pairs - 1) (fun _ -> measure_stream_pair server q)
        in
        let best f = List.fold_left (fun acc p -> Float.min acc (f p)) infinity pairs in
        let ratio streamed materialized = best streamed /. best materialized in
        let wall = ratio (fun p -> p.t_stream) (fun p -> p.t_mat) in
        let cpu = ratio (fun p -> p.cpu_stream) (fun p -> p.cpu_mat) in
        List.iter
          (fun (mode, r) ->
            record_result "streaming"
              ~params:
                [ ("rows", string_of_int rows);
                  ("mode", Printf.sprintf "%S" mode);
                  ("pairs", string_of_int stream_pairs);
                  ("ratio", Printf.sprintf "%.3f" r) ]
              p.t_stream)
          [ ("wall_ratio", wall); ("cpu_ratio", cpu) ];
        Printf.printf
          "streamed / materialized at %d rows, best of %d runs each: wall \
           %.2fx (per-pair %s; target %.2fx), CPU %.2fx (guard %.1fx)\n"
          rows stream_pairs wall
          (String.concat " "
             (List.map
                (fun p -> Printf.sprintf "%.2fx" (p.t_stream /. p.t_mat))
                pairs))
          stream_wall_target cpu stream_cost_guard;
        if cpu > stream_cost_guard then
          failwith
            (Printf.sprintf
               "STRM: streamed CPU time is %.1fx the materialized one at %d \
                rows (guard %.1fx)"
               cpu rows stream_cost_guard);
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
  record_result "CCH" ~params:[ ("variant", "\"miss\"") ] t_miss;
  record_result "CCH" ~params:[ ("variant", "\"hit\"") ] t_hit;
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
    Printf.printf "%-26s %12d %12d %12d %10.1f\n" label
      demo.Demo.customer_db.Database.stats.Database.statements
      demo.Demo.card_db.Database.stats.Database.statements
      demo.Demo.rating_service.Web_service.stats.Web_service.calls
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
  record_result "PLC" ~params:[ ("variant", "\"first\"") ] t_first;
  record_result "PLC" ~params:[ ("variant", "\"cached\"") ] t_cached;
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
    Printf.printf "%-24s %16d %14d %12.1f\n" label
      demo.Demo.customer_db.Database.stats.Database.rows_shipped
      (List.length r) (t *. 1000.);
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
  let plain = Server.create registry in
  let t_plain, r_plain = time (fun () -> ok_exn (Server.run plain q)) in
  Printf.printf "%-30s %10.1f %8d\n" "written order (FAST outer)"
    (t_plain *. 1000.) (List.length r_plain);
  let obs = Observed.create () in
  let observed_server = Server.create ~observed:obs registry in
  (* warm-up observations *)
  ignore (ok_exn (Server.run observed_server "count(SLOW())"));
  ignore (ok_exn (Server.run observed_server "count(FAST())"));
  let t_obs, r_obs = time (fun () -> ok_exn (Server.run observed_server q)) in
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
  (* the committed serving-layer baseline, read before any experiment
     rewrites CCX_latency.json (the smoke CCX sweep has no 64-client
     point; the checked-in file from the serving-layer change does) *)
  let baseline_p99_ms = ccx_baseline_p99 "CCX_latency.json" ~clients:64 in
  if smoke then begin
    (* CI smoke: one tiny access-path sweep point, plus the cost-model
       structural assertions at 100k rows (chosen plan is PP-k with k in
       [5, 50] on the index probe path) and on the getProfileByID point
       lookup (card region parameterized, <= 5 rows shipped, 2 statements,
       worst misestimate <= 1.5x), with the full result plumbing *)
    bench_scan_vs_index ~smoke:true ();
    bench_cost_model ~smoke:true ();
    bench_concurrent_serving ~smoke:true ();
    bench_shared_workload ~smoke:true ?baseline_p99_ms ();
    bench_streaming ~smoke:true ();
    bench_extsort ~smoke:true ();
    write_results "BENCH_results.json";
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
  (* the full CCX sweep just refreshed CCX_latency.json with a same-machine
     64-client point: prefer it over the committed baseline *)
  let baseline_p99_ms =
    match ccx_baseline_p99 "CCX_latency.json" ~clients:64 with
    | Some _ as fresh -> fresh
    | None -> baseline_p99_ms
  in
  bench_shared_workload ?baseline_p99_ms ();
  bench_streaming ();
  if micro then bechamel_micro ();
  write_results "BENCH_results.json";
  print_endline "\nall experiments completed"
