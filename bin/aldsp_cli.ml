(* aldsp — a command-line console for the data services platform.

   Subcommands:
     run      compile and run an XQuery against the demo enterprise
     explain  show the compiled plan and the SQL pushed to each source
     check    design-time check of a data service file (error recovery)
     catalog  list data services, functions and sources
     stats    run a query and report per-source roundtrips/rows *)

open Cmdliner
open Aldsp_core

let make_demo ?(db_latency = 0.) ?sort_budget customers =
  let optimizer_options =
    match sort_budget with
    | None -> None
    | Some n ->
      Some
        { Optimizer.default_options with Optimizer.sort_budget_rows = Some n }
  in
  Aldsp_demo.Demo.create ~customers ~orders_per_customer:3 ~db_latency
    ?optimizer_options ()

let customers_arg =
  let doc = "Number of customers in the demo enterprise." in
  Arg.(value & opt int 20 & info [ "c"; "customers" ] ~docv:"N" ~doc)

let sort_budget_arg =
  let doc =
    "In-memory row budget for the blocking operators (ORDER BY, unclustered \
     GROUP BY): past $(docv) rows, sorted runs spill to temp files and \
     merge back as a stream, so peak resident rows stay bounded. Results \
     are byte-identical to the unbounded sort; $(b,explain --analyze) shows \
     $(b,spill=) counters on operators that spilled. Defaults to unbounded \
     (or the $(b,ALDSP_SORT_BUDGET) environment variable when set)."
  in
  Arg.(
    value & opt (some int) None & info [ "sort-budget" ] ~docv:"ROWS" ~doc)

let query_arg =
  let doc = "The XQuery to process (a literal query string)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc)

let file_arg =
  let doc = "Path to a data service (.xds) file." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let run_cmd =
  let clients_arg =
    let doc =
      "Run the query from $(docv) concurrent client sessions against one \
       shared server. Every session's answer must be byte-identical; the \
       answer is printed once, followed by the server's admission-control \
       counters."
    in
    Arg.(value & opt int 1 & info [ "clients" ] ~docv:"N" ~doc)
  in
  let latency_arg =
    let doc =
      "Simulated per-roundtrip backend latency in milliseconds. With \
       concurrent clients a non-zero latency makes sessions genuinely \
       overlap, which is what gives work sharing something to coalesce."
    in
    Arg.(value & opt float 0. & info [ "latency" ] ~docv:"MS" ~doc)
  in
  let shared_mix_arg =
    let doc =
      "Switch on cross-session work sharing for the run: byte-identical \
       in-flight backend statements coalesce on a single execution and \
       near-simultaneous single-key probes merge into one batched \
       roundtrip. Answers are still checked byte-for-byte across clients; \
       the sharing counters (coalesced, merged, roundtrips saved) are \
       reported with the admission counters."
    in
    Arg.(value & flag & info [ "shared-mix" ] ~doc)
  in
  let output_arg =
    let doc =
      "Stream the result to $(docv) instead of printing it: the query \
       executes as the writer pulls its tokens, one chunk at a time, and \
       serialized text is written as it is produced, so the result is \
       never materialized in memory (the server-side redirect-to-file \
       API). Single-client only."
    in
    Arg.(
      value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let action customers sort_budget clients latency_ms shared_mix output query =
    let demo =
      make_demo ~db_latency:(latency_ms /. 1000.) ?sort_budget customers
    in
    let server = demo.Aldsp_demo.Demo.server in
    if shared_mix then Server.set_work_sharing server true;
    if clients <= 1 then
      match output with
      | Some path -> (
        let ses = Server.session server () in
        match Server.session_run_stream ses query with
        | Error e ->
          prerr_endline (Server.submit_error_to_string e);
          1
        | Ok stream -> (
          let oc = open_out_bin path in
          let result = Server.stream_serialize stream (output_string oc) in
          close_out oc;
          match result with
          | Ok () ->
            Printf.eprintf "-- streamed to %s (at most %d tokens pulled ahead)\n"
              path
              (Server.stream_peak_buffered stream);
            0
          | Error e ->
            prerr_endline (Server.submit_error_to_string e);
            1))
      | None -> (
        match Server.run server query with
        | Ok items ->
          print_endline (Server.serialize_result server items);
          0
        | Error msg ->
          prerr_endline msg;
          1)
    else begin
      let results = Array.make clients (Error (Server.Failed "not run")) in
      let threads =
        List.init clients (fun i ->
            Thread.create
              (fun () ->
                let ses = Server.session server () in
                results.(i) <- Server.session_run ses query)
              ())
      in
      List.iter Thread.join threads;
      let adm = Server.admission_stats server in
      let report () =
        Printf.eprintf
          "-- %d clients: %d submitted, %d completed, %d rejected, %d \
           deadline aborts (peak %d active / %d queued)\n"
          clients adm.Server.ad_submitted adm.Server.ad_completed
          adm.Server.ad_rejected adm.Server.ad_deadline_aborts
          adm.Server.ad_peak_active adm.Server.ad_peak_queued;
        if shared_mix then begin
          let st = Server.stats server in
          Printf.eprintf
            "-- work sharing: %d coalesced, %d batch-merged, %d backend \
             roundtrips saved\n"
            st.Server.st_coalesced_hits st.Server.st_batch_merges
            st.Server.st_dedup_roundtrips_saved
        end
      in
      match results.(0) with
      | Error e ->
        prerr_endline (Server.submit_error_to_string e);
        report ();
        1
      | Ok items ->
        let expected = Server.serialize_result server items in
        let divergent = ref 0 in
        Array.iteri
          (fun i r ->
            if i > 0 then
              match r with
              | Ok items when Server.serialize_result server items = expected -> ()
              | Ok _ ->
                incr divergent;
                Printf.eprintf "client %d: answer diverged from client 0\n" i
              | Error e ->
                incr divergent;
                Printf.eprintf "client %d: %s\n" i
                  (Server.submit_error_to_string e))
          results;
        print_endline expected;
        report ();
        if !divergent = 0 then 0 else 1
    end
  in
  let doc = "compile and run an XQuery against the demo enterprise" in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const action $ customers_arg $ sort_budget_arg $ clients_arg
          $ latency_arg $ shared_mix_arg $ output_arg $ query_arg)

let explain_cmd =
  let analyze_arg =
    let doc =
      "Execute the plan before rendering (EXPLAIN ANALYZE): operator lines \
       carry real row counts, roundtrips and cache hits, and each pushed \
       region shows the backend's access-path plan. $(b,--analyze=false) \
       renders the static tree with zero counters."
    in
    Arg.(value & opt bool true & info [ "analyze" ] ~docv:"BOOL" ~doc)
  in
  let timings_arg =
    let doc =
      "Add per-operator wall-clock fields (non-deterministic output)."
    in
    Arg.(value & flag & info [ "timings" ] ~doc)
  in
  let action customers sort_budget analyze timings query =
    let demo = make_demo ?sort_budget customers in
    match Server.explain ~analyze ~timings demo.Aldsp_demo.Demo.server query with
    | Ok text ->
      print_string text;
      0
    | Error msg ->
      prerr_endline msg;
      1
  in
  let doc =
    "show the unified plan: middleware operators with runtime counters and \
     the SQL pushed to each source with its backend access path"
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(const action $ customers_arg $ sort_budget_arg $ analyze_arg
          $ timings_arg $ query_arg)

let check_cmd =
  let action customers file =
    let demo = make_demo customers in
    let source =
      let ic = open_in_bin file in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    let diags = Server.design_time_check demo.Aldsp_demo.Demo.server source in
    if diags = [] then begin
      print_endline "no problems found";
      0
    end
    else begin
      List.iter (fun d -> print_endline (Diag.to_string d)) diags;
      1
    end
  in
  let doc =
    "design-time check of a data service file: reports as many errors as \
     possible instead of stopping at the first"
  in
  Cmd.v (Cmd.info "check" ~doc) Term.(const action $ customers_arg $ file_arg)

let catalog_cmd =
  let action customers =
    let demo = make_demo customers in
    let registry = demo.Aldsp_demo.Demo.registry in
    print_endline "data services:";
    List.iter
      (fun ds ->
        Printf.printf "  %s%s\n" ds.Metadata.ds_name
          (match ds.Metadata.ds_lineage_provider with
          | Some p -> Printf.sprintf " (lineage: %s)" (Aldsp_xml.Qname.to_string p)
          | None -> "");
        List.iter
          (fun f -> Printf.printf "    - %s\n" (Aldsp_xml.Qname.to_string f))
          ds.Metadata.ds_functions)
      (Metadata.data_services registry);
    print_endline "functions:";
    List.iter
      (fun fd ->
        Printf.printf "  %s/%d : %s  [%s]\n"
          (Aldsp_xml.Qname.to_string fd.Metadata.fd_name)
          (List.length fd.Metadata.fd_params)
          (Stype.to_string fd.Metadata.fd_return)
          (match fd.Metadata.fd_kind with
          | Metadata.Read -> "read"
          | Metadata.Navigate -> "navigate"
          | Metadata.Library -> "library"))
      (Metadata.functions registry);
    0
  in
  let doc = "list the demo enterprise's data services and functions" in
  Cmd.v (Cmd.info "catalog" ~doc) Term.(const action $ customers_arg)

let describe_cmd =
  let action customers name =
    let demo = make_demo customers in
    match Design_view.render demo.Aldsp_demo.Demo.registry name with
    | Ok text ->
      print_string text;
      0
    | Error msg ->
      prerr_endline msg;
      1
  in
  let name_arg =
    let doc = "Data service name (see $(b,catalog))." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SERVICE" ~doc)
  in
  let doc = "render a data service's design view (shape, methods, dependencies)" in
  Cmd.v (Cmd.info "describe" ~doc)
    Term.(const action $ customers_arg $ name_arg)

let stats_cmd =
  let action customers sort_budget query =
    let demo = make_demo ?sort_budget customers in
    Aldsp_demo.Demo.reset_stats demo;
    (match Server.run demo.Aldsp_demo.Demo.server query with
    | Ok items -> Printf.printf "%d items returned\n" (List.length items)
    | Error msg -> prerr_endline msg);
    let open Aldsp_relational in
    let report (db : Database.t) =
      Printf.printf "%-12s %4d statements  %6d rows shipped  %4d params\n"
        db.Database.db_name db.Database.stats.Database.statements
        db.Database.stats.Database.rows_shipped
        db.Database.stats.Database.params_bound
    in
    report demo.Aldsp_demo.Demo.customer_db;
    report demo.Aldsp_demo.Demo.card_db;
    Printf.printf "%-12s %4d calls\n" "RatingWS"
      demo.Aldsp_demo.Demo.rating_service.Aldsp_services.Web_service.stats
        .Aldsp_services.Web_service.calls;
    print_endline "\nplanner statistics (maintained per table):";
    let table_stats (db : Database.t) =
      let latency, row_cost = Database.cost_profile db in
      Printf.printf "  %s (latency %.2f ms/roundtrip, %.1f us/row):\n"
        db.Database.db_name (latency *. 1000.) (row_cost *. 1_000_000.);
      List.iter
        (fun (name, st) ->
          Printf.printf "    %-14s %7d rows (v%d)\n" name st.Table.stat_rows
            st.Table.stat_version;
          List.iter
            (fun cs ->
              let bound = function
                | Some v -> Printf.sprintf "%g" v
                | None -> "-"
              in
              Printf.printf "      (%s)%s ndv=%d min=%s max=%s\n"
                (String.concat ", " cs.Table.cs_columns)
                (if cs.Table.cs_unique then " unique" else "")
                cs.Table.cs_distinct (bound cs.Table.cs_min)
                (bound cs.Table.cs_max))
            st.Table.stat_columns)
        (Database.table_statistics db)
    in
    table_stats demo.Aldsp_demo.Demo.customer_db;
    table_stats demo.Aldsp_demo.Demo.card_db;
    let sstats = Server.stats demo.Aldsp_demo.Demo.server in
    Printf.printf
      "misestimation: worst est-vs-actual ratio %.2fx across %d plan \
       compilation(s)\n"
      sstats.Server.st_max_misestimate sstats.Server.st_plan_cache_misses;
    Printf.printf
      "work sharing: %d coalesced, %d batch-merged, %d backend roundtrips \
       saved\n"
      sstats.Server.st_coalesced_hits sstats.Server.st_batch_merges
      sstats.Server.st_dedup_roundtrips_saved;
    if sstats.Server.st_spill_runs > 0 then
      Printf.printf
        "external sort: %d runs spilled (%d rows, %d bytes), peak %d rows \
         resident\n"
        sstats.Server.st_spill_runs sstats.Server.st_spill_rows
        sstats.Server.st_spill_bytes sstats.Server.st_spill_peak_resident;
    0
  in
  let doc =
    "run a query and report per-source roundtrips and rows, the planner's \
     per-table statistics, and the worst est-vs-actual cardinality ratio"
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(const action $ customers_arg $ sort_budget_arg $ query_arg)

let () =
  let doc = "query console for the data services platform" in
  let info = Cmd.info "aldsp" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ run_cmd; explain_cmd; check_cmd; catalog_cmd; describe_cmd;
            stats_cmd ]))
