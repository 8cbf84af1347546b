open Aldsp_concurrency

type kind = K_oracle | K_fault | K_mutation | K_concurrent

type counterexample = {
  cx_seed : int;
  cx_index : int;
  cx_kind : kind;
  cx_scenario : Shrink.scenario;
  cx_report : string;
  cx_shrink_checks : int;
}

let kind_to_string = function
  | K_oracle -> "oracle"
  | K_fault -> "fault"
  | K_mutation -> "mutation"
  | K_concurrent -> "concurrent"

let check ?(mutate = false) (s : Shrink.scenario) =
  let cat = Catalog.build s.Shrink.spec in
  match
    Oracle.compare_query cat s.Shrink.config ~mutate
      ?swap:(Option.map Gen.render (Gen.swap_literal s.Shrink.query))
      (Gen.render s.Shrink.query)
  with
  | Ok () -> None
  | Error report -> Some report

(* Scenario seeds combine run seed and index so that (a) every scenario
   replays standalone and (b) consecutive indices cycle the main
   database's vendor through all five dialect printers (Catalog.generate
   derives the vendor from the recorded seed). *)
let scenario_seed ~seed ~index = (seed * 131) + index

let scenario_of ~seed ~index =
  let st = Random.State.make [| seed; index |] in
  let spec = Catalog.generate st ~seed:(scenario_seed ~seed ~index) in
  let config = Oracle.generate_config st in
  let query = Gen.generate st in
  { Shrink.spec; config; query }

let shrunk_counterexample ?(mutate = false) ~seed ~index ~kind s0 report0 =
  let fails s = Option.is_some (check ~mutate s) in
  let shrunk, checks = Shrink.minimize ~fails s0 in
  let report = Option.value ~default:report0 (check ~mutate shrunk) in
  { cx_seed = seed;
    cx_index = index;
    cx_kind = kind;
    cx_scenario = shrunk;
    cx_report = report;
    cx_shrink_checks = checks }

let run_one ?(mutate = false) ~seed ~index () =
  let s = scenario_of ~seed ~index in
  match check ~mutate s with
  | None -> Ok ()
  | Some report ->
    Error
      (shrunk_counterexample ~mutate ~seed ~index
         ~kind:(if mutate then K_mutation else K_oracle)
         s report)

let run ?(mutate = false) ?(with_faults = true) ?(log = ignore) ~seed ~count
    () =
  let result = ref (Ok count) in
  let index = ref 0 in
  while !index < count && Result.is_ok !result do
    let i = !index in
    (match run_one ~mutate ~seed ~index:i () with
    | Ok () -> ()
    | Error cx -> result := Error cx);
    (* every fifth index additionally exercises the fault-schedule layer
       on a fresh catalog; its randomness is drawn from a sibling state
       so the oracle scenario above is unaffected *)
    if Result.is_ok !result && with_faults && i mod 5 = 0 then begin
      let st = Random.State.make [| seed; i; 0xfa17 |] in
      let s = scenario_of ~seed ~index:i in
      let cat = Catalog.build s.Shrink.spec in
      match Fault.run_random cat st with
      | Ok () -> ()
      | Error report ->
        result :=
          Error
            { cx_seed = seed;
              cx_index = i;
              cx_kind = K_fault;
              cx_scenario = s;
              cx_report = report;
              cx_shrink_checks = 0 }
    end;
    if (i + 1) mod 50 = 0 then
      log (Printf.sprintf "%d/%d scenarios ok" (i + 1) count);
    incr index
  done;
  !result

(* ------------------------------------------------------------------ *)
(* Concurrent serving-layer mode                                       *)

(* The scenario's own query plus [count - 1] more from a sibling RNG
   stream (0xcc distinguishes it from the oracle and fault streams), so
   one concurrent scenario replays a small deterministic corpus. *)
let concurrent_queries ~seed ~index ~count s =
  let st = Random.State.make [| seed; index; 0xcc |] in
  Gen.render s.Shrink.query
  :: List.init (max 0 (count - 1)) (fun _ -> Gen.render (Gen.generate st))

let run_concurrent ?(sessions = 16) ?(queries = 24) ?(log = ignore) ~seed
    ~count () =
  let result = ref (Ok count) in
  let index = ref 0 in
  while !index < count && Result.is_ok !result do
    let i = !index in
    let s = scenario_of ~seed ~index:i in
    let qs = concurrent_queries ~seed ~index:i ~count:queries s in
    let cat = Catalog.build s.Shrink.spec in
    (match Oracle.compare_concurrent cat s.Shrink.config ~sessions qs with
    | Ok () -> ()
    | Error report ->
      (* no shrinking: the failure may be an interleaving property of the
         whole query list, which single-query shrinking cannot preserve *)
      result :=
        Error
          { cx_seed = seed;
            cx_index = i;
            cx_kind = K_concurrent;
            cx_scenario = s;
            cx_report = report;
            cx_shrink_checks = 0 });
    if (i + 1) mod 10 = 0 then
      log
        (Printf.sprintf "%d/%d concurrent scenarios ok (%d sessions)" (i + 1)
           count sessions);
    incr index
  done;
  !result

(* ------------------------------------------------------------------ *)
(* Counterexample / corpus text format                                 *)

let cx_to_string cx =
  let report_lines =
    String.split_on_char '\n' cx.cx_report
    |> List.map (fun l -> "# " ^ l)
    |> String.concat "\n"
  in
  Printf.sprintf
    "kind: %s\nseed: %d\nindex: %d\nspec: %s\nconfig: %s\nquery: %s\n%s\n"
    (kind_to_string cx.cx_kind) cx.cx_seed cx.cx_index
    (Catalog.spec_to_string cx.cx_scenario.Shrink.spec)
    (Oracle.config_to_string cx.cx_scenario.Shrink.config)
    (Gen.render cx.cx_scenario.Shrink.query)
    report_lines

type corpus_entry = {
  ce_spec : Catalog.spec;
  ce_config : Oracle.config;
  ce_query : string;
  ce_rating_faults : Fault_schedule.fault list;
}

let corpus_entry_of_string text =
  let ( let* ) = Result.bind in
  let tagged tag line =
    let prefix = tag ^ ":" in
    if String.length line > String.length prefix
       && String.sub line 0 (String.length prefix) = prefix
    then
      Some
        (String.trim
           (String.sub line (String.length prefix)
              (String.length line - String.length prefix)))
    else None
  in
  let lines =
    List.filter
      (fun l ->
        let l = String.trim l in
        l <> "" && l.[0] <> '#')
      (String.split_on_char '\n' text)
  in
  let find tag =
    match List.find_map (tagged tag) lines with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "corpus entry: missing %s: line" tag)
  in
  let* spec_line = find "spec" in
  let* config_line = find "config" in
  let* query = find "query" in
  let* spec = Catalog.spec_of_string spec_line in
  let* config = Oracle.config_of_string config_line in
  let* rating_faults =
    match List.find_map (tagged "rating-faults") lines with
    | None -> Ok []
    | Some events ->
      List.fold_right
        (fun event acc ->
          let* acc = acc in
          let* fault =
            match event with
            | "ok" -> Ok Fault_schedule.Proceed
            | "fail" -> Ok Fault_schedule.Fail
            | _ ->
              Error (Printf.sprintf "corpus entry: bad rating fault %S" event)
          in
          Ok (fault :: acc))
        (List.filter (( <> ) "") (String.split_on_char ' ' events))
        (Ok [])
  in
  Ok
    { ce_spec = spec;
      ce_config = config;
      ce_query = query;
      ce_rating_faults = rating_faults }

let replay_corpus text =
  match corpus_entry_of_string text with
  | Error e -> Error e
  | Ok { ce_spec; ce_config; ce_query = query; ce_rating_faults } ->
    let cat = Catalog.build ce_spec in
    (match
       Oracle.compare_query cat ce_config ~rating_faults:ce_rating_faults query
     with
    | Ok () -> Ok ()
    | Error report ->
      Error (Printf.sprintf "corpus regression on %s\n%s" query report))
