(* BENCHMARK.json: the workload names and, per metric, its unit, which
   direction is better and the regression bound. A run checks that it
   emitted exactly the metrics listed for its mode; --compare applies the
   bounds. *)

type metric = {
  name : string;
  unit_ : string;
  lower_is_better : bool;
  bound : float option;  (** Share of the baseline median; end-to-end only. *)
}

type t = {
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let fail fmt = Printf.ksprintf failwith fmt

let metric_of_json j =
  let str k =
    match Json.to_str (Json.member k j) with
    | Some s -> s
    | None -> fail "BENCHMARK.json: metric lacks string field %S" k
  in
  { name = str "name";
    unit_ = str "unit";
    lower_is_better =
      (match str "better" with
      | "lower" -> true
      | "higher" -> false
      | b -> fail "BENCHMARK.json: metric %s: better=%S" (str "name") b);
    bound = Json.to_num (Json.member "bound" j) }

let load path =
  let j =
    try Json.parse (Json.read_file path) with
    | Sys_error m -> fail "cannot read %s: %s" path m
    | Json.Parse_error m -> fail "%s: %s" path m
  in
  let metrics k = List.map metric_of_json (Json.to_list (Json.member k j)) in
  { workloads =
      List.filter_map
        (fun w -> Json.to_str (Json.member "name" w))
        (Json.to_list (Json.member "workloads" j));
    end_to_end = metrics "end_to_end";
    per_layer = metrics "per_layer" }
