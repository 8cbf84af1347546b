(* aldsp_bench --compare BASELINE CANDIDATE: applies BENCHMARK.json's
   bounds to every (workload, metric) pair of two sets of results files.
   Each side is a .jsonl file or a directory of them; a side's value is
   the median over its runs, its spread the distance between the first
   and third quartile over the median, as Python's statistics.quantiles
   computes them. A pair is

     worse / better  when the candidate's median moved past the bound;
     unchanged       when it stayed within the bound;
     unresolved      when either side's spread exceeds the bound, unless
                     every candidate run beats every baseline run;
     info            for per-layer metrics, which carry no bound.

   A metric BENCHMARK.json lists for a workload and mode that either side
   lacks fails the comparison instead of being skipped. *)

let fail fmt = Printf.ksprintf failwith fmt

let files_of path =
  if Sys.file_exists path && Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
    |> List.sort compare
    |> List.map (Filename.concat path)
  else if Sys.file_exists path then [ path ]
  else fail "%s does not exist" path

(* (workload, trace mode, metric) -> values, one per run *)
let load path =
  let values = Hashtbl.create 64 in
  let files = files_of path in
  if files = [] then fail "%s holds no results files" path;
  List.iter
    (fun file ->
      String.split_on_char '\n' (Json.read_file file)
      |> List.iter (fun line ->
             if String.trim line <> "" then
               let j =
                 try Json.parse line
                 with Json.Parse_error m -> fail "%s: %s" file m
               in
               match
                 ( Json.to_str (Json.member "workload" j),
                   Json.to_num (Json.member "trace" j),
                   Json.to_str (Json.member "metric" j),
                   Json.to_num (Json.member "value" j) )
               with
               | Some w, Some t, Some m, Some v ->
                 let key = (w, int_of_float t, m) in
                 Hashtbl.replace values key
                   (v :: Option.value (Hashtbl.find_opt values key) ~default:[])
               | _ -> (* the run summary line *) ()))
    files;
  values

let sorted l = Array.of_list (List.sort compare l)

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* statistics.quantiles(data, n=4), method "exclusive" *)
let quartiles l =
  let a = sorted l in
  let ld = Array.length a in
  let m = ld + 1 in
  List.map
    (fun i ->
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.)
    [ 1; 2; 3 ]

let spread l =
  if List.length l < 2 then 0.
  else
    match quartiles l with
    | [ q1; _; q3 ] -> (q3 -. q1) /. Float.abs (median l)
    | _ -> assert false

let main = function
  | [ baseline; candidate ] ->
    let spec = Spec.load "BENCHMARK.json" in
    let a = load baseline and b = load candidate in
    let modes = Hashtbl.create 16 in
    let note (w, t, _) _ = Hashtbl.replace modes (w, t) () in
    Hashtbl.iter note a;
    Hashtbl.iter note b;
    let pairs =
      Hashtbl.fold (fun k () acc -> k :: acc) modes []
      |> List.sort compare
      |> List.concat_map (fun (w, t) ->
             List.map
               (fun (m : Spec.metric) -> ((w, t, m.name), m))
               (if t = 1 then spec.per_layer else spec.end_to_end))
    in
    let bad = ref 0 in
    Printf.printf "%-17s %-36s %14s %14s %8s %6s  %s\n" "workload" "metric"
      "baseline" "candidate" "change" "bound" "verdict";
    List.iter
      (fun (((w, _, name) as key), (m : Spec.metric)) ->
        match Hashtbl.find_opt a key, Hashtbl.find_opt b key with
        | Some va, Some vb ->
          let ma = median va and mb = median vb in
          let change = if ma = 0. then 0. else (mb -. ma) /. Float.abs ma in
          let worse_by = if m.lower_is_better then change else -.change in
          let better x y = if m.lower_is_better then x < y else x > y in
          let every p = List.for_all (fun y -> List.for_all (fun x -> p y x) va) vb in
          let verdict =
            match m.bound with
            | None -> "info"
            | Some bound ->
              let noisy = spread va > bound || spread vb > bound in
              if noisy && not (every better) then "unresolved"
              else if worse_by > bound then "worse"
              else if worse_by < -.bound then "better"
              else "unchanged"
          in
          if verdict = "worse" then incr bad;
          Printf.printf "%-17s %-36s %14.4g %14.4g %+7.1f%% %6s  %s (n=%d/%d)\n" w
            name ma mb (100. *. change)
            (match m.bound with Some x -> Printf.sprintf "%.0f%%" (100. *. x) | None -> "-")
            verdict (List.length va) (List.length vb)
        | va, vb ->
          incr bad;
          Printf.printf "%-17s %-36s %14s %14s %8s %6s  MISSING\n" w name
            (if va = None then "missing" else "present")
            (if vb = None then "missing" else "present") "" "")
      pairs;
    if !bad > 0 then begin
      Printf.printf "%d pair(s) worse or missing\n" !bad;
      1
    end
    else 0
  | _ -> fail "--compare takes exactly two paths: BASELINE CANDIDATE"
