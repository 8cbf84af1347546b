(* The bounded-memory external sort (lib/core/extsort.ml): run-file
   framing, k-way merge correctness and stability, budget edge cases,
   temp-file hygiene under normal completion and cancellation, and
   QCheck spilled-vs-in-memory identity — at the Extsort level and
   end-to-end through the server for ORDER BY and unclustered GROUP BY. *)

open Aldsp_core

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int
let pairs = Alcotest.(list (pair int int))

let ok_exn = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let cmp_fst a b = compare (fst a) (fst b)

(* a scratch directory under the system temp dir, emptied of any debris a
   previous crashed run may have left *)
let fresh_dir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) name in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Array.iter
    (fun sub ->
      let p = Filename.concat dir sub in
      if Sys.is_directory p then begin
        Array.iter (fun f -> Sys.remove (Filename.concat p f)) (Sys.readdir p);
        Unix.rmdir p
      end
      else Sys.remove p)
    (Sys.readdir dir);
  dir

let entries dir = Array.length (Sys.readdir dir)

(* ------------------------------------------------------------------ *)
(* Run-file framing                                                    *)

let test_run_framing () =
  let arr = Array.init 17 (fun i -> ((i * 7) mod 5, i)) in
  let round_trip chunk_rows =
    let path = Filename.temp_file "aldsp-extsort-test" ".run" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        let bytes = Extsort.write_run_file ~chunk_rows path arr in
        check_bool "bytes reported" true (bytes > 0);
        check_int "file is exactly the reported bytes" bytes
          (Unix.stat path).Unix.st_size;
        Alcotest.check pairs
          (Printf.sprintf "round trip at chunk_rows=%d" chunk_rows)
          (Array.to_list arr) (Extsort.read_run_file path))
  in
  (* one row per frame, a mid-size frame that does not divide the run
     evenly, and a frame wider than the whole run *)
  round_trip 1;
  round_trip 4;
  round_trip 100;
  (* the empty run is zero frames, and reads back empty *)
  let path = Filename.temp_file "aldsp-extsort-test" ".run" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let bytes = Extsort.write_run_file ~chunk_rows:4 path [||] in
      check_int "empty run writes nothing" 0 bytes;
      Alcotest.check pairs "empty run reads back empty" []
        (Extsort.read_run_file path))

(* ------------------------------------------------------------------ *)
(* Merge correctness and stability                                     *)

let spill_sort ?stats ?max_fanin ~budget input =
  List.of_seq
    (Extsort.sort ?stats ?max_fanin ~budget_rows:budget ~cmp:cmp_fst
       (List.to_seq input))

(* duplicate-heavy keys, distinct payloads: agreement with
   [List.stable_sort] under a key-only comparator proves both order and
   stability in one check *)
let dup_input n = List.init n (fun i -> ((i * 37) mod 10, i))

let test_merge_correct_and_stable () =
  let input = dup_input 1000 in
  let expected = List.stable_sort cmp_fst input in
  let stats = Extsort.zero_stats () in
  let got = spill_sort ~stats ~budget:(Some 16) input in
  Alcotest.check pairs "spilled merge equals in-memory stable sort" expected
    got;
  check_bool "the sort actually spilled" true (stats.Extsort.runs_spilled > 0);
  check_int "every row hit the disk" 1000 stats.Extsort.rows_spilled;
  check_bool "merge was k-way" true (stats.Extsort.merge_fanin > 2);
  check_bool "peak resident tracked" true (stats.Extsort.peak_resident > 0)

let test_merge_bounded_fanin () =
  (* 1000 rows / budget 8 = 125 initial runs; fan-in 2 forces several
     intermediate re-spill passes, so more runs are written than the
     initial pass produced and no merge ever exceeds the cap *)
  let input = dup_input 1000 in
  let expected = List.stable_sort cmp_fst input in
  let stats = Extsort.zero_stats () in
  let got = spill_sort ~stats ~max_fanin:2 ~budget:(Some 8) input in
  Alcotest.check pairs "multi-pass merge equals stable sort" expected got;
  check_bool "intermediate passes re-spilled" true
    (stats.Extsort.runs_spilled > 125);
  check_bool "rows re-spilled across passes" true
    (stats.Extsort.rows_spilled > 1000);
  check_int "fan-in never exceeded the cap" 2 stats.Extsort.merge_fanin

(* ------------------------------------------------------------------ *)
(* Budget edge cases                                                   *)

let test_budget_edges () =
  let input = dup_input 50 in
  let expected = List.stable_sort cmp_fst input in
  (* budget of 1: every row is its own run *)
  let stats = Extsort.zero_stats () in
  Alcotest.check pairs "budget of 1" expected
    (spill_sort ~stats ~budget:(Some 1) input);
  check_bool "budget 1 spilled every row at least once" true
    (stats.Extsort.rows_spilled >= 50);
  (* budget larger than the input: pure in-memory, zero spill traffic *)
  let roomy = Extsort.zero_stats () in
  Alcotest.check pairs "budget larger than input" expected
    (spill_sort ~stats:roomy ~budget:(Some 1000) input);
  check_int "no runs spilled" 0 roomy.Extsort.runs_spilled;
  check_int "no rows spilled" 0 roomy.Extsort.rows_spilled;
  check_int "no bytes spilled" 0 roomy.Extsort.bytes_spilled;
  (* no budget at all: the plain stable sort *)
  let unbounded = Extsort.zero_stats () in
  Alcotest.check pairs "no budget" expected
    (spill_sort ~stats:unbounded ~budget:None input);
  check_int "unbounded never spills" 0 unbounded.Extsort.runs_spilled;
  (* degenerate inputs under a tiny budget *)
  Alcotest.check pairs "empty input" [] (spill_sort ~budget:(Some 1) []);
  Alcotest.check pairs "singleton input" [ (3, 0) ]
    (spill_sort ~budget:(Some 1) [ (3, 0) ])

(* ------------------------------------------------------------------ *)
(* Temp-file hygiene                                                   *)

let test_cleanup_after_completion () =
  let dir = fresh_dir "aldsp-extsort-test-cleanup" in
  let seq =
    Extsort.sort ~temp_dir:dir ~budget_rows:(Some 4) ~cmp:cmp_fst
      (List.to_seq (dup_input 100))
  in
  (* the sort is lazy: nothing touches the disk before the first pull *)
  check_int "nothing spilled before the first element" 0 (entries dir);
  ignore (List.of_seq seq);
  check_int "temp dir empty after the run drained" 0 (entries dir);
  Unix.rmdir dir

let test_cleanup_after_cancel_mid_merge () =
  let dir = fresh_dir "aldsp-extsort-test-cancel" in
  let tok = Cancel.make () in
  let raised = ref false in
  Cancel.with_token tok (fun () ->
    let seq =
      Extsort.sort ~temp_dir:dir ~budget_rows:(Some 4) ~cmp:cmp_fst
        (List.to_seq (dup_input 100))
    in
    match seq () with
    | Seq.Nil -> Alcotest.fail "expected a first element"
    | Seq.Cons (_, rest) ->
      (* mid-merge: run files are live on disk right now *)
      check_bool "spill files exist while merging" true (entries dir > 0);
      Cancel.cancel tok;
      (try ignore (rest ())
       with Cancel.Cancelled _ -> raised := true));
  check_bool "next pull after cancel raised Cancelled" true !raised;
  check_int "cancelled merge removed its temp files" 0 (entries dir);
  Unix.rmdir dir

let test_cleanup_after_cancel_mid_spill () =
  (* token already fired when the first pull starts the spill phase: the
     write loop's per-frame poll must abort and leave nothing behind *)
  let dir = fresh_dir "aldsp-extsort-test-cancel-spill" in
  let tok = Cancel.make () in
  Cancel.cancel tok;
  let raised = ref false in
  Cancel.with_token tok (fun () ->
    let seq =
      Extsort.sort ~temp_dir:dir ~budget_rows:(Some 4) ~cmp:cmp_fst
        (List.to_seq (dup_input 100))
    in
    try ignore (seq ()) with Cancel.Cancelled _ -> raised := true);
  check_bool "first pull raised Cancelled" true !raised;
  check_int "cancelled spill removed its temp files" 0 (entries dir);
  Unix.rmdir dir

(* ------------------------------------------------------------------ *)
(* QCheck: spilled-vs-in-memory identity at the Extsort level          *)

let prop_extsort_identity =
  QCheck.Test.make ~count:200
    ~name:"random input/budget/fan-in: spilled sort equals stable sort"
    QCheck.(
      triple
        (list_of_size Gen.(int_range 0 150) small_signed_int)
        (int_range 1 8) (int_range 2 5))
    (fun (xs, budget, fanin) ->
      let input = List.mapi (fun i x -> (x, i)) xs in
      List.stable_sort cmp_fst input
      = spill_sort ~max_fanin:fanin ~budget:(Some budget) input)

(* ------------------------------------------------------------------ *)
(* End-to-end byte identity through the server                         *)

let serialize server q =
  Server.serialize_result server (ok_exn (Server.run server q))

let demo ?(pushdown = true) ~budget customers =
  Aldsp_demo.Demo.create ~customers ~orders_per_customer:0
    ~cards_per_customer:0
    ~optimizer_options:
      { Optimizer.default_options with
        Optimizer.pushdown;
        (* the unbounded side pins None explicitly so the CI forced-spill
           environment (ALDSP_SORT_BUDGET) cannot leak into the baseline *)
        Optimizer.sort_budget_rows = budget }
    ()

(* multi-key, asc/desc mix; the [mod] keeps the sort in the middleware
   where the budget applies *)
let order_query =
  "for $c in CUSTOMER() order by fn:string-length($c/FIRST_NAME) mod 3, \
   $c/CID descending return <R>{$c/CID}</R>"

let prop_order_by_identity =
  QCheck.Test.make ~count:12
    ~name:"ORDER BY: spilled bytes = in-memory bytes"
    QCheck.(pair (int_range 1 40) (int_range 1 6))
    (fun (customers, budget) ->
      let unbounded = demo ~budget:None customers in
      let spilled = demo ~budget:(Some budget) customers in
      String.equal
        (serialize unbounded.Aldsp_demo.Demo.server order_query)
        (serialize spilled.Aldsp_demo.Demo.server order_query))

(* The benchmark's sort at 10k and 100k rows, pushdown off, through a
   4096-row budget: the unbounded sort spills nothing; the budgeted one
   spills at least 2 runs, holds at most the budget resident and writes
   the same bytes. *)
let test_order_by_at_bench_scale () =
  let budget = 4096 in
  List.iter
    (fun rows ->
      let server budget =
        (demo ~pushdown:false ~budget rows).Aldsp_demo.Demo.server
      in
      let unbounded = server None and spilled = server (Some budget) in
      let expected = serialize unbounded order_query in
      let runs server = (Server.stats server).Server.st_spill_runs in
      check_int
        (Printf.sprintf "%d rows: runs the unbounded sort spilled" rows)
        0 (runs unbounded);
      check_bool
        (Printf.sprintf "%d rows: spilled bytes = in-memory bytes" rows)
        true
        (String.equal expected (serialize spilled order_query));
      check_bool
        (Printf.sprintf "%d rows: %d runs spilled (>= 2)" rows (runs spilled))
        true
        (runs spilled >= 2);
      let peak = (Server.stats spilled).Server.st_spill_peak_resident in
      check_bool
        (Printf.sprintf "%d rows: peak resident %d within the %d-row budget"
           rows peak budget)
        true (peak <= budget))
    [ 10_000; 100_000 ]

(* pushdown off so the GROUP BY runs in the middleware, where no sort
   feeds it and the unclustered fallback (sort + cluster) applies *)
let group_query =
  "for $c in CUSTOMER() group $c as $g by $c/LAST_NAME as $l return \
   <G>{$l, count($g)}</G>"

let prop_group_by_identity =
  QCheck.Test.make ~count:12
    ~name:"unclustered GROUP BY: spilled bytes = in-memory bytes"
    QCheck.(pair (int_range 1 40) (int_range 1 6))
    (fun (customers, budget) ->
      let unbounded = demo ~pushdown:false ~budget:None customers in
      let spilled = demo ~pushdown:false ~budget:(Some budget) customers in
      String.equal
        (serialize unbounded.Aldsp_demo.Demo.server group_query)
        (serialize spilled.Aldsp_demo.Demo.server group_query))

(* A spilled ORDER BY over tuples whose lets are auto-submitted external
   calls: each tuple's frame holds the calls' futures until the spill
   awaits them into values. The bytes must be the reference server's,
   and the sort's temp directory must be gone once the run ends. *)
let test_spill_awaits_submitted_lets () =
  let prefix = Printf.sprintf "aldsp-extsort-%d-" (Unix.getpid ()) in
  let sort_dirs () =
    Array.to_list (Sys.readdir (Filename.get_temp_dir_name ()))
    |> List.filter (String.starts_with ~prefix)
  in
  let before = sort_dirs () in
  let d = demo ~budget:(Some 2) 12 in
  let q =
    "for $c in CUSTOMER() let $r := getRating(<getRating><lName>{data($c/LAST_NAME)}</lName>\
     <ssn>{data($c/SSN)}</ssn></getRating>) let $q := getRating(<getRating>\
     <lName>{data($c/CID)}</lName><ssn>{data($c/SSN)}</ssn></getRating>) \
     order by data($r) descending, $c/CID return <R>{$c/CID}{$r}{$q}</R>"
  in
  let server = d.Aldsp_demo.Demo.server in
  let plan = ok_exn (Server.explain ~analyze:false server q) in
  check_bool "both lets submitted to the pool" true
    (List.length
       (List.filter
          (String.starts_with ~prefix:"let[concurrent]")
          (List.map String.trim (String.split_on_char '\n' plan)))
    = 2);
  let reference = Server.reference d.Aldsp_demo.Demo.registry in
  Alcotest.check Alcotest.string "spilled bytes = reference bytes"
    (serialize reference q) (serialize server q);
  check_bool "the sort spilled" true
    ((Server.stats server).Server.st_spill_runs > 0);
  Alcotest.check
    Alcotest.(list string)
    "no extsort temp dir left" before (sort_dirs ())

(* ------------------------------------------------------------------ *)
(* The quadratic-fallback regression: 50k distinct keys                *)

let test_group_50k_distinct_keys () =
  (* every CID is its own group; the old fallback scanned a [seen] list
     per row — O(n²), minutes at this size. The sort-based fallback must
     finish well under a second (bounded at 1.5s for slow CI boxes). *)
  let d = demo ~pushdown:false ~budget:None 50_000 in
  let q =
    "for $c in CUSTOMER() group $c as $g by $c/CID as $k return count($g)"
  in
  let t0 = Unix.gettimeofday () in
  let items = ok_exn (Server.run d.Aldsp_demo.Demo.server q) in
  let dt = Unix.gettimeofday () -. t0 in
  check_int "one group per customer" 50_000 (List.length items);
  check_bool
    (Printf.sprintf "grouped 50k distinct keys in %.2fs (budget 1.5s)" dt)
    true (dt < 1.5)

(* ------------------------------------------------------------------ *)

let () =
  let t name f = Alcotest.test_case name `Quick f in
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "extsort"
    [ ( "framing",
        [ t "run-file round trip" test_run_framing ] );
      ( "merge",
        [ t "correct and stable on duplicate keys"
            test_merge_correct_and_stable;
          t "bounded fan-in forces intermediate passes"
            test_merge_bounded_fanin ] );
      ( "budget",
        [ t "edge cases: 1, larger-than-input, none" test_budget_edges ] );
      ( "hygiene",
        [ t "temp files removed after completion"
            test_cleanup_after_completion;
          t "temp files removed after mid-merge cancel"
            test_cleanup_after_cancel_mid_merge;
          t "temp files removed after cancel during spill"
            test_cleanup_after_cancel_mid_spill ] );
      ( "identity",
        [ q prop_extsort_identity;
          q prop_order_by_identity;
          q prop_group_by_identity;
          t "spilled ORDER BY awaits submitted lets"
            test_spill_awaits_submitted_lets;
          t "ORDER BY at bench scale" test_order_by_at_bench_scale ] );
      ( "perf",
        [ Alcotest.test_case "50k distinct keys group fast" `Slow
            test_group_50k_distinct_keys ] ) ]
