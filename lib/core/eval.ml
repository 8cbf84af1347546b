open Aldsp_xml
open Plan_ir
module C = Cexpr
module Sql = Aldsp_relational.Sql_ast
module Sql_exec = Aldsp_relational.Sql_exec
module V = Aldsp_relational.Sql_value
module Index = Aldsp_relational.Index
module Token = Aldsp_tokens.Token
module Token_stream = Aldsp_tokens.Token_stream

exception Eval_error of string

let error fmt = Printf.ksprintf (fun m -> raise (Eval_error m)) fmt

(* Bindings are either materialized or futures running on the worker pool
   (fn-bea:async, concurrent independent lets); the pool rides along so
   awaiting from a worker thread can help-drain instead of deadlocking.
   [Unbound] fills a slot nothing has bound. *)
type binding =
  | Now of Item.sequence
  | Later of Pool.t * Item.sequence Future.t
  | Unbound

(* A binding tuple (§5.1, Figure 4's array form): slot i holds the
   variable lowering numbered i ({!Plan_ir.var}). A frame is no wider than
   the scope that reads it. An operator that binds copies its input frame
   and fills the copy (copy-on-extend). A filled slot never changes, and
   nothing reads a slot before it is filled: a let run fills its copy in
   slot order, each value reading only the slots before its own, and a
   value it submits to the pool gets a copy of its own
   (copy-on-capture). *)
type frame = binding array

type call_wrapper =
  Metadata.function_def -> Item.sequence list -> (unit -> Item.sequence) ->
  Item.sequence

type spill_report = runs:int -> rows:int -> bytes:int -> peak:int -> unit

type rt = {
  registry : Metadata.t;
  call_wrapper : call_wrapper;
  audit : Audit.t option;
  max_depth : int;
  pool : Pool.t;
  observed : Observed.t option;
  concurrent_lets : bool;
  sort_budget_rows : int option;
      (* in-memory row budget for the blocking operators; None sorts in
         memory, Some n routes ORDER BY and the unclustered GROUP BY
         fallback through Extsort *)
  on_spill : spill_report;
      (* called once per sort that actually spilled — the server rolls
         these into its stats *)
  body_plan : Metadata.function_def -> C.t -> Plan_ir.t;
      (* the plan a call that runs a function body executes *)
}

let runtime ?(call_wrapper = fun _ _ k -> k ()) ?audit ?pool ?observed
    ?(concurrent_lets = true) ?sort_budget_rows
    ?(on_spill = fun ~runs:_ ~rows:_ ~bytes:_ ~peak:_ -> ())
    ?body_plan registry =
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let body_plan =
    Option.value body_plan ~default:(fun _ -> Plan_ir.compile registry)
  in
  { registry; call_wrapper; audit; max_depth = 256; pool; observed;
    concurrent_lets; sort_budget_rows; on_spill; body_plan }

(* Which exceptions the fail-over/timeout adaptors (§5.6) may recover
   from: evaluation errors, and runtime failures a source call can
   legitimately surface — [Failure] from a crashed pool worker or source
   implementation, transport-level [Unix_error]s. Asynchronous/fatal
   exceptions (Out_of_memory, Stack_overflow, Assert_failure, ...) are
   never swallowed: an adaptor that masked those would hide real bugs.
   [Cancel.Cancelled] is likewise never recoverable: a session deadline
   (or explicit cancel) must abort the whole query, and a fail-over that
   "recovered" from it would instead run the alternate and keep going. *)
let recoverable_failure = function
  | Eval_error _ | Failure _ | Unix.Unix_error _ | Not_found -> true
  | Cancel.Cancelled _ -> false
  | _ -> false

let force (v : var) = function
  | Now seq -> seq
  | Later (pool, fut) -> Pool.await pool fut
  | Unbound -> error "unbound variable $%s at runtime" v.name

let lookup (frame : frame) (v : var) =
  force v (if v.slot < Array.length frame then frame.(v.slot) else Unbound)

let no_items = Now []

(* A private copy of [frame] at least [width] slots wide, for its caller
   to fill: the one way a frame grows. *)
let widen (frame : frame) width : frame =
  let n = Array.length frame in
  if width <= n then Array.copy frame
  else begin
    let f = Array.make width Unbound in
    Array.blit frame 0 f 0 n;
    f
  end

let extend frame (v : var) b =
  let f = widen frame (v.slot + 1) in
  f.(v.slot) <- b;
  f

(* The frame width that binds every one of [vars]. *)
let width_of vars = List.fold_left (fun w (v : var) -> max w (v.slot + 1)) 0 vars

(* A plan's parameters, each the value [find] gives its name. *)
let params_of (view : Plan_ir.t) find =
  Array.map
    (fun name -> match find name with Some seq -> Now seq | None -> Unbound)
    view.params

(* A function body's parameters: the argument values by name. *)
let body_params view fd values =
  params_of view (fun name ->
      let rec find params values =
        match (params, values) with
        | (p, _) :: params, v :: values ->
          if String.equal p name then Some v else find params values
        | _ -> None
      in
      find fd.Metadata.fd_params values)

(* Spilling a frame to disk requires it to be pure data: [Later]
   bindings hold pool futures (closures), so under a sort budget they are
   awaited into values first, in a copy. Without a budget nothing spills,
   and the frame keeps its bindings lazy. *)
let materialize rt (frame : frame) =
  match rt.sort_budget_rows with
  | None -> frame
  | Some _ ->
    Array.map
      (function Later (pool, fut) -> Now (Pool.await pool fut) | b -> b)
      frame

(* The blocking operators' one stable sort: Extsort under the runtime's
   row budget (in memory without one), accounting the spill into the
   operator's counters (and the server's rollup) once the sort completes
   or aborts. Zero-spill sorts leave the counters untouched, so EXPLAIN
   renders exactly as before. *)
let spill_sort rt counters ~cmp seq =
  let stats = Extsort.zero_stats () in
  let reported = ref false in
  let finish () =
    if not !reported then begin
      reported := true;
      if stats.Extsort.runs_spilled > 0 then begin
        Plan_ir.count_spill counters ~runs:stats.Extsort.runs_spilled
          ~rows:stats.Extsort.rows_spilled ~bytes:stats.Extsort.bytes_spilled
          ~fanin:stats.Extsort.merge_fanin;
        rt.on_spill ~runs:stats.Extsort.runs_spilled
          ~rows:stats.Extsort.rows_spilled ~bytes:stats.Extsort.bytes_spilled
          ~peak:stats.Extsort.peak_resident
      end
    end
  in
  let out = Extsort.sort ~stats ~budget_rows:rt.sort_budget_rows ~cmp seq in
  let rec go s () =
    match (try s () with e -> finish (); raise e) with
    | Seq.Nil ->
      finish ();
      Seq.Nil
    | Seq.Cons (x, rest) -> Seq.Cons (x, go rest)
  in
  (* without a budget nothing spills, so there is nothing to report *)
  if rt.sort_budget_rows = None then out else go out

(* ------------------------------------------------------------------ *)
(* Total order on atoms, for sorting and grouping: comparable values
   use value comparison; incomparable pairs order by type tag so the
   sort is still total (grouping only needs a consistent order). *)

let type_rank = function
  | Atomic.Boolean _ -> 0
  | Atomic.Integer _ | Atomic.Decimal _ | Atomic.Double _ -> 1
  | Atomic.String _ | Atomic.Untyped _ -> 2
  | Atomic.Date _ | Atomic.Date_time _ -> 3

let compare_atoms_total a b =
  match Atomic.compare_values a b with
  | Ok c -> c
  | Error _ -> compare (type_rank a) (type_rank b)

let compare_keys_total ka kb =
  (* each key is an atom list; empty sorts first *)
  let compare_key a b =
    match (a, b) with
    | [], [] -> 0
    | [], _ -> -1
    | _, [] -> 1
    | xs, ys ->
      let rec go xs ys =
        match (xs, ys) with
        | [], [] -> 0
        | [], _ -> -1
        | _, [] -> 1
        | x :: xs, y :: ys -> (
          match compare_atoms_total x y with 0 -> go xs ys | c -> c)
      in
      go xs ys
  in
  let rec go ka kb =
    match (ka, kb) with
    | [], [] -> 0
    | [], _ -> -1
    | _, [] -> 1
    | a :: ka, b :: kb -> (
      match compare_key a b with 0 -> go ka kb | c -> c)
  in
  go ka kb

let keys_equal ka kb = compare_keys_total ka kb = 0

(* ------------------------------------------------------------------ *)
(* typematch / instance-of                                             *)

let rec item_matches item (it : Stype.item_type) =
  match (item, it) with
  | _, Stype.It_item -> true
  | _, Stype.It_error -> true
  | Item.Atom a, Stype.It_atomic ty ->
    Atomic.subtype (Atomic.type_of a) ty || ty = Atomic.T_untyped
  | Item.Node _, Stype.It_node -> true
  | Item.Node (Node.Element e), Stype.It_element { elem_name; simple; _ } -> (
    (match elem_name with
    | None -> true
    | Some n -> Qname.equal e.Node.name n)
    &&
    match simple with
    | None -> true
    | Some ty -> (
      match Node.typed_value (Node.Element e) with
      | [ a ] -> Atomic.subtype (Atomic.type_of a) ty || ty = Atomic.T_untyped
      | [] -> true
      | _ -> false))
  | Item.Node (Node.Text _), Stype.It_text -> true
  | Item.Node _, _ -> false
  | Item.Atom _, _ -> false

and matches_stype seq (ty : Stype.t) =
  let n = List.length seq in
  (if ty.Stype.occ.Stype.at_least_one then n >= 1 else true)
  && (if ty.Stype.occ.Stype.at_most_one then n <= 1 else true)
  && (ty.Stype.items <> [] || n = 0)
  && List.for_all
       (fun item -> List.exists (item_matches item) ty.Stype.items)
       seq

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)

let atomize seq =
  match Item.atomize seq with Ok a -> a | Error m -> error "%s" m

let ebv seq = match Item.ebv seq with Ok b -> b | Error m -> error "%s" m

(* The empty operand of a value comparison, told apart by identity: no
   other atom is this block. *)
let no_atom = Atomic.Untyped ""

(* A sequence's one atom, or [no_atom] when it is empty. *)
let operand what seq =
  match seq with
  | [ Item.Atom a ] -> a
  | [] -> no_atom
  | _ -> (
    match atomize seq with
    | [] -> no_atom
    | [ a ] -> a
    | _ -> error "%s: more than one item" what)

let singleton_atom what seq =
  let a = operand what seq in
  if a == no_atom then None else Some a

(* Whether value comparison [op] holds of two atoms that compare as
   [c]. *)
let comparison_holds op c =
  match op with
  | C.V_eq -> c = 0
  | C.V_ne -> c <> 0
  | C.V_lt -> c < 0
  | C.V_le -> c <= 0
  | C.V_gt -> c > 0
  | C.V_ge -> c >= 0
  | _ -> assert false

let value_compare op a b =
  comparison_holds op
    ((* the pairs the join keys hold, compared as [Atomic.compare_values]
        does, without its [Ok] *)
     match (a, b) with
     | Atomic.String x, Atomic.String y -> String.compare x y
     | Atomic.Integer x, Atomic.Integer y -> Int.compare x y
     | _ -> (
       match Atomic.compare_values a b with Ok c -> c | Error m -> error "%s" m))

(* Hash-join keys. Only a single string or numeric atom normalizes,
   numerics to one canonical float as in [Index.part_of_value], so two
   atoms [eq] finds equal always share a key and two atoms of one class
   compare without error. *)
type hash_part = H_str of string | H_num of float

let hash_atom = function
  | Atomic.String s -> Some (H_str s)
  | Atomic.Integer i -> Some (H_num (Index.canon_float (float_of_int i)))
  | Atomic.Decimal f | Atomic.Double f -> Some (H_num (Index.canon_float f))
  | _ -> None

let hash_part = function [ a ] -> hash_atom a | _ -> None

let same_class a b =
  match (a, b) with H_str _, H_str _ | H_num _, H_num _ -> true | _ -> false

(* A hash join's indexed side — an index-NL join's right tuples, a PP-k
   block's left tuples: positions by key, ascending, plus the positions
   whose key does not normalize, which every probe visits. *)
type key_index = {
  ki_shape : hash_part list;  (** a probe key of another class visits all *)
  ki_keys : (hash_part list, int list) Hashtbl.t;
  ki_wild : int list;
}

(* A probe key that normalized, into parts of the index's classes. *)
let fits ix = function
  | [] -> false
  | key -> List.for_all2 same_class ix.ki_shape key

let arith op a b =
  let r =
    match op with
    | C.Add -> Atomic.add a b
    | C.Sub -> Atomic.sub a b
    | C.Mul -> Atomic.mul a b
    | C.Div -> Atomic.div a b
    | C.Idiv -> Atomic.idiv a b
    | C.Mod -> Atomic.modulo a b
    | _ -> assert false
  in
  match r with Ok v -> v | Error m -> error "%s" m

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)

let tally c n =
  c.c_starts <- c.c_starts + 1;
  c.c_rows <- c.c_rows + n

(* Stamps the operator's time-to-first-row, counted from [t0] (when it
   started), the first time a row comes through in this execution. *)
let first_row c t0 =
  if c.c_first_row_ns = 0. then
    c.c_first_row_ns <- (Unix.gettimeofday () -. t0) *. 1e9

let count_rows ~t0 c seq =
  Seq.map
    (fun x ->
      first_row c t0;
      c.c_rows <- c.c_rows + 1;
      x)
    seq

(* The elements of each list in turn, one list forced at a time, each
   counted as [count_rows] counts: an operator that produces its tuples
   in lists counts them here, in the one layer that flattens them. *)
let counted_lists ~t0 c (lists : 'a list Seq.t) : 'a Seq.t =
  let rec next lists () =
    match lists () with
    | Seq.Nil -> Seq.Nil
    | Seq.Cons (l, rest) -> cells l rest ()
  and cells l rest () =
    match l with
    | [] -> next rest ()
    | x :: tl ->
      first_row c t0;
      c.c_rows <- c.c_rows + 1;
      Seq.Cons (x, cells tl rest)
  in
  next lists

(* ------------------------------------------------------------------ *)
(* The executor                                                        *)

(* [counters]: the execution's, indexed by operator id; [params]: the
   values of the plan's parameters, indexed by [P_param] slot. *)
type ctx = { rt : rt; depth : int; counters : run; params : binding array }

(* A call node's counters, if it keeps any: a call EXPLAIN inlines (no
   data-service function at compile time, no operator among its
   arguments) has none. *)
let counter cx (p : plan) = if p.id < 0 then None else Some cx.counters.(p.id)

(* The PP-k blocking step: lazy, the last block may be short, k <= 1
   degenerates to singleton blocks. *)
let batch_seq k (input : 'a Seq.t) : 'a list Seq.t =
  let k = max 1 k in
  let rec take n seq acc =
    if n = 0 then (List.rev acc, seq)
    else
      match seq () with
      | Seq.Nil -> (List.rev acc, Seq.empty)
      | Seq.Cons (x, rest) -> take (n - 1) rest (x :: acc)
  in
  let rec go seq () =
    match take k seq [] with
    | [], _ -> Seq.Nil
    | block, rest -> Seq.Cons (block, go rest)
  in
  go input

(* A pushed statement's rows, chunk by chunk as its cursor yields them.
   A statement served from another session's work counts as shared at
   open; the access-path plan is complete only once the cursor drains
   (projection-level subqueries decide lazily), so it is stored then —
   on the consumer thread, in drain order, keeping EXPLAIN capture
   race-free and deterministic. *)
let cursor_chunks counters cur =
  if Sql_exec.cursor_shared cur then Plan_ir.count_shared counters;
  let rec fetch () =
    match Sql_exec.fetch_chunk cur with
    | Error m -> error "%s" m
    | Ok [] ->
      Plan_ir.set_backend counters (Sql_exec.cursor_plan cur);
      Seq.Nil
    | Ok rows -> Seq.Cons (rows, fetch)
  in
  fetch

(* Every data-service call is audited here, before the function cache
   can serve it. *)
let audit_call rt fd values =
  match rt.audit with
  | Some a when Audit.level a <> Audit.Off ->
    Audit.record a ~category:"service-call"
      (Printf.sprintf "call %s/%d"
         (Qname.to_string fd.Metadata.fd_name)
         (List.length values))
  | _ -> ()

(* A fetched non-NULL value as its bind's type: the cast when one
   applies, else the value as the backend typed it. *)
let atom_of_value ty (v : V.t) =
  let a =
    match v with
    | V.Int i -> Atomic.Integer i
    | V.Float f -> Atomic.Decimal f
    | V.Str s -> Atomic.String s
    | V.Bool b -> Atomic.Boolean b
    | V.Timestamp f -> Atomic.Date_time f
    | V.Null -> invalid_arg "Eval.atom_of_value"
  in
  if Atomic.type_of a = ty then a
  else match Atomic.cast ty a with Ok c -> c | Error _ -> a

(* A cursor's row binder: each bind resolved once per cursor to its
   column position (-1 when the result lacks it), frame slot and type. A
   bind whose column the result lacks raises when a row is bound, not
   when the cursor opens. *)
type binder = {
  cols : int array;
  slots : int array;
  types : Atomic.atomic_type array;
  names : string array;
  width : int;
}

let sql_binder (r : sql_region) columns =
  let binds = Array.of_list r.sql_binds in
  let column (b : C.sql_bind) =
    Option.value ~default:(-1)
      (List.find_index (String.equal b.C.bcol) columns)
  in
  { cols = Array.map column binds;
    slots = r.sql_slots;
    types = Array.map (fun (b : C.sql_bind) -> b.C.btype) binds;
    names = Array.map (fun (b : C.sql_bind) -> b.C.bcol) binds;
    width = Array.fold_left (fun w s -> max w (s + 1)) 0 r.sql_slots }

(* [frame] extended with one fetched row: one copy, then one item per
   bind. *)
let bind_row b frame (row : V.t array) =
  let f = widen frame b.width in
  for i = 0 to Array.length b.slots - 1 do
    let c = b.cols.(i) in
    if c < 0 then error "SQL result lacks column %s" b.names.(i);
    f.(b.slots.(i)) <-
      (match row.(c) with
      | V.Null -> no_items
      | v -> Now [ Item.Atom (atom_of_value b.types.(i) v) ])
  done;
  f

let deliver (sink : Token_stream.sink) items =
  sink.items items;
  List.length items

(* A loop rather than [List.iter]: no closure per constructor. *)
let rec push_attributes (sink : Token_stream.sink) = function
  | [] -> ()
  | (n, v) :: rest ->
    sink.token (Token.Attribute (n, v));
    push_attributes sink rest

(* The items a value's emission builds. *)
let build emit =
  let sink, built = Token_stream.building_sink () in
  ignore (emit sink);
  built ()

(* Every data-service call that runs (not a function-cache hit) is
   observed here: its wall time, and [count] of its result. *)
let observe rt fd count run =
  match rt.observed with
  | None -> run ()
  | Some o ->
    let t0 = Unix.gettimeofday () in
    let result = run () in
    Observed.record o fd.Metadata.fd_name
      ~latency:(Unix.gettimeofday () -. t0)
      ~cardinality:(count result);
    result

(* Where a PP-k block finds a fetched row's key part. *)
type key_source = From_column of int * Atomic.atomic_type | From_plan of plan

exception No_key

(* A fetched value's hash part under its bind's type: [hash_atom] of
   [atom_of_value ty v], without the atom when the backend's type is
   already the bind's. *)
let hash_value ty (v : V.t) =
  match (ty, v) with
  | _, V.Null -> raise_notrace No_key
  | Atomic.T_string, V.Str s -> H_str s
  | Atomic.T_integer, V.Int i -> H_num (Index.canon_float (float_of_int i))
  | _ -> (
    match hash_atom (atom_of_value ty v) with
    | Some p -> p
    | None -> raise_notrace No_key)

(* Marks row [j] a candidate of each left tuple in [is]. *)
let rec visit visits j = function
  | [] -> ()
  | i :: is ->
    visits.(i) <- j :: visits.(i);
    visit visits j is

(* The frame slot a plan reads whole, if it reads one. *)
let rec whole_slot p =
  match p.node with
  | P_var v -> Some v.slot
  | P_data p -> whole_slot p
  | _ -> None

(* A left tuple extended with a right tuple's own slots, those from
   [base] on; the slots below are the ones they share. *)
let merge left right base =
  let n = Array.length right in
  let f = widen left n in
  if n > base then Array.blit right base f base (n - base);
  f

let rec exec cx frame (p : plan) : Item.sequence =
  match p.node with
  | P_const a -> [ Item.Atom a ]
  | P_empty -> []
  | P_var v -> lookup frame v
  | P_param v -> force v cx.params.(v.slot)
  | P_construct _ | P_pipeline _ | P_seq _ ->
    build (fun sink -> emit_plan cx frame sink p)
  | P_if { cond; then_; else_ } ->
    if truth cx frame cond then exec cx frame then_ else exec cx frame else_
  | P_quantified { universal; var; source; pred } ->
    let items = exec cx frame source in
    let test item = truth cx (extend frame var (Now [ item ])) pred in
    [ Item.boolean
        (if universal then List.for_all test items else List.exists test items) ]
  | P_call { fn; args; _ } -> exec_call cx frame p fn args
  | P_async arg ->
    let v = exec cx frame arg in
    tally cx.counters.(p.id) (List.length v);
    v
  | P_fail_over { primary; alternate } ->
    (* the primary may fail inside a pool worker (e.g. a concurrent-let
       future), which surfaces as the task's own exception rather than
       Eval_error — those are recoverable too (§5.6) *)
    let v =
      try exec cx frame primary
      with e when recoverable_failure e -> exec cx frame alternate
    in
    tally cx.counters.(p.id) (List.length v);
    v
  | P_timeout { primary; millis; alternate } ->
    let ms =
      match singleton_atom "fn-bea:timeout" (exec cx frame millis) with
      | Some (Atomic.Integer i) -> i
      | _ -> error "fn-bea:timeout expects an integer milliseconds argument"
    in
    (* a dedicated thread, not a pool worker: past the deadline the
       computation is abandoned and must not occupy the bounded pool *)
    let fut = Future.detach (fun () -> exec cx frame primary) in
    (* the adaptor's window never extends past the session deadline: once
       the session is out of time there is no point waiting, and the
       check below turns the expiry into an abort rather than a
       fail-over to the alternate *)
    let window = float_of_int ms /. 1000. in
    let window =
      match Cancel.remaining (Cancel.current ()) with
      | Some left -> Float.min window left
      | None -> window
    in
    let v =
      match Future.await_timeout fut window with
      | Some v -> v
      | None ->
        Cancel.check_current ();
        exec cx frame alternate
      | exception e when recoverable_failure e -> exec cx frame alternate
    in
    tally cx.counters.(p.id) (List.length v);
    v
  | P_child (input, name) ->
    List.concat_map
      (function
        | Item.Node node ->
          List.map (fun n -> Item.Node n) (Node.child_elements node name)
        | Item.Atom _ -> error "child step on an atomic value")
      (exec cx frame input)
  | P_child_wild input ->
    List.concat_map
      (function
        | Item.Node node ->
          List.filter_map
            (function
              | Node.Element _ as el -> Some (Item.Node el)
              | Node.Text _ | Node.Atom _ -> None)
            (Node.children node)
        | Item.Atom _ -> error "child step on an atomic value")
      (exec cx frame input)
  | P_attr_of (input, name) ->
    List.concat_map
      (function
        | Item.Node node -> (
          match Node.attribute node name with
          | Some a -> [ Item.Atom a ]
          | None -> [])
        | Item.Atom _ -> error "attribute step on an atomic value")
      (exec cx frame input)
  | P_filter { input; dot; pos; pred } ->
    let items = exec cx frame input in
    let width = width_of [ dot; pos ] in
    List.filteri
      (fun i item ->
        let f = widen frame width in
        f.(dot.slot) <- Now [ item ];
        f.(pos.slot) <- Now [ Item.integer (i + 1) ];
        let result = exec cx f pred in
        match result with
        | [ Item.Atom ((Atomic.Integer _ | Atomic.Decimal _ | Atomic.Double _) as a) ]
          -> (
          (* numeric predicate selects by position *)
          match a with
          | Atomic.Integer n -> n = i + 1
          | Atomic.Decimal f | Atomic.Double f -> f = float_of_int (i + 1)
          | _ -> assert false)
        | r -> ebv r)
      items
  | P_data input ->
    List.map (fun a -> Item.Atom a) (atomize (exec cx frame input))
  | P_ebv input -> [ Item.boolean (truth cx frame input) ]
  | P_binop (op, a, b) -> exec_binop cx frame op a b
  | P_typematch (input, ty) ->
    let v = exec cx frame input in
    if matches_stype v ty then v
    else error "typematch failed: value does not match %s" (Stype.to_string ty)
  | P_cast (input, ty) -> (
    match singleton_atom "cast" (exec cx frame input) with
    | None -> []
    | Some a -> (
      match Atomic.cast ty a with
      | Ok v -> [ Item.Atom v ]
      | Error m -> error "%s" m))
  | P_castable (input, ty) -> (
    match singleton_atom "castable" (exec cx frame input) with
    | None -> [ Item.boolean false ]
    | Some a -> [ Item.boolean (Result.is_ok (Atomic.cast ty a)) ])
  | P_instance_of (input, ty) ->
    [ Item.boolean (matches_stype (exec cx frame input) ty) ]
  | P_error msg -> error "evaluated an error expression: %s" msg

(* [ebv (exec cx frame p)], without building the boolean items of the
   connectives and value comparisons on the way: every predicate a tuple
   operator tests goes through here. *)
and truth cx frame (p : plan) =
  match p.node with
  | P_ebv input -> truth cx frame input
  | P_binop (C.And, a, b) -> truth cx frame a && truth cx frame b
  | P_binop (C.Or, a, b) -> truth cx frame a || truth cx frame b
  | P_binop (((C.V_eq | C.V_ne | C.V_lt | C.V_le | C.V_gt | C.V_ge) as op), a, b)
    ->
    let x = operand "value comparison" (exec cx frame a) in
    let y = operand "value comparison" (exec cx frame b) in
    x != no_atom && y != no_atom && value_compare op x y
  | _ -> ebv (exec cx frame p)

and submit_async cx frame = function
  | [] -> []
  | ({ node = P_async _; _ } as e) :: es ->
    (e, Pool.submit cx.rt.pool (fun () -> exec cx frame e))
    :: submit_async cx frame es
  | _ :: es -> submit_async cx frame es

(* A constructor's attributes, evaluated in order before its content:
   each value atomized, several atoms joined with spaces, a missing
   optional attribute dropped. A loop: no closure per constructor. *)
and attributes cx frame = function
  | [] -> []
  | a :: rest -> (
    let value = atomize (exec cx frame a.p_avalue) in
    let attribute =
      match value with
      | [] -> if a.p_aoptional then None else Some (a.p_aname, Atomic.String "")
      | [ atom ] -> Some (a.p_aname, atom)
      | atoms ->
        Some
          ( a.p_aname,
            Atomic.String (String.concat " " (List.map Atomic.to_string atoms)) )
    in
    let rest = attributes cx frame rest in
    match attribute with Some x -> x :: rest | None -> rest)

and exec_binop cx frame op a b =
  match op with
  | C.And ->
    let holds = truth cx frame a && truth cx frame b in
    [ Item.boolean holds ]
  | C.Or ->
    let holds = truth cx frame a || truth cx frame b in
    [ Item.boolean holds ]
  | C.V_eq | C.V_ne | C.V_lt | C.V_le | C.V_gt | C.V_ge ->
    let x = operand "value comparison" (exec cx frame a) in
    let y = operand "value comparison" (exec cx frame b) in
    if x == no_atom || y == no_atom then []
    else [ Item.boolean (value_compare op x y) ]
  | C.G_eq | C.G_ne | C.G_lt | C.G_le | C.G_gt | C.G_ge ->
    let vop =
      match op with
      | C.G_eq -> C.V_eq
      | C.G_ne -> C.V_ne
      | C.G_lt -> C.V_lt
      | C.G_le -> C.V_le
      | C.G_gt -> C.V_gt
      | C.G_ge -> C.V_ge
      | _ -> assert false
    in
    let xs = atomize (exec cx frame a) in
    let ys = atomize (exec cx frame b) in
    (* general comparison is existential; untyped operands are coerced by
       the value comparison's promotion rules *)
    let holds =
      List.exists
        (fun x ->
          List.exists
            (fun y ->
              match Atomic.compare_values x y with
              | Ok c -> comparison_holds vop c
              | Error _ -> false)
            ys)
        xs
    in
    [ Item.boolean holds ]
  | C.Add | C.Sub | C.Mul | C.Div | C.Idiv | C.Mod -> (
    let va = singleton_atom "arithmetic" (exec cx frame a) in
    let vb = singleton_atom "arithmetic" (exec cx frame b) in
    match (va, vb) with
    | None, _ | _, None -> []
    | Some x, Some y -> [ Item.Atom (arith op x y) ])
  | C.Range -> (
    let va = singleton_atom "range" (exec cx frame a) in
    let vb = singleton_atom "range" (exec cx frame b) in
    match (va, vb) with
    | Some (Atomic.Integer x), Some (Atomic.Integer y) ->
      if x > y then []
      else List.init (y - x + 1) (fun i -> Item.integer (x + i))
    | None, _ | _, None -> []
    | _ -> error "range bounds must be integers")

(* --------------------------- calls -------------------------------- *)

and exec_call cx frame (p : plan) fn args =
  (* function calls are the cancellation check points: frequent enough
     that a cancelled session aborts promptly even between sleeps, cheap
     enough not to tax the per-item operators *)
  Cancel.check_current ();
  (* correct-arity fn-bea special forms were lowered to dedicated guard
     nodes; a call node still carrying one of those names is an arity
     error *)
  if Qname.equal fn Names.async then error "fn-bea:async expects one argument"
  else if Qname.equal fn Names.fail_over then
    error "fn-bea:fail-over expects two arguments"
  else if Qname.equal fn Names.timeout then
    error "fn-bea:timeout expects three arguments"
  else
    let arity = List.length args in
    (* re-resolve at runtime so transiently registered prolog functions
       and redefinitions keep working; the compile-time target on the node
       is informational. A data-service call is emitted, by [call]. *)
    match Metadata.resolve_call cx.rt.registry fn arity with
    | Some _ -> build (fun sink -> emit_plan cx frame sink p)
    | None -> (
      match Fn_lib.find fn arity with
      | Some b -> (
        let values = List.map (exec cx frame) args in
        match b.Fn_lib.eval values with
        | Ok v -> v
        | Error m -> error "%s" m)
      | None -> error "unknown function %s/%d" (Qname.to_string fn) arity)

(* A data-service call with its argument values, delivered into [sink].
   A non-cacheable function body runs in place, one level deeper, on a
   fresh frame with the arguments as its parameters; a cacheable body or
   an external goes through the call wrapper, where the function cache
   stores and serves whole values. *)
and call cx sink counters fd values =
  if cx.depth > cx.rt.max_depth then
    error "maximum recursion depth exceeded in %s"
      (Qname.to_string fd.Metadata.fd_name);
  audit_call cx.rt fd values;
  let in_body (body : Plan_ir.t) =
    { cx with
      depth = cx.depth + 1;
      counters = body.totals;
      params = body_params body fd values }
  in
  let n =
    match fd.Metadata.fd_impl with
    | Metadata.Body body when not fd.Metadata.fd_cacheable ->
      let body = cx.rt.body_plan fd body in
      observe cx.rt fd Fun.id (fun () ->
          emit_plan (in_body body) [||] sink body.tree)
    | impl ->
      let computed = ref false in
      let compute () =
        computed := true;
        observe cx.rt fd List.length (fun () ->
            match impl with
            | Metadata.Body body ->
              let body = cx.rt.body_plan fd body in
              exec (in_body body) [||] body.tree
            | Metadata.External source -> eval_external source fd values)
      in
      let v = cx.rt.call_wrapper fd values compute in
      (* a cacheable call site that came back without running its thunk
         was served by the function cache (§5.5) *)
      (match counters with
      | Some c when fd.Metadata.fd_cacheable ->
        Plan_ir.count_cache c ~hit:(not !computed)
      | _ -> ());
      deliver sink v
  in
  Option.iter (fun c -> tally c n) counters;
  n

and eval_external source fd values =
  match source with
  | Metadata.Stored_procedure { db; procedure; row_name; columns } -> (
    let sql_args =
      List.map
        (fun v ->
          Adaptors.atomic_to_sql (singleton_atom "procedure argument" v))
        values
    in
    match Aldsp_relational.Procedure.call db procedure sql_args with
    | Error m -> error "%s" m
    | Ok rows -> (
      match columns with
      | Some columns ->
        List.map
          (fun row ->
            Item.Node (Adaptors.row_to_element ~row_name ~columns row))
          rows
      | None -> (
        match rows with
        | [ [| v |] ] -> (
          match V.to_atomic v with
          | Some atom -> [ Item.Atom atom ]
          | None -> [])
        | _ -> error "procedure %s: unexpected scalar result shape" procedure)))
  | Metadata.Relational_table { db; table; row_name } -> (
    match Adaptors.relational_scan db ~table ~row_name with
    | Ok items -> items
    | Error m -> error "%s" m)
  | Metadata.Service_op { service; operation } -> (
    match
      Adaptors.service_call service ~operation (List.concat values)
    with
    | Ok items -> items
    | Error m -> error "%s" m)
  | Metadata.External_custom registry -> (
    match Adaptors.custom_call registry fd.Metadata.fd_name values with
    | Ok items -> items
    | Error m -> error "%s" m)
  | Metadata.File_docs docs -> List.map (fun d -> Item.Node d) docs

(* --------------------------- operators ---------------------------- *)

and tuples cx frame0 (input : frame Seq.t) (ops : op list) : frame Seq.t =
  match ops with
  | [] -> input
  | { op_node = O_let _; _ } :: _ ->
    (* a maximal run of adjacent lets binds as one step so independent
       source calls within it can be submitted to the pool together *)
    let rec split run = function
      | ({ op_node = O_let _; _ } as o) :: rest -> split (o :: run) rest
      | rest -> (List.rev run, rest)
    in
    let run, rest = split [] ops in
    List.iter (fun o -> tally cx.counters.(o.op_id) 0) run;
    let width =
      width_of
        (List.filter_map
           (fun o -> match o.op_node with O_let { var; _ } -> Some var | _ -> None)
           run)
    in
    let t0 = Unix.gettimeofday () in
    let stream = Seq.map (fun frame -> bind_let_run cx frame width run) input in
    let stream =
      List.fold_left
        (fun s o -> count_rows ~t0 cx.counters.(o.op_id) s)
        stream run
    in
    tuples cx frame0 stream rest
  | op :: rest ->
    let c = cx.counters.(op.op_id) in
    tally c 0;
    let t0 = Unix.gettimeofday () in
    let counted = count_rows ~t0 c in
    let stream =
      match op.op_node with
      | O_scan { var; source } ->
        counted
          (Seq.concat_map
             (fun frame ->
               let items = exec cx frame source in
               Seq.map
                 (fun item -> extend frame var (Now [ item ]))
                 (List.to_seq items))
             input)
      | O_let _ -> assert false
      | O_select cond ->
        counted (Seq.filter (fun frame -> truth cx frame cond) input)
      | O_group { aggs; keys; clustered } ->
        counted (exec_group cx c input aggs keys clustered)
      | O_sort { keys } -> counted (exec_order cx c input keys)
      | O_join { kind; method_; right; base; on_; keys; export } ->
        exec_join cx ~t0 c frame0 input kind method_ right base on_ keys export
      | O_sql r ->
        counted_lists ~t0 c
          (Seq.flat_map (fun frame -> rel_chunks cx c frame r) input)
    in
    tuples cx frame0 stream rest

(* Concurrent independent source calls (§5.4, §6 async adaptors): the
   lowering marked each let of an adjacent run as plain, explicitly
   async, or auto-submittable (an external-function call with no data
   dependence on the other lets of the run — the fn-bea:async treatment,
   applied automatically). The marks are honoured only when the runtime
   allows concurrency, preserving the reference configuration's strictly
   sequential, in-place evaluation. The run fills one copy of the input
   frame, each value seeing the lets before it; a submitted value
   captures a copy of its own, since the run goes on filling. *)
and bind_let_run cx frame width run =
  let f = widen frame width in
  List.iter
    (fun o ->
      match o.op_node with
      | O_let { var; value; mode } ->
        f.(var.slot) <-
          (match mode with
          | (L_async | L_concurrent) when cx.rt.concurrent_lets ->
            let captured = Array.copy f in
            Later
              ( cx.rt.pool,
                Pool.submit cx.rt.pool (fun () -> exec cx captured value) )
          | _ -> Now (exec cx f value))
      | _ -> ())
    run;
  f

and exec_group cx counters input aggs keys clustered =
  (* the runtime has one grouping operator, which requires input clustered
     on the keys (§5.2); when the optimizer has established clustering the
     operator streams in constant memory, otherwise it sorts first — the
     worst-case fallback *)
  let key_of frame = List.map (fun (e, _) -> atomize (exec cx frame e)) keys in
  let width = width_of (List.map snd keys @ List.map snd aggs) in
  let group = make_group cx aggs keys width in
  (* each tuple with its input position and its keys, computed once *)
  let indexed =
    Seq.mapi
      (fun i frame ->
        let key = key_of frame in
        (i, key, if clustered then frame else materialize cx.rt frame))
      input
  in
  (* the grouping step over clustered tuples: watch the key change tuple
     by tuple; each group is tagged with its first member's position *)
  let rec cluster pending seq () =
    match seq () with
    | Seq.Nil -> (
      match pending with
      | Some (i0, key, members) ->
        Seq.Cons ((i0, group (key, List.rev members)), Seq.empty)
      | None -> Seq.Nil)
    | Seq.Cons ((i, key, frame), rest) -> (
      match pending with
      | Some (i0, k0, members) when keys_equal key k0 ->
        cluster (Some (i0, k0, frame :: members)) rest ()
      | Some (i0, k0, members) ->
        Seq.Cons
          ( (i0, group (k0, List.rev members)),
            cluster (Some (i, key, [ frame ])) rest )
      | None -> cluster (Some (i, key, [ frame ])) rest ())
  in
  if clustered then Seq.map snd (cluster None indexed)
  else
    (* Sort-based fallback; output groups in first-appearance order, the
       same order a SQL GROUP BY over our executor produces. Two stable
       sorts: by key, so equal keys become adjacent for the clustered
       step; then groups by their first member's input position, which
       restores first-appearance order. *)
    let sort cmp seq = spill_sort cx.rt counters ~cmp seq in
    let by_key =
      sort (fun (_, ka, _) (_, kb, _) -> compare_keys_total ka kb) indexed
    in
    Seq.map snd (sort (fun (a, _) (b, _) -> compare a b) (cluster None by_key))

(* A group's tuple: a copy of its first member's frame, with the keys
   and each aggregated input's values over every member. *)
and make_group cx aggs keys width (key, members) =
  let base = match members with frame :: _ -> frame | [] -> [||] in
  let f = widen base width in
  List.iter2
    (fun (_, (kvar : var)) katoms ->
      f.(kvar.slot) <- Now (List.map (fun a -> Item.Atom a) katoms))
    keys key;
  List.iter
    (fun (input, (out : var)) ->
      f.(out.slot) <- Now (List.concat_map (fun m -> exec cx m input) members))
    aggs;
  f

and exec_order cx counters input keys =
  let key_of frame = List.map (fun (e, _) -> atomize (exec cx frame e)) keys in
  let cmp (ka, _) (kb, _) =
    let rec go ka kb ks =
      match (ka, kb, ks) with
      | [], [], _ -> 0
      | a :: ka, b :: kb, (_, desc) :: ks -> (
        let c =
          match (a, b) with
          | [], [] -> 0
          | [], _ -> -1
          | _, [] -> 1
          | [ x ], [ y ] -> compare_atoms_total x y
          | xs, ys -> compare (List.length xs) (List.length ys)
        in
        let c = if desc then -c else c in
        match c with 0 -> go ka kb ks | c -> c)
      | _ -> 0
    in
    go ka kb keys
  in
  let keyed =
    Seq.map (fun frame -> (key_of frame, materialize cx.rt frame)) input
  in
  Seq.map snd (spill_sort cx.rt counters ~cmp keyed)

(* --------------------------- joins -------------------------------- *)

(* The join's tuples, counted into [c]. *)
and exec_join cx ~t0 c frame0 left kind method_ right base on_ keys export =
  let counted = count_rows ~t0 c in
  match (method_, keys) with
  | C.Nested_loop, _ | C.Index_nested_loop, [] ->
    counted (nl_join cx left kind right on_ export)
  | C.Index_nested_loop, _ ->
    counted (inl_join cx frame0 left kind right base keys on_ export)
  | C.Ppk { k; prefetch }, _ -> (
    match right with
    | ({ op_node = O_sql r; _ } as sql) :: rest_lets
      when List.for_all
             (fun o -> match o.op_node with O_let _ -> true | _ -> false)
             rest_lets ->
      ppk_join cx ~t0 c cx.counters.(sql.op_id) left kind r rest_lets ~k
        ~prefetch ~keys on_ export
    | _ -> counted (nl_join cx left kind right on_ export))

(* A left tuple's output: its matches, or for an outer join without any
   the tuple itself (the right variables unbound), or the tuple with the
   group of its matches. *)
and export_tuples cx left matches kind export =
  match export with
  | PE_bindings -> (
    match (matches, kind) with
    | [], C.J_left_outer -> Seq.return left
    | [], C.J_inner -> Seq.empty
    | ms, _ -> List.to_seq ms)
  | PE_grouped { gvar; gexpr } -> (
    match (matches, kind) with
    | [], C.J_inner -> Seq.empty
    | ms, _ ->
      let values = List.concat_map (fun m -> exec cx m gexpr) ms in
      Seq.return (extend left gvar (Now values)))

and nl_join cx left kind right on_ export =
  Seq.concat_map
    (fun l ->
      let matches =
        Seq.filter
          (fun frame -> truth cx frame on_)
          (tuples cx l (Seq.return l) right)
      in
      export_tuples cx l (List.of_seq matches) kind export)
    left

(* The right side runs once, on the first left tuple, and is indexed on
   its keys; each left tuple tries its bucket and the wild positions in
   right order, or every right tuple when its key does not fit, so the
   matches come in the nested loop's order and a skipped pair is one that
   compares unequal without error. *)
and inl_join cx frame0 left kind right base keys on_ export =
  let left_keys, right_keys = List.split keys in
  let indexed =
    lazy
      (let rights = Array.of_seq (tuples cx frame0 (Seq.return frame0) right) in
       (rights, key_index cx rights right_keys))
  in
  Seq.concat_map
    (fun l ->
      let rights, index = Lazy.force indexed in
      let candidates =
        match (index, hash_key cx l left_keys) with
        | Some ix, key when fits ix key ->
          List.merge Int.compare
            (Option.value ~default:[] (Hashtbl.find_opt ix.ki_keys key))
            ix.ki_wild
        | _ -> List.init (Array.length rights) Fun.id
      in
      let matches =
        List.filter_map
          (fun j ->
            let merged = merge l rights.(j) base in
            if truth cx merged on_ then Some merged else None)
          candidates
      in
      export_tuples cx l matches kind export)
    left

(* A join key over [exprs] in [frame], or [] when some part does not
   normalize — including when evaluating it fails: the key's position is
   then visited like a nested loop, which raises the error in its place. *)
and hash_key cx frame exprs =
  let part e =
    match exec cx frame e with
    | [ Item.Atom a ] -> hash_atom a
    | seq -> hash_part (atomize seq)
  in
  match List.map part exprs with
  | parts when List.for_all Option.is_some parts -> List.map Option.get parts
  | _ -> []
  | exception e when recoverable_failure e -> []

(* [None] when no key normalizes or they mix classes; every probe then
   visits every position. *)
and key_index cx frames keys =
  let keyed = Array.map (fun frame -> hash_key cx frame keys) frames in
  let index = Hashtbl.create (Array.length frames) in
  let wild = ref [] and shape = ref None and mixed = ref false in
  for i = Array.length frames - 1 downto 0 do
    match keyed.(i) with
    | [] -> wild := i :: !wild
    | key ->
      (match !shape with
      | None -> shape := Some key
      | Some s -> if not (List.for_all2 same_class s key) then mixed := true);
      let bucket = Option.value ~default:[] (Hashtbl.find_opt index key) in
      Hashtbl.replace index key (i :: bucket)
  done;
  match !shape with
  | Some s when not !mixed ->
    Some { ki_shape = s; ki_keys = index; ki_wild = !wild }
  | _ -> None

(* A fetched row's block key, per cursor, or [] when it does not
   normalize: a key part that reads a bound column whole comes straight
   from the row's value, without binding the row; any other part is
   evaluated over the row bound onto an empty frame. While the result
   lacks a bound column, keying a row raises as binding it would. *)
and row_key cx (b : binder) right_keys =
  let source rk =
    match whole_slot rk with
    | Some slot -> (
      match Array.find_index (Int.equal slot) b.slots with
      | Some i when b.cols.(i) >= 0 -> From_column (b.cols.(i), b.types.(i))
      | _ -> From_plan rk)
    | None -> From_plan rk
  in
  let rec parts row = function
    | [] -> []
    | From_column (c, ty) :: rest ->
      let p = hash_value ty row.(c) in
      p :: parts row rest
    | From_plan rk :: rest -> (
      match hash_key cx (bind_row b [||] row) [ rk ] with
      | [ p ] -> p :: parts row rest
      | _ -> raise_notrace No_key)
  in
  let sources = List.map source right_keys in
  if Array.exists (fun c -> c < 0) b.cols then fun row ->
    ignore (bind_row b [||] row);
    []
  else fun row -> try parts row sources with No_key -> []

(* A pushed region's rows for one input tuple, bound onto it chunk by
   chunk as the cursor yields them. *)
and rel_chunks cx counters frame (r : sql_region) : frame list Seq.t =
  let db =
    match Metadata.find_database cx.rt.registry r.sql_db with
    | Some db -> db
    | None -> error "unknown database %s" r.sql_db
  in
  let params =
    Array.of_list
      (List.map
         (fun p ->
           Adaptors.atomic_to_sql
             (singleton_atom "sql parameter" (exec cx frame p)))
         r.sql_params)
  in
  let t0 = Unix.gettimeofday () in
  let result = Sql_exec.open_cursor db r.sql_select ~params in
  counters.c_roundtrips <- counters.c_roundtrips + 1;
  counters.c_wall <- counters.c_wall +. (Unix.gettimeofday () -. t0);
  match result with
  | Error m -> error "%s" m
  | Ok cur ->
    let b = sql_binder r (Sql_exec.cursor_columns cur) in
    (* downstream operators see rows as the backend engine produces them *)
    Seq.map (List.map (bind_row b frame)) (cursor_chunks counters cur)

(* PP-k: fetch k left tuples, issue one disjunctive parameterized query for
   the block, middleware-join, repeat (§4.2). [rest_lets] are per-candidate
   clauses (row reconstruction) applied after binding a fetched row — none
   when nothing after the join reads the reconstruction. With
   [keys] (Cexpr.hash_keys) the middleware join is a hash join: the
   block's left keys are indexed once, each fetched row's key is read
   from its key columns, and the row is bound, reconstructed and tested
   only against the left tuples under its key — the full [on_] still
   decides, the hash only picks candidates.

   With [prefetch] > 0 the block queries are pipelined: parameter
   evaluation and SQL generation happen on the consumer thread while
   forcing the block sequence, only the source roundtrip itself runs on
   the pool, and [Pool.pipeline] keeps up to [prefetch] + 1 roundtrips in
   flight while emitting blocks strictly in submission order — so the
   result is byte-identical at every depth. The backend's plan lines ride
   along with each block's result and are stored into the region on the
   consumer thread, in block order, keeping EXPLAIN capture race-free. *)
and ppk_join cx ~t0 c sqlc left kind (r : sql_region) rest_lets ~k ~prefetch
    ~keys on_ export =
  let db =
    match Metadata.find_database cx.rt.registry r.sql_db with
    | Some db -> db
    | None -> error "unknown database %s" r.sql_db
  in
  let n_params = List.length r.sql_params in
  let left_keys, right_keys = List.split keys in
  let obs = cx.rt.observed in
  (* stage 1, consumer thread: the block query — WHERE (p_1..p_n) OR ...
     OR (p shifted (m-1)n), or col IN (?1..?m) for a one-column key — and
     its middleware-computed parameters *)
  let prepare (block : frame list) =
    let m = List.length block in
    let select = disjunctive_select r.sql_select n_params m in
    let params = Array.make (m * n_params) V.Null in
    List.iteri
      (fun t frame ->
        List.iteri
          (fun i p ->
            params.((t * n_params) + i) <-
              Adaptors.atomic_to_sql
                (singleton_atom "sql parameter" (exec cx frame p)))
          r.sql_params)
      block;
    (block, select, params)
  in
  (* stage 2, pool worker: the latency-bound statement open (roundtrip
     latency and any scheduled fault are paid here, on the worker, so
     prefetch still hides them behind the previous block's join) *)
  let roundtrip (block, select, params) =
    let t0 = Unix.gettimeofday () in
    let result = Sql_exec.open_cursor db select ~params in
    let t1 = Unix.gettimeofday () in
    Option.iter (fun o -> Observed.record_roundtrip o ~wall:(t1 -. t0)) obs;
    sqlc.c_roundtrips <- sqlc.c_roundtrips + 1;
    (block, result, (t0, t1))
  in
  (* the operator's wall is the time it had a statement in flight, added
     on the consumer thread in block order: prefetched statements overlap
     each other and the join, and a per-statement sum would count the
     same wall-clock time more than once — more than the whole join took
     once the join itself is cheap *)
  let in_flight_until = ref 0. in
  let account_wall (t0, t1) =
    let fresh = t1 -. Float.max t0 !in_flight_until in
    sqlc.c_wall <- sqlc.c_wall +. Float.max 0. fresh;
    in_flight_until := Float.max !in_flight_until t1
  in
  (* stage 3, consumer thread: middleware join of the block, chunk by
     chunk — candidate binding, row reconstruction and the join predicate
     run while the backend cursor is still producing, and only the
     matches are retained (never the raw block result set). Matches
     accumulate per left tuple so the output stays in left-block order,
     byte-identical to the all-at-once join. *)
  let middleware_join (block, result, span) =
    account_wall span;
    match result with
    | Error msg -> error "%s" msg
    | Ok cur ->
      let chunks = cursor_chunks sqlc cur in
      let b = sql_binder r (Sql_exec.cursor_columns cur) in
      let key_of_row = row_key cx b right_keys in
      let block = Array.of_list block in
      let m = Array.length block in
      let acc = Array.make m [] in
      (* built on the first row, so an empty block evaluates no key *)
      let index = lazy (key_index cx block left_keys) in
      (* left tuple [i]'s candidates, bound, reconstructed and tested in
         row order; the matches go onto [acc.(i)], latest first *)
      let join_tuple rows i candidates =
        let left = block.(i) in
        match rest_lets with
        | [] ->
          List.iter
            (fun j ->
              let frame = bind_row b left rows.(j) in
              if truth cx frame on_ then acc.(i) <- frame :: acc.(i))
            candidates
        | _ ->
          let bound = List.map (fun j -> bind_row b left rows.(j)) candidates in
          let reconstructed =
            List.concat_map
              (fun frame ->
                List.of_seq (tuples cx frame (Seq.return frame) rest_lets))
              bound
          in
          let matches =
            List.filter (fun frame -> truth cx frame on_) reconstructed
          in
          acc.(i) <- List.rev_append matches acc.(i)
      in
      Seq.iter
        (fun rows ->
          let rows = Array.of_list rows in
          let n = Array.length rows in
          sqlc.c_rows <- sqlc.c_rows + n;
          (* visits.(i): the rows to try against left tuple i, ascending.
             A row whose key does not fit the index visits every tuple, so
             candidates run in the nested loop's order and a skipped pair
             is one that compares unequal without error. *)
          let visits =
            match if n = 0 then None else Lazy.force index with
            | None ->
              let all = List.init n Fun.id in
              Array.make m all
            | Some ix ->
              let visits = Array.make m [] in
              for j = n - 1 downto 0 do
                match key_of_row rows.(j) with
                | key when fits ix key ->
                  (match Hashtbl.find ix.ki_keys key with
                  | is -> visit visits j is
                  | exception Not_found -> ());
                  visit visits j ix.ki_wild
                | _ -> for i = 0 to m - 1 do visits.(i) <- j :: visits.(i) done
              done;
              visits
          in
          Array.iteri (join_tuple rows) visits)
        chunks;
      (block, acc)
  in
  let prepared = Seq.map prepare (batch_seq k left) in
  let completed =
    Pool.pipeline cx.rt.pool ~depth:(max 0 prefetch) roundtrip prepared
  in
  (* overlap accounting: each pull blocks only for the part of the
     roundtrip not already hidden behind the previous block's join *)
  let with_overlap seq =
    match obs with
    | None -> seq
    | Some o ->
      let rec timed seq () =
        let t0 = Unix.gettimeofday () in
        match seq () with
        | Seq.Nil -> Seq.Nil
        | Seq.Cons (((_, _, (s0, s1)) as x), rest) ->
          let blocked = Unix.gettimeofday () -. t0 in
          Observed.record_overlap o (s1 -. s0 -. blocked);
          Seq.Cons (x, timed rest)
      in
      timed seq
  in
  let joined = Seq.map middleware_join (with_overlap completed) in
  match export with
  | PE_bindings ->
    (* nothing left to evaluate: each block's output is one list *)
    let output (block, acc) =
      let out = ref [] in
      for i = Array.length block - 1 downto 0 do
        out :=
          match (acc.(i), kind) with
          | [], C.J_left_outer -> block.(i) :: !out
          | [], C.J_inner -> !out
          | latest_first, _ -> List.rev_append latest_first !out
      done;
      !out
    in
    counted_lists ~t0 c (Seq.map output joined)
  | PE_grouped _ ->
    count_rows ~t0 c
      (Seq.concat_map
         (fun (block, acc) ->
           Seq.concat_map
             (fun i -> export_tuples cx block.(i) (List.rev acc.(i)) kind export)
             (Seq.init (Array.length block) Fun.id))
         joined)

(* Build the m-way disjunctive version of a 1-tuple parameterized select:
   the WHERE clause is OR-ed m times with parameter indices shifted. A
   one-column key [col = ?] over m > 1 tuples becomes [col IN (?1, ..,
   ?m)]: the same rows under three-valued logic and the same index probe
   keys, without the backend evaluating m equalities per fetched row. A
   block of one keeps [col = ?], the shape batched dispatch merges. *)
and disjunctive_select (select : Sql.select) n_params m =
  match select.Sql.where with
  | None -> select
  | Some (Sql.Binop (Sql.Eq, (Sql.Col _ as col), Sql.Param i))
    when n_params = 1 && m > 1 ->
    { select with
      Sql.where =
        Some (Sql.In_list (col, List.init m (fun j -> Sql.Param (i + j)))) }
  | Some where ->
    let disjuncts =
      List.init m (fun j -> Sql.shift_expr (j * n_params) where)
    in
    let where' =
      match disjuncts with
      | [] -> where
      | first :: rest ->
        List.fold_left (fun acc d -> Sql.Binop (Sql.Or, acc, d)) first rest
    in
    { select with Sql.where = Some where' }

(* ------------------------- token emission ------------------------- *)

(* The one implementation of constructors, pipelines, sequences and
   data-service calls: delivers the value of [p] into [sink] and returns
   how many items it is. Every other node runs [exec] and hands over its
   items, which a token sink walks and the building sink attaches. *)
and emit_plan cx frame sink (p : plan) =
  match p.node with
  | P_construct { name; optional; attrs; content } ->
    let attributes = attributes cx frame attrs in
    let n =
      if optional && attributes = [] then begin
        (* <E?> opens only once its content delivers something *)
        let opened = ref false in
        let open_ () =
          if not !opened then begin
            opened := true;
            sink.token (Token.Start_element name)
          end
        in
        let content_sink =
          { Token_stream.token = (fun t -> open_ (); sink.token t);
            items = (fun l -> if l <> [] then (open_ (); sink.items l)) }
        in
        ignore (emit_plan cx frame content_sink content);
        if !opened then sink.token Token.End_element;
        Bool.to_int !opened
      end
      else begin
        sink.token (Token.Start_element name);
        push_attributes sink attributes;
        ignore (emit_plan cx frame sink content);
        sink.token Token.End_element;
        1
      end
    in
    tally cx.counters.(p.id) n;
    n
  | P_pipeline { ops; return_ } ->
    (* a pipeline streams here, so its first row is stamped as the tuple
       operators stamp theirs *)
    let t0 = Unix.gettimeofday () in
    let n =
      Seq.fold_left
        (fun n frame' ->
          let m = emit_plan cx frame' sink return_ in
          if m > 0 then first_row cx.counters.(p.id) t0;
          n + m)
        0
        (tuples cx frame (Seq.return frame) ops)
    in
    tally cx.counters.(p.id) n;
    n
  | P_seq es -> emit_children cx frame sink (submit_async cx frame es) 0 es
  | P_call { fn; args; _ } -> (
    match Metadata.resolve_call cx.rt.registry fn (List.length args) with
    | Some fd ->
      Cancel.check_current ();
      call cx sink (counter cx p) fd (List.map (exec cx frame) args)
    | None -> deliver sink (exec_call cx frame p fn args))
  | _ -> deliver sink (exec cx frame p)

(* fn-bea:async children are submitted to the worker pool before any
   sibling runs, so independent slow calls overlap (§5.4); each value is
   awaited in its child's place. *)
and emit_children cx frame sink futures n = function
  | [] -> n
  | e :: es ->
    let m =
      match List.assq_opt e futures with
      | Some fut -> deliver sink (Pool.await cx.rt.pool fut)
      | None -> emit_plan cx frame sink e
    in
    emit_children cx frame sink futures (n + m) es

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

(* A root pipeline has stamped its first row as it came; a root of
   another shape is stamped when it ends. [bindings] supply the plan's
   parameters by name. *)
let emit rt ?(bindings = []) ~counters view sink =
  let t0 = Unix.gettimeofday () in
  let params = params_of view (fun name -> List.assoc_opt name bindings) in
  let n = emit_plan { rt; depth = 0; counters; params } [||] sink view.tree in
  if n > 0 then first_row counters.(view.tree.id) t0

(* An evaluation error or abort carries its cause; anything else is
   named by its printer. *)
let failure_message = function
  | Eval_error m | Cancel.Cancelled m -> m
  | e -> Printexc.to_string e

(* A deadline abort surfaces like any other failure at the API boundary:
   callers see [Error] with the cause, never the exception. The server
   tells aborts apart by consulting the statement's token. *)
let execute rt ?bindings ~counters ~through view =
  let t0 = Unix.gettimeofday () in
  let sink, built = Token_stream.building_sink () in
  match emit rt ?bindings ~counters view (through sink) with
  | () ->
    (* materialized delivery: the first item reaches the caller only when
       the whole result does, and the root's time-to-first-row says so *)
    let v = built () in
    if v <> [] then
      counters.(view.tree.id).c_first_row_ns <-
        (Unix.gettimeofday () -. t0) *. 1e9;
    Ok v
  | exception e -> Error (failure_message e)

let eval rt ?bindings e =
  let view = Plan_ir.compile rt.registry e in
  execute rt ?bindings ~counters:view.totals ~through:Fun.id view

let call_function rt ~through fn args =
  match Metadata.find_function rt.registry fn (List.length args) with
  | None ->
    Error
      (Printf.sprintf "no function %s/%d" (Qname.to_string fn)
         (List.length args))
  | Some fd -> (
    (* no call site: a body counts into its own totals, an external none *)
    let cx = { rt; depth = 0; counters = [||]; params = [||] } in
    match build (fun sink -> call cx (through sink) None fd args) with
    | v -> Ok v
    | exception e -> Error (failure_message e))
