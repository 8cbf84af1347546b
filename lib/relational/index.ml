module V = Sql_value

(* Normalized key parts. Two SQL values that compare equal under
   [Sql_value.compare_sql] must normalize to structurally identical parts:
   numerics (Int/Float/Timestamp) collapse to their float image, -0. is
   canonicalized to 0., and every NaN payload to the same NaN, so the
   polymorphic [compare] below treats them as one key. Distinct values may
   still collide (two large ints with the same float image); probes are
   therefore candidate generators and callers re-verify with the SQL
   comparison. NULL is its own part so grouping probes can match it. *)
type part = K_null | K_num of float | K_str of string | K_bool of bool

type key = part array

let canon_float f = if Float.is_nan f then Float.nan else if f = 0. then 0. else f

let part_of_value = function
  | V.Null -> K_null
  | V.Int i -> K_num (canon_float (float_of_int i))
  | V.Float f -> K_num (canon_float f)
  | V.Timestamp f -> K_num (canon_float f)
  | V.Str s -> K_str s
  | V.Bool b -> K_bool b

let key_of_values values = Array.map part_of_value values
let hash_value v = Hashtbl.hash (part_of_value v)

module Key = struct
  type t = key

  (* [compare] (not [=]) so K_num NaN equals itself; canonicalization makes
     equal keys bitwise identical, so the generic hash agrees. *)
  let equal a b = Stdlib.compare a b = 0
  let hash (k : t) = Hashtbl.hash k
end

module Key_tbl = Hashtbl.Make (Key)

type t = {
  idx_name : string;
  idx_cols : string list;  (* column names, in key order *)
  idx_pos : int array;  (* positions of the key columns in a row *)
  idx_unique : bool;
  buckets : int list ref Key_tbl.t;  (* row ids, descending *)
  (* numeric [min, max] over single-column K_num keys; widened on add,
     marked dirty when a delete empties an endpoint bucket (the surviving
     extremum is unknowable without a scan, so it is recomputed lazily) *)
  mutable rng : (float * float) option;
  mutable rng_dirty : bool;
}

let create ?(unique = false) ~name ~cols ~positions () =
  { idx_name = name;
    idx_cols = cols;
    idx_pos = positions;
    idx_unique = unique;
    buckets = Key_tbl.create 64;
    rng = None;
    rng_dirty = false }

let name t = t.idx_name
let columns t = t.idx_cols
let positions t = t.idx_pos
let unique t = t.idx_unique

let key_of_row t row = key_of_values (Array.map (fun i -> row.(i)) t.idx_pos)

let same_key t a b =
  Array.for_all
    (fun i ->
      a.(i) == b.(i)
      || Stdlib.compare (part_of_value a.(i)) (part_of_value b.(i)) = 0)
    t.idx_pos

(* NaN keys stay out of the range: they compare as a key bucket of their
   own but carry no order, so min/max over them is meaningless. *)
let numeric_of_key (k : key) =
  if Array.length k = 1 then
    match k.(0) with
    | K_num f when not (Float.is_nan f) -> Some f
    | _ -> None
  else None

let widen_range t k =
  match numeric_of_key k with
  | None -> ()
  | Some f -> (
    match t.rng with
    | None -> t.rng <- Some (f, f)
    | Some (lo, hi) ->
      if f < lo then t.rng <- Some (f, hi)
      else if f > hi then t.rng <- Some (lo, f))

(* Ids are kept descending so the common case — adding the freshest (and
   largest) row id — is a cons; probes reverse to ascending scan order. *)
let add t id row =
  let k = key_of_row t row in
  let bucket =
    match Key_tbl.find_opt t.buckets k with
    | Some b -> b
    | None ->
      let b = ref [] in
      Key_tbl.add t.buckets k b;
      b
  in
  let rec ins = function
    | [] -> [ id ]
    | x :: _ as l when id > x -> id :: l
    | x :: rest -> x :: ins rest
  in
  bucket := ins !bucket;
  widen_range t k

let remove t id row =
  let k = key_of_row t row in
  match Key_tbl.find_opt t.buckets k with
  | None -> ()
  | Some b ->
    b := List.filter (fun x -> x <> id) !b;
    if !b = [] then begin
      Key_tbl.remove t.buckets k;
      match (numeric_of_key k, t.rng) with
      | Some f, Some (lo, hi) when f = lo || f = hi -> t.rng_dirty <- true
      | _ -> ()
    end

let distinct_keys t = Key_tbl.length t.buckets

let numeric_range t =
  if t.rng_dirty then begin
    t.rng <-
      Key_tbl.fold
        (fun k _ acc ->
          match (numeric_of_key k, acc) with
          | None, acc -> acc
          | Some f, None -> Some (f, f)
          | Some f, Some (lo, hi) -> Some (Float.min f lo, Float.max f hi))
        t.buckets None;
    t.rng_dirty <- false
  end;
  t.rng

let probe_key t k =
  match Key_tbl.find_opt t.buckets k with
  | Some b -> List.rev !b
  | None -> []

(* Grouping equality (NULL matches NULL): primary-key uniqueness and
   GROUP BY semantics. *)
let probe_grouping t values = probe_key t (key_of_values values)

(* SQL equality: a NULL anywhere in a probe tuple can never compare
   True, so it matches nothing. The buckets are copied into one array,
   which is merge-sorted and its duplicates dropped in place: a row two
   tuples reach, under duplicate or float-equal keys, is one candidate. *)
let probe_many t tuples =
  let buckets =
    List.fold_left
      (fun acc values ->
        if Array.exists V.is_null values then acc
        else
          match Key_tbl.find_opt t.buckets (key_of_values values) with
          | Some b -> !b :: acc
          | None -> acc)
      [] tuples
  in
  let ids =
    Array.make (List.fold_left (fun n b -> n + List.length b) 0 buckets) 0
  in
  let n = ref 0 in
  List.iter
    (List.iter (fun id ->
         ids.(!n) <- id;
         incr n))
    buckets;
  Array.stable_sort Int.compare ids;
  n := 0;
  Array.iteri
    (fun i id ->
      if i = 0 || id <> ids.(!n - 1) then begin
        ids.(!n) <- id;
        incr n
      end)
    ids;
  if !n = Array.length ids then ids else Array.sub ids 0 !n

let probe t values = Array.to_list (probe_many t [ values ])
