open Aldsp_xml
module Sql = Aldsp_relational.Sql_ast

type sql_translation =
  | Sql_aggregate of Sql.agg_kind
  | Sql_function of Sql.func
  | Sql_concat
  | Sql_special
  | Not_pushable

type builtin = {
  bname : Qname.t;
  min_arity : int;
  max_arity : int option;
  param_types : Stype.t list;
  return_type : int -> Stype.t;
  translation : sql_translation;
  special : bool;
  eval : Item.sequence list -> (Item.sequence, string) result;
}

let ( let* ) = Result.bind

let no_eval name _ =
  Error (Printf.sprintf "%s is evaluated by the engine, not directly" name)

let atomize_arg seq = Item.atomize seq

let singleton_string seq =
  match seq with
  | [] -> Ok None
  | [ item ] -> Ok (Some (Item.string_value item))
  | _ -> Error "expected at most one item"

(* A function of two optional strings, an empty sequence read as "". *)
let string_pair name f = function
  | [ a; b ] ->
    let* s = singleton_string a in
    let* p = singleton_string b in
    f (Option.value s ~default:"") (Option.value p ~default:"")
  | _ -> Error (name ^ " expects two arguments")

(* Where [p] first occurs in [s]. *)
let find_sub s p =
  let np = String.length p in
  let rec find i =
    if i + np > String.length s then None
    else if String.sub s i np = p then Some i
    else find (i + 1)
  in
  find 0

let required_string name seq =
  let* s = singleton_string seq in
  match s with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "%s: empty sequence where a string is required" name)

let singleton_number name seq =
  let* atoms = atomize_arg seq in
  match atoms with
  | [] -> Ok None
  | [ a ] -> (
    match a with
    | Atomic.Integer _ | Atomic.Decimal _ | Atomic.Double _ -> Ok (Some a)
    | Atomic.Untyped s -> (
      match float_of_string_opt s with
      | Some f -> Ok (Some (Atomic.Double f))
      | None -> Error (Printf.sprintf "%s: %S is not a number" name s))
    | _ ->
      Error
        (Printf.sprintf "%s: %s is not numeric" name
           (Atomic.type_name (Atomic.type_of a))))
  | _ -> Error (Printf.sprintf "%s: expected at most one number" name)

let numeric_fold name op args =
  match args with
  | [ seq ] ->
    let* atoms = atomize_arg seq in
    let rec go acc = function
      | [] -> Ok acc
      | a :: rest ->
        let a =
          match a with
          | Atomic.Untyped s -> (
            match float_of_string_opt s with
            | Some f -> Ok (Atomic.Double f)
            | None -> Error (Printf.sprintf "%s: %S is not a number" name s))
          | a -> Ok a
        in
        let* a = a in
        let* acc' = op acc a in
        go acc' rest
    in
    (match atoms with
    | [] -> Ok []
    | first :: rest ->
      let first =
        match first with
        | Atomic.Untyped s -> (
          match float_of_string_opt s with
          | Some f -> Ok (Atomic.Double f)
          | None -> Error (Printf.sprintf "%s: %S is not a number" name s))
        | a -> Ok a
      in
      let* first = first in
      let* result = go first rest in
      Ok [ Item.Atom result ])
  | _ -> Error (Printf.sprintf "%s expects one argument" name)

let compare_fold name keep args =
  match args with
  | [ seq ] ->
    let* atoms = atomize_arg seq in
    (match atoms with
    | [] -> Ok []
    | first :: rest ->
      let rec go acc = function
        | [] -> Ok [ Item.Atom acc ]
        | a :: tail ->
          let* c = Atomic.compare_values a acc in
          go (if keep c then a else acc) tail
      in
      Result.map_error (fun e -> name ^ ": " ^ e) (go first rest))
  | _ -> Error (Printf.sprintf "%s expects one argument" name)

let star_item = Stype.any_item_star
let one_int = Stype.atomic Atomic.T_integer
let one_bool = Stype.atomic Atomic.T_boolean
let one_string = Stype.atomic Atomic.T_string
let opt_string = Stype.opt (Stype.It_atomic Atomic.T_string)
let opt_atom = { Stype.items = [ Stype.It_atomic Atomic.T_untyped; Stype.It_atomic Atomic.T_integer; Stype.It_atomic Atomic.T_decimal; Stype.It_atomic Atomic.T_double; Stype.It_atomic Atomic.T_string; Stype.It_atomic Atomic.T_boolean; Stype.It_atomic Atomic.T_date; Stype.It_atomic Atomic.T_date_time ]; occ = Stype.occ_opt }
let star_atom = { opt_atom with Stype.occ = Stype.occ_star }

let date_component name field args =
  let ( let* ) = Result.bind in
  match args with
  | [ seq ] -> (
    let* atoms = Item.atomize seq in
    match atoms with
    | [] -> Ok []
    | [ Atomic.Date_time t ] ->
      Ok [ Item.integer (field (Atomic.date_of_epoch t)) ]
    | [ Atomic.Date d ] -> Ok [ Item.integer (field d) ]
    | _ -> Error (name ^ ": expected a dateTime"))
  | _ -> Error (name ^ " expects one argument")

let mk ?(translation = Not_pushable) ?(special = false) ?max_arity name
    ~min_arity ~params ~returns eval =
  { bname = name;
    min_arity;
    max_arity = (match max_arity with Some m -> m | None -> Some min_arity);
    param_types = params;
    return_type = (fun _ -> returns);
    translation;
    special;
    eval }

let all =
  [ (* ---- cardinality / aggregates ---- *)
    mk (Names.fn "count") ~min_arity:1 ~params:[ star_item ] ~returns:one_int
      ~translation:(Sql_aggregate Sql.Count)
      (function
        | [ seq ] -> Ok [ Item.integer (List.length seq) ]
        | _ -> Error "count expects one argument");
    mk (Names.fn "sum") ~min_arity:1 ~params:[ star_atom ] ~returns:opt_atom
      ~translation:(Sql_aggregate Sql.Sum)
      (fun args ->
        match numeric_fold "sum" Atomic.add args with
        | Ok [] -> Ok [ Item.integer 0 ]
        | r -> r);
    mk (Names.fn "avg") ~min_arity:1 ~params:[ star_atom ] ~returns:opt_atom
      ~translation:(Sql_aggregate Sql.Avg)
      (fun args ->
        match args with
        | [ [] ] -> Ok []
        | [ seq ] -> (
          let* total = numeric_fold "avg" Atomic.add [ seq ] in
          match total with
          | [ Item.Atom t ] ->
            let* r = Atomic.div t (Atomic.Integer (List.length seq)) in
            Ok [ Item.Atom r ]
          | _ -> Ok [])
        | _ -> Error "avg expects one argument");
    mk (Names.fn "min") ~min_arity:1 ~params:[ star_atom ] ~returns:opt_atom
      ~translation:(Sql_aggregate Sql.Min)
      (compare_fold "min" (fun c -> c < 0));
    mk (Names.fn "max") ~min_arity:1 ~params:[ star_atom ] ~returns:opt_atom
      ~translation:(Sql_aggregate Sql.Max)
      (compare_fold "max" (fun c -> c > 0));
    (* ---- sequences ---- *)
    mk (Names.fn "empty") ~min_arity:1 ~params:[ star_item ] ~returns:one_bool
      ~translation:Sql_special
      (function
        | [ seq ] -> Ok [ Item.boolean (seq = []) ]
        | _ -> Error "empty expects one argument");
    mk (Names.fn "exists") ~min_arity:1 ~params:[ star_item ]
      ~returns:one_bool ~translation:Sql_special
      (function
        | [ seq ] -> Ok [ Item.boolean (seq <> []) ]
        | _ -> Error "exists expects one argument");
    mk (Names.fn "subsequence") ~min_arity:2 ~max_arity:(Some 3)
      ~params:[ star_item; Stype.atomic Atomic.T_double; Stype.atomic Atomic.T_double ]
      ~returns:star_item ~translation:Sql_special
      (fun args ->
        let to_num seq =
          match singleton_number "subsequence" seq with
          | Ok (Some a) -> (
            match a with
            | Atomic.Integer i -> Ok (float_of_int i)
            | Atomic.Decimal f | Atomic.Double f -> Ok f
            | _ -> Error "subsequence: non-numeric argument")
          | Ok None -> Error "subsequence: empty position"
          | Error e -> Error e
        in
        match args with
        | [ seq; start ] ->
          let* s = to_num start in
          let s = int_of_float (Float.round s) in
          Ok (List.filteri (fun i _ -> i + 1 >= s) seq)
        | [ seq; start; len ] ->
          let* s = to_num start in
          let* l = to_num len in
          let s = int_of_float (Float.round s) in
          let l = int_of_float (Float.round l) in
          Ok (List.filteri (fun i _ -> i + 1 >= s && i + 1 < s + l) seq)
        | _ -> Error "subsequence expects 2 or 3 arguments");
    mk (Names.fn "distinct-values") ~min_arity:1 ~params:[ star_atom ]
      ~returns:star_atom
      (function
        | [ seq ] ->
          let* atoms = atomize_arg seq in
          let result =
            List.fold_left
              (fun acc a ->
                if List.exists (fun b -> Atomic.general_equal a b) acc then acc
                else a :: acc)
              [] atoms
          in
          Ok (List.rev_map (fun a -> Item.Atom a) result)
        | _ -> Error "distinct-values expects one argument");
    mk (Names.fn "reverse") ~min_arity:1 ~params:[ star_item ]
      ~returns:star_item
      (function
        | [ seq ] -> Ok (List.rev seq)
        | _ -> Error "reverse expects one argument");
    mk (Names.fn "insert-before") ~min_arity:3
      ~params:[ star_item; one_int; star_item ] ~returns:star_item
      (function
        | [ seq; pos; ins ] -> (
          let* n = singleton_number "insert-before" pos in
          match n with
          | Some (Atomic.Integer p) ->
            let p = max 1 p in
            let before = List.filteri (fun i _ -> i + 1 < p) seq in
            let after = List.filteri (fun i _ -> i + 1 >= p) seq in
            Ok (before @ ins @ after)
          | _ -> Error "insert-before: bad position")
        | _ -> Error "insert-before expects three arguments");
    (* ---- booleans ---- *)
    mk (Names.fn "not") ~min_arity:1 ~params:[ star_item ] ~returns:one_bool
      ~translation:Sql_special
      (function
        | [ seq ] ->
          let* b = Item.ebv seq in
          Ok [ Item.boolean (not b) ]
        | _ -> Error "not expects one argument");
    mk (Names.fn "true") ~min_arity:0 ~params:[] ~returns:one_bool (fun _ ->
        Ok [ Item.boolean true ]);
    mk (Names.fn "false") ~min_arity:0 ~params:[] ~returns:one_bool (fun _ ->
        Ok [ Item.boolean false ]);
    mk (Names.fn "boolean") ~min_arity:1 ~params:[ star_item ]
      ~returns:one_bool
      (function
        | [ seq ] ->
          let* b = Item.ebv seq in
          Ok [ Item.boolean b ]
        | _ -> Error "boolean expects one argument");
    (* ---- strings ---- *)
    mk (Names.fn "string") ~min_arity:1 ~params:[ star_item ]
      ~returns:one_string
      (function
        | [ seq ] -> (
          let* s = singleton_string seq in
          match s with
          | Some s -> Ok [ Item.string s ]
          | None -> Ok [ Item.string "" ])
        | _ -> Error "string expects one argument");
    mk (Names.fn "concat") ~min_arity:2 ~max_arity:(Some 16)
      ~params:[ opt_atom; opt_atom ] ~returns:one_string
      ~translation:Sql_concat
      (fun args ->
        let* parts =
          List.fold_left
            (fun acc seq ->
              let* acc = acc in
              let* s = singleton_string seq in
              Ok (Option.value s ~default:"" :: acc))
            (Ok []) args
        in
        Ok [ Item.string (String.concat "" (List.rev parts)) ]);
    mk (Names.fn "string-join") ~min_arity:2 ~params:[ star_atom; one_string ]
      ~returns:one_string
      (function
        | [ seq; sep ] ->
          let* sep = required_string "string-join" sep in
          Ok [ Item.string (String.concat sep (List.map Item.string_value seq)) ]
        | _ -> Error "string-join expects two arguments");
    mk (Names.fn "contains") ~min_arity:2 ~params:[ opt_string; opt_string ]
      ~returns:one_bool
      (string_pair "contains" (fun hay needle ->
           Ok [ Item.boolean (find_sub hay needle <> None) ]));
    mk (Names.fn "starts-with") ~min_arity:2 ~params:[ opt_string; opt_string ]
      ~returns:one_bool
      (string_pair "starts-with" (fun s p ->
           Ok
             [ Item.boolean
                 (String.length p <= String.length s
                 && String.sub s 0 (String.length p) = p) ]));
    mk (Names.fn "string-length") ~min_arity:1 ~params:[ opt_string ]
      ~returns:one_int
      ~translation:(Sql_function Sql.Char_length)
      (function
        | [ seq ] ->
          let* s = singleton_string seq in
          Ok [ Item.integer (String.length (Option.value s ~default:"")) ]
        | _ -> Error "string-length expects one argument");
    mk (Names.fn "substring") ~min_arity:2 ~max_arity:(Some 3)
      ~params:[ opt_string; Stype.atomic Atomic.T_double; Stype.atomic Atomic.T_double ]
      ~returns:one_string
      ~translation:(Sql_function Sql.Substr)
      (fun args ->
        let get_num seq =
          match singleton_number "substring" seq with
          | Ok (Some (Atomic.Integer i)) -> Ok i
          | Ok (Some (Atomic.Decimal f)) | Ok (Some (Atomic.Double f)) ->
            Ok (int_of_float (Float.round f))
          | Ok (Some _) | Ok None -> Error "substring: bad position"
          | Error e -> Error e
        in
        match args with
        | [ s; start ] ->
          let* s = singleton_string s in
          let s = Option.value s ~default:"" in
          let* st = get_num start in
          let st = max 1 st in
          if st > String.length s then Ok [ Item.string "" ]
          else Ok [ Item.string (String.sub s (st - 1) (String.length s - st + 1)) ]
        | [ s; start; len ] ->
          let* s = singleton_string s in
          let s = Option.value s ~default:"" in
          let* st = get_num start in
          let* l = get_num len in
          let st = max 1 st in
          if st > String.length s || l <= 0 then Ok [ Item.string "" ]
          else
            let l = min l (String.length s - st + 1) in
            Ok [ Item.string (String.sub s (st - 1) l) ]
        | _ -> Error "substring expects 2 or 3 arguments");
    mk (Names.fn "upper-case") ~min_arity:1 ~params:[ opt_string ]
      ~returns:one_string
      ~translation:(Sql_function Sql.Upper)
      (function
        | [ seq ] ->
          let* s = singleton_string seq in
          Ok [ Item.string (String.uppercase_ascii (Option.value s ~default:"")) ]
        | _ -> Error "upper-case expects one argument");
    mk (Names.fn "lower-case") ~min_arity:1 ~params:[ opt_string ]
      ~returns:one_string
      ~translation:(Sql_function Sql.Lower)
      (function
        | [ seq ] ->
          let* s = singleton_string seq in
          Ok [ Item.string (String.lowercase_ascii (Option.value s ~default:"")) ]
        | _ -> Error "lower-case expects one argument");
    mk (Names.fn "normalize-space") ~min_arity:1 ~params:[ opt_string ]
      ~returns:one_string
      ~translation:(Sql_function Sql.Trim)
      (function
        | [ seq ] ->
          let* s = singleton_string seq in
          let words =
            String.split_on_char ' ' (Option.value s ~default:"")
            |> List.concat_map (String.split_on_char '\t')
            |> List.concat_map (String.split_on_char '\n')
            |> List.filter (fun w -> w <> "")
          in
          Ok [ Item.string (String.concat " " words) ]
        | _ -> Error "normalize-space expects one argument");
    (* ---- numerics ---- *)
    mk (Names.fn "abs") ~min_arity:1 ~params:[ opt_atom ] ~returns:opt_atom
      ~translation:(Sql_function Sql.Abs)
      (fun args ->
        match args with
        | [ seq ] -> (
          let* n = singleton_number "abs" seq in
          match n with
          | None -> Ok []
          | Some (Atomic.Integer i) -> Ok [ Item.integer (abs i) ]
          | Some (Atomic.Decimal f) -> Ok [ Item.Atom (Atomic.Decimal (Float.abs f)) ]
          | Some (Atomic.Double f) -> Ok [ Item.Atom (Atomic.Double (Float.abs f)) ]
          | Some _ -> Error "abs: non-numeric")
        | _ -> Error "abs expects one argument");
    mk (Names.fn "floor") ~min_arity:1 ~params:[ opt_atom ] ~returns:opt_atom
      (fun args ->
        match args with
        | [ seq ] -> (
          let* n = singleton_number "floor" seq in
          match n with
          | None -> Ok []
          | Some (Atomic.Integer i) -> Ok [ Item.integer i ]
          | Some (Atomic.Decimal f) -> Ok [ Item.Atom (Atomic.Decimal (Float.floor f)) ]
          | Some (Atomic.Double f) -> Ok [ Item.Atom (Atomic.Double (Float.floor f)) ]
          | Some _ -> Error "floor: non-numeric")
        | _ -> Error "floor expects one argument");
    mk (Names.fn "ceiling") ~min_arity:1 ~params:[ opt_atom ] ~returns:opt_atom
      (fun args ->
        match args with
        | [ seq ] -> (
          let* n = singleton_number "ceiling" seq in
          match n with
          | None -> Ok []
          | Some (Atomic.Integer i) -> Ok [ Item.integer i ]
          | Some (Atomic.Decimal f) -> Ok [ Item.Atom (Atomic.Decimal (Float.ceil f)) ]
          | Some (Atomic.Double f) -> Ok [ Item.Atom (Atomic.Double (Float.ceil f)) ]
          | Some _ -> Error "ceiling: non-numeric")
        | _ -> Error "ceiling expects one argument");
    mk (Names.fn "round") ~min_arity:1 ~params:[ opt_atom ] ~returns:opt_atom
      (fun args ->
        match args with
        | [ seq ] -> (
          let* n = singleton_number "round" seq in
          match n with
          | None -> Ok []
          | Some (Atomic.Integer i) -> Ok [ Item.integer i ]
          | Some (Atomic.Decimal f) -> Ok [ Item.Atom (Atomic.Decimal (Float.round f)) ]
          | Some (Atomic.Double f) -> Ok [ Item.Atom (Atomic.Double (Float.round f)) ]
          | Some _ -> Error "round: non-numeric")
        | _ -> Error "round expects one argument");
    mk (Names.fn "ends-with") ~min_arity:2 ~params:[ opt_string; opt_string ]
      ~returns:one_bool
      (string_pair "ends-with" (fun s p ->
           let ns = String.length s and np = String.length p in
           Ok [ Item.boolean (np <= ns && String.sub s (ns - np) np = p) ]));
    mk (Names.fn "substring-before") ~min_arity:2
      ~params:[ opt_string; opt_string ] ~returns:one_string
      (string_pair "substring-before" (fun s p ->
           match find_sub s p with
           | Some i -> Ok [ Item.string (String.sub s 0 i) ]
           | None -> Ok [ Item.string "" ]));
    mk (Names.fn "substring-after") ~min_arity:2
      ~params:[ opt_string; opt_string ] ~returns:one_string
      (string_pair "substring-after" (fun s p ->
           match find_sub s p with
           | Some i ->
             let i = i + String.length p in
             Ok [ Item.string (String.sub s i (String.length s - i)) ]
           | None -> Ok [ Item.string "" ]));
    mk (Names.fn "translate") ~min_arity:3
      ~params:[ opt_string; one_string; one_string ] ~returns:one_string
      (function
        | [ a; map_from; map_to ] ->
          let* s = singleton_string a in
          let* from_ = required_string "translate" map_from in
          let* to_ = required_string "translate" map_to in
          let s = Option.value s ~default:"" in
          let buf = Buffer.create (String.length s) in
          String.iter
            (fun c ->
              match String.index_opt from_ c with
              | Some i ->
                if i < String.length to_ then Buffer.add_char buf to_.[i]
              | None -> Buffer.add_char buf c)
            s;
          Ok [ Item.string (Buffer.contents buf) ]
        | _ -> Error "translate expects three arguments");
    mk (Names.fn "index-of") ~min_arity:2 ~params:[ star_atom; opt_atom ]
      ~returns:(Stype.star (Stype.It_atomic Atomic.T_integer))
      (function
        | [ seq; target ] -> (
          let* atoms = atomize_arg seq in
          let* t = atomize_arg target in
          match t with
          | [ t ] ->
            Ok
              (List.concat
                 (List.mapi
                    (fun i a ->
                      if Atomic.general_equal a t then [ Item.integer (i + 1) ]
                      else [])
                    atoms))
          | _ -> Error "index-of: second argument must be a single atomic")
        | _ -> Error "index-of expects two arguments");
    mk (Names.fn "remove") ~min_arity:2 ~params:[ star_item; one_int ]
      ~returns:star_item
      (function
        | [ seq; pos ] -> (
          let* atoms = atomize_arg pos in
          match atoms with
          | [ Atomic.Integer p ] ->
            Ok (List.filteri (fun i _ -> i + 1 <> p) seq)
          | _ -> Error "remove: bad position")
        | _ -> Error "remove expects two arguments");
    mk (Names.fn "zero-or-one") ~min_arity:1 ~params:[ star_item ]
      ~returns:(Stype.opt Stype.It_item)
      (function
        | [ ([] | [ _ ]) as seq ] -> Ok seq
        | [ _ ] -> Error "fn:zero-or-one: more than one item"
        | _ -> Error "zero-or-one expects one argument");
    mk (Names.fn "exactly-one") ~min_arity:1 ~params:[ star_item ]
      ~returns:(Stype.one Stype.It_item)
      (function
        | [ [ item ] ] -> Ok [ item ]
        | [ _ ] -> Error "fn:exactly-one: not exactly one item"
        | _ -> Error "exactly-one expects one argument");
    mk (Names.fn "one-or-more") ~min_arity:1 ~params:[ star_item ]
      ~returns:(Stype.plus Stype.It_item)
      (function
        | [ (_ :: _ as seq) ] -> Ok seq
        | [ [] ] -> Error "fn:one-or-more: empty sequence"
        | _ -> Error "one-or-more expects one argument");
    (* ---- date component extractors ---- *)
    mk (Names.fn "year-from-dateTime") ~min_arity:1 ~params:[ opt_atom ]
      ~returns:(Stype.opt (Stype.It_atomic Atomic.T_integer))
      (fun args -> date_component "year-from-dateTime" (fun d -> d.Atomic.year) args);
    mk (Names.fn "month-from-dateTime") ~min_arity:1 ~params:[ opt_atom ]
      ~returns:(Stype.opt (Stype.It_atomic Atomic.T_integer))
      (fun args -> date_component "month-from-dateTime" (fun d -> d.Atomic.month) args);
    mk (Names.fn "day-from-dateTime") ~min_arity:1 ~params:[ opt_atom ]
      ~returns:(Stype.opt (Stype.It_atomic Atomic.T_integer))
      (fun args -> date_component "day-from-dateTime" (fun d -> d.Atomic.day) args);
    (* ---- fn-bea extensions (special: handled by the evaluator) ---- *)
    mk Names.async ~min_arity:1 ~params:[ star_item ] ~returns:star_item
      ~special:true (no_eval "fn-bea:async");
    mk Names.fail_over ~min_arity:2 ~params:[ star_item; star_item ]
      ~returns:star_item ~special:true (no_eval "fn-bea:fail-over");
    mk Names.timeout ~min_arity:3 ~params:[ star_item; one_int; star_item ]
      ~returns:star_item ~special:true (no_eval "fn-bea:timeout") ]

let table : (Qname.t, builtin) Hashtbl.t =
  let t = Hashtbl.create 64 in
  List.iter (fun b -> Hashtbl.replace t b.bname b) all;
  t

let find name arity =
  match Hashtbl.find_opt table name with
  | Some b
    when arity >= b.min_arity
         && (match b.max_arity with Some m -> arity <= m | None -> true) ->
    Some b
  | Some _ | None -> None

let is_aggregate name =
  match Hashtbl.find_opt table name with
  | Some { translation = Sql_aggregate _; _ } -> true
  | _ -> false
