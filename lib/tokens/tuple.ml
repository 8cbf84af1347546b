(* Figure 4's three tuple representations. The executor binds evaluated
   values in slot frames, not token tuples, so only the F4 sweep in
   bench/main.ml and test_tokens use this module: it stays for as long
   as F4 reproduces the paper's figure. *)

type repr = Stream_repr | Single_repr | Array_repr

(* The stream representation keeps one flat token array with delimiters
   (materialized, since a tuple must be re-readable); the single
   representation boxes the delimited stream into one token; the array
   representation boxes each field separately. *)
type t =
  | Stream of Token.t array  (* Begin_tuple ... Field_separator ... End_tuple *)
  | Single of Token.t * int  (* boxed delimited stream, width *)
  | Array of Token.t array   (* one Boxed token per field *)

let repr = function
  | Stream _ -> Stream_repr
  | Single _ -> Single_repr
  | Array _ -> Array_repr

let delimited fields =
  let buf = ref [ Token.Begin_tuple ] in
  List.iteri
    (fun i field ->
      if i > 0 then buf := Token.Field_separator :: !buf;
      Seq.iter (fun tok -> buf := tok :: !buf) field)
    fields;
  buf := Token.End_tuple :: !buf;
  Array.of_list (List.rev !buf)

(* Splits a delimited token array back into field streams. Delimiters nest
   only through boxing, so a linear scan tracking element depth suffices. *)
let split_fields tokens =
  let n = Array.length tokens in
  assert (n >= 2 && tokens.(0) = Token.Begin_tuple);
  let fields = ref [] in
  let current = ref [] in
  let depth = ref 0 in
  for i = 1 to n - 2 do
    match tokens.(i) with
    | Token.Field_separator when !depth = 0 ->
      fields := List.rev !current :: !fields;
      current := []
    | Token.Start_element _ as tok ->
      incr depth;
      current := tok :: !current
    | Token.End_element as tok ->
      decr depth;
      current := tok :: !current
    | tok -> current := tok :: !current
  done;
  fields := List.rev !current :: !fields;
  List.rev !fields

(* Note: the delimited encoding cannot distinguish a zero-width tuple from a
   one-field tuple with empty content, so tuples are always width >= 1. *)
let width = function
  | Stream tokens -> List.length (split_fields tokens)
  | Single (_, w) -> w
  | Array fields -> Array.length fields

let make repr fields =
  match repr with
  | Stream_repr -> Stream (delimited fields)
  | Single_repr ->
    Single (Token.Boxed (delimited fields), List.length fields)
  | Array_repr ->
    Array
      (Array.of_list
         (List.map (fun field -> Token_stream.box field) fields))

let of_sequences repr seqs =
  make repr (List.map Token_stream.of_sequence seqs)

let fields = function
  | Stream tokens ->
    List.map List.to_seq (split_fields tokens)
  | Single (boxed, _) -> (
    match boxed with
    | Token.Boxed tokens -> List.map List.to_seq (split_fields tokens)
    | _ -> assert false)
  | Array boxed -> Array.to_list (Array.map Token_stream.unbox boxed)

let field t i =
  match t with
  | Array boxed -> Token_stream.unbox boxed.(i)
  | Stream _ | Single _ -> List.nth (fields t) i

let field_items t i =
  match Token_stream.to_items (field t i) with
  | Ok items -> items
  | Error msg -> invalid_arg ("Tuple.field_items: " ^ msg)

let concat a b = make (repr a) (fields a @ fields b)

let subtuple t start len =
  let selected =
    fields t |> List.filteri (fun i _ -> i >= start && i < start + len)
  in
  make (repr t) selected

let convert target t = if repr t = target then t else make target (fields t)

let to_stream t =
  match t with
  | Stream tokens -> Array.to_seq tokens
  | Single (boxed, _) -> Token_stream.unbox boxed
  | Array _ -> Array.to_seq (delimited (fields t))

let equal a b =
  let fa = fields a and fb = fields b in
  List.length fa = List.length fb
  && List.for_all2
       (fun x y ->
         let lx = List.of_seq x and ly = List.of_seq y in
         List.length lx = List.length ly && List.for_all2 Token.equal lx ly)
       fa fb
