open Aldsp_xml

type item_type =
  | It_atomic of Atomic.atomic_type
  | It_element of element_type
  | It_attribute of Qname.t option * Atomic.atomic_type
  | It_text
  | It_node
  | It_item
  | It_error

and element_type = {
  elem_name : Qname.t option;
  content : t;
  simple : Atomic.atomic_type option;
}

and occurrence = { at_least_one : bool; at_most_one : bool }

and t = { items : item_type list; occ : occurrence }

let occ_one = { at_least_one = true; at_most_one = true }
let occ_opt = { at_least_one = false; at_most_one = true }
let occ_star = { at_least_one = false; at_most_one = false }
let occ_plus = { at_least_one = true; at_most_one = false }

let empty_sequence = { items = []; occ = { at_least_one = false; at_most_one = true } }

let one it = { items = [ it ]; occ = occ_one }
let opt it = { items = [ it ]; occ = occ_opt }
let star it = { items = [ it ]; occ = occ_star }
let plus it = { items = [ it ]; occ = occ_plus }

let atomic ty = one (It_atomic ty)
let any_item_star = star It_item
let error_type = one It_error

let is_error t = List.exists (function It_error -> true | _ -> false) t.items

let element ?simple ?(content = empty_sequence) name =
  It_element { elem_name = name; content; simple }

let with_occ occ t = { t with occ }

let occ_union a b =
  { at_least_one = a.at_least_one && b.at_least_one;
    at_most_one = a.at_most_one && b.at_most_one }

let occ_seq a b =
  { at_least_one = a.at_least_one || b.at_least_one;
    at_most_one =
      (a.at_most_one && not b.at_least_one && b.at_most_one)
      || (b.at_most_one && not a.at_least_one && a.at_most_one) }

let rec item_subtype a b =
  match (a, b) with
  | _, It_item -> true
  | It_error, _ | _, It_error -> true
  | It_atomic x, It_atomic y -> Atomic.subtype x y
  | (It_element _ | It_attribute _ | It_text | It_node), It_node -> true
  | It_element x, It_element y ->
    (match y.elem_name with
    | None -> true
    | Some ny -> ( match x.elem_name with Some nx -> Qname.equal nx ny | None -> false))
    && (match y.simple with
       | None -> true
       | Some sy -> ( match x.simple with Some sx -> Atomic.subtype sx sy | None -> false))
    && subtype x.content y.content
  | It_attribute (nx, tx), It_attribute (ny, ty) ->
    (match ny with
    | None -> true
    | Some ny -> ( match nx with Some nx -> Qname.equal nx ny | None -> false))
    && Atomic.subtype tx ty
  | It_text, It_text -> true
  | _, _ -> false

and subtype a b =
  (* The empty type is a subtype of anything that admits empty. Otherwise
     the occurrence range of [a] must fit inside [b]'s and every item type
     of [a] must be covered by some item type of [b]. *)
  if a.items = [] then not b.occ.at_least_one
  else
    b.occ.at_least_one <= a.occ.at_least_one
    && b.occ.at_most_one <= a.occ.at_most_one
    && List.for_all
         (fun ia -> List.exists (fun ib -> item_subtype ia ib) b.items)
         a.items

(* Item types of [a] then those of [b] that [a] lacks, so equal items
   merge: [(1, 2)] is [xs:integer+], not [(xs:integer | xs:integer)+]. *)
let merge_items a b = a @ List.filter (fun it -> not (List.mem it a)) b

let union a b =
  { items = merge_items a.items b.items; occ = occ_union a.occ b.occ }

let sequence a b =
  if a.items = [] then b
  else if b.items = [] then a
  else { items = merge_items a.items b.items; occ = occ_seq a.occ b.occ }

let iterate t = { items = (if t.items = [] then [] else t.items); occ = occ_one }

let rec atomized_item = function
  | It_atomic ty -> [ It_atomic ty ]
  | It_element { simple = Some ty; _ } -> [ It_atomic ty ]
  | It_element { simple = None; content; _ } ->
    (* structural: atomizing an element with typed content yields the
       content's atomized types; untyped otherwise *)
    if content.items = [] then [ It_atomic Atomic.T_untyped ]
    else
      let atoms = List.concat_map atomized_item content.items in
      if atoms = [] then [ It_atomic Atomic.T_untyped ] else atoms
  | It_attribute (_, ty) -> [ It_atomic ty ]
  | It_text -> [ It_atomic Atomic.T_untyped ]
  | It_node | It_item -> [ It_atomic Atomic.T_untyped ]
  | It_error -> [ It_error ]

let atomized t =
  let items = List.concat_map atomized_item t.items in
  (* a node can atomize to several values, so the upper bound loosens
     unless every item is already atomic *)
  let all_atomic =
    List.for_all (function It_atomic _ | It_error -> true | _ -> false) t.items
  in
  let occ = if all_atomic then t.occ else { t.occ with at_most_one = false } in
  { items; occ }

(* Item-level intersection is deliberately coarser than mutual subtyping:
   two element types intersect when their names and simple content types
   are compatible, regardless of structural content — the runtime
   typematch checks the same properties, so the optimistic rule and the
   runtime check agree (§4.1). *)
let items_intersect a b =
  match (a, b) with
  | It_element x, It_element y ->
    (match (x.elem_name, y.elem_name) with
    | Some nx, Some ny -> Qname.equal nx ny
    | None, _ | _, None -> true)
    && (match (x.simple, y.simple) with
       | Some sx, Some sy -> Atomic.subtype sx sy || Atomic.subtype sy sx
       | _ -> true)
  | _ -> item_subtype a b || item_subtype b a

let intersects a b =
  if is_error a || is_error b then true
  else
    let empty_ok =
      (not a.occ.at_least_one) && not b.occ.at_least_one
    in
    let item_overlap =
      List.exists (fun ia -> List.exists (items_intersect ia) b.items) a.items
    in
    empty_ok || item_overlap

let occ_to_string occ =
  match (occ.at_least_one, occ.at_most_one) with
  | true, true -> ""
  | false, true -> "?"
  | false, false -> "*"
  | true, false -> "+"

let rec item_to_string = function
  | It_atomic ty -> Atomic.type_name ty
  | It_element { elem_name; simple; content } ->
    let name = match elem_name with Some n -> Qname.to_string n | None -> "*" in
    let detail =
      match simple with
      | Some ty -> ", " ^ Atomic.type_name ty
      | None ->
        if content.items = [] then ""
        else ", {" ^ to_string content ^ "}"
    in
    Printf.sprintf "element(%s%s)" name detail
  | It_attribute (name, ty) ->
    Printf.sprintf "attribute(%s, %s)"
      (match name with Some n -> Qname.to_string n | None -> "*")
      (Atomic.type_name ty)
  | It_text -> "text()"
  | It_node -> "node()"
  | It_item -> "item()"
  | It_error -> "error()"

and to_string t =
  match t.items with
  | [] -> "empty-sequence()"
  | [ it ] -> item_to_string it ^ occ_to_string t.occ
  | items ->
    "(" ^ String.concat " | " (List.map item_to_string items) ^ ")"
    ^ occ_to_string t.occ

let pp ppf t = Format.pp_print_string ppf (to_string t)
