open Aldsp_xml

type change = {
  change_path : Qname.t list;
  old_value : Atomic.t option;
  new_value : Atomic.t option;
}

type status = Unchanged | Modified | Created | Deleted

type t = {
  ds_function : Qname.t;
  original : Node.t;
  mutable current : Node.t;
  mutable change_log : change list;
  mutable status : status;
}

let of_result ~ds_function node =
  { ds_function; original = node; current = node; change_log = [];
    status = Unchanged }

let create ~ds_function node =
  { ds_function; original = node; current = node; change_log = [];
    status = Created }

let mark_deleted t = t.status <- Deleted

let rec value_at node = function
  | [] -> (
    match Node.typed_value node with
    | [ v ] -> Some v
    | _ -> None)
  | name :: rest -> (
    match Node.child_elements node name with
    | [ child ] -> value_at child rest
    | _ -> None)

let get_field t path =
  (* the path's first component may name the root element itself *)
  match path with
  | root :: rest when Node.name t.current = Some root -> value_at t.current rest
  | path -> value_at t.current path

(* Rebuild the tree with the element at [path] replaced (or removed). *)
let rec update_node node path new_value =
  match (node, path) with
  | Node.Element e, [ last ] ->
    let found = ref false in
    let children =
      List.concat_map
        (fun child ->
          match Node.name child with
          | Some n when Qname.equal n last ->
            found := true;
            (match new_value with
            | Some v -> [ Node.element last [ Node.atom v ] ]
            | None -> [])
          | _ -> [ child ])
        e.Node.children
    in
    if !found then
      Ok (Node.Element { e with Node.children })
    else (
      (* absent element: insert at the end when setting a value *)
      match new_value with
      | Some v ->
        Ok
          (Node.Element
             { e with
               Node.children = e.Node.children @ [ Node.element last [ Node.atom v ] ] })
      | None -> Error (Printf.sprintf "no element %s to remove" (Qname.to_string last)))
  | Node.Element e, step :: rest -> (
    let updated = ref None in
    let children =
      List.map
        (fun child ->
          match Node.name child with
          | Some n when Qname.equal n step && !updated = None -> (
            match update_node child rest new_value with
            | Ok child' ->
              updated := Some (Ok ());
              child'
            | Error msg ->
              updated := Some (Error msg);
              child)
          | _ -> child)
        e.Node.children
    in
    match !updated with
    | Some (Ok ()) -> Ok (Node.Element { e with Node.children })
    | Some (Error msg) -> Error msg
    | None -> Error (Printf.sprintf "no element %s on path" (Qname.to_string step)))
  | (Node.Text _ | Node.Atom _), _ -> Error "path descends into a leaf"
  | Node.Element _, [] -> Error "empty path"

let strip_root t path =
  match path with
  | root :: rest when Node.name t.current = Some root -> rest
  | path -> path

let record t path old_value new_value =
  if t.status = Unchanged then t.status <- Modified;
  t.change_log <-
    t.change_log @ [ { change_path = path; old_value; new_value } ]

let set_field t path value =
  let rel = strip_root t path in
  if rel = [] then Error "cannot replace the object root"
  else
    let old_value = value_at t.current rel in
    if old_value = Some value then Ok ()
    else
      match update_node t.current rel (Some value) with
      | Ok current ->
        t.current <- current;
        record t path old_value (Some value);
        Ok ()
      | Error _ as e -> e

let remove_field t path =
  let rel = strip_root t path in
  if rel = [] then Error "cannot remove the object root"
  else
    let old_value = value_at t.current rel in
    match update_node t.current rel None with
    | Ok current ->
      t.current <- current;
      record t path old_value None;
      Ok ()
    | Error _ as e -> e

let is_changed t =
  t.change_log <> [] || t.status = Created || t.status = Deleted

let serialize_change_log t =
  let change_node c =
    let value_elem name = function
      | Some v -> [ Node.element (Qname.local name) [ Node.atom v ] ]
      | None -> []
    in
    Node.element
      ~attributes:
        [ ( Qname.local "path",
            Atomic.String
              (String.concat "/" (List.map Qname.to_string c.change_path)) ) ]
      (Qname.local "change")
      (value_elem "old" c.old_value @ value_elem "new" c.new_value)
  in
  Node.serialize
    (Node.element (Qname.local "changeLog") (List.map change_node t.change_log))
