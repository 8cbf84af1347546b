type occurrence = Exactly_one | Optional | Zero_or_more | One_or_more

type content =
  | Atomic_content of Atomic.atomic_type
  | Complex of particle list
  | Empty_content

and particle = { decl : element_decl; occurs : occurrence }

and element_decl = {
  elem_name : Qname.t;
  content : content;
  decl_attributes : attribute_decl list;
}

and attribute_decl = {
  attr_name : Qname.t;
  attr_type : Atomic.atomic_type;
  required : bool;
}

let element_decl ?(attributes = []) elem_name content =
  { elem_name; content; decl_attributes = attributes }

let attribute_decl ?(required = false) attr_name attr_type =
  { attr_name; attr_type; required }

let simple name ty = element_decl name (Atomic_content ty)

let particle ?(occurs = Exactly_one) decl = { decl; occurs }

let occurrence_ok occurs count =
  match occurs with
  | Exactly_one -> count = 1
  | Optional -> count <= 1
  | Zero_or_more -> true
  | One_or_more -> count >= 1

let occurrence_to_string = function
  | Exactly_one -> ""
  | Optional -> "?"
  | Zero_or_more -> "*"
  | One_or_more -> "+"

let rec validate_at path decl node =
  let fail msg = Error (Printf.sprintf "%s: %s" path msg) in
  match node with
  | Node.Text _ | Node.Atom _ -> fail "expected an element"
  | Node.Element e ->
    if not (Qname.equal e.Node.name decl.elem_name) then
      fail
        (Printf.sprintf "expected element %s, found %s"
           (Qname.to_string decl.elem_name)
           (Qname.to_string e.Node.name))
    else
      let ( let* ) = Result.bind in
      let* attributes = validate_attributes path decl e in
      let* children = validate_content path decl e in
      Ok (Node.element ~attributes decl.elem_name children)

and validate_attributes path decl e =
  let fail msg = Error (Printf.sprintf "%s: %s" path msg) in
  let rec typed acc = function
    | [] -> Ok (List.rev acc)
    | ad :: rest -> (
      let found =
        List.find_opt
          (fun (n, _) -> Qname.equal n ad.attr_name)
          e.Node.attributes
      in
      match found with
      | None ->
        if ad.required then
          fail
            (Printf.sprintf "missing required attribute %s"
               (Qname.to_string ad.attr_name))
        else typed acc rest
      | Some (_, v) -> (
        match Atomic.parse ad.attr_type (Atomic.to_string v) with
        | Ok tv -> typed ((ad.attr_name, tv) :: acc) rest
        | Error msg -> fail msg))
  in
  typed [] decl.decl_attributes

and validate_content path decl e =
  let fail msg = Error (Printf.sprintf "%s: %s" path msg) in
  match decl.content with
  | Empty_content ->
    if e.Node.children = [] then Ok []
    else fail "element declared empty has content"
  | Atomic_content ty -> (
    let text = Node.string_value (Node.Element e) in
    if String.trim text = "" && e.Node.children = [] then Ok []
    else
      match Atomic.parse ty text with
      | Ok v -> Ok [ Node.atom v ]
      | Error msg -> fail msg)
  | Complex particles ->
    let element_children =
      List.filter
        (function
          | Node.Element _ -> true
          | Node.Text s -> String.trim s <> ""
          | Node.Atom _ -> true)
        e.Node.children
    in
    let ( let* ) = Result.bind in
    let* () =
      if
        List.exists
          (function Node.Element _ -> false | Node.Text _ | Node.Atom _ -> true)
          element_children
      then fail "unexpected character data in complex content"
      else Ok ()
    in
    (* Validate each particle's occurrences in declaration order; children
       may interleave but must all be declared. *)
    let rec check_particles acc = function
      | [] -> Ok acc
      | p :: rest ->
        let matches =
          List.filter
            (fun child ->
              match Node.name child with
              | Some n -> Qname.equal n p.decl.elem_name
              | None -> false)
            element_children
        in
        if not (occurrence_ok p.occurs (List.length matches)) then
          fail
            (Printf.sprintf "element %s occurs %d times, declared %s%s"
               (Qname.to_string p.decl.elem_name)
               (List.length matches)
               (Qname.to_string p.decl.elem_name)
               (occurrence_to_string p.occurs))
        else
          let rec validate_all acc = function
            | [] -> check_particles acc rest
            | child :: more -> (
              let child_path =
                Printf.sprintf "%s/%s" path p.decl.elem_name.Qname.local
              in
              match validate_at child_path p.decl child with
              | Ok typed -> validate_all ((child, typed) :: acc) more
              | Error _ as e -> e)
          in
          validate_all acc matches
    in
    let* validated = check_particles [] particles in
    let* () =
      let declared child =
        match Node.name child with
        | Some n ->
          List.exists (fun p -> Qname.equal p.decl.elem_name n) particles
        | None -> false
      in
      match List.find_opt (fun c -> not (declared c)) element_children with
      | Some (Node.Element e') ->
        fail
          (Printf.sprintf "undeclared element %s" (Qname.to_string e'.Node.name))
      | Some _ | None -> Ok ()
    in
    (* Preserve document order of the original children. *)
    let typed_of child =
      List.find_map
        (fun (orig, typed) -> if orig == child then Some typed else None)
        validated
    in
    Ok (List.filter_map typed_of element_children)

let validate decl node = validate_at ("/" ^ decl.elem_name.Qname.local) decl node

let rec pp ppf decl =
  let open Format in
  match decl.content with
  | Atomic_content ty ->
    fprintf ppf "%a : %s" Qname.pp decl.elem_name (Atomic.type_name ty)
  | Empty_content -> fprintf ppf "%a : empty" Qname.pp decl.elem_name
  | Complex particles ->
    fprintf ppf "@[<v 2>%a {@ %a@]@ }" Qname.pp decl.elem_name
      (pp_print_list ~pp_sep:pp_print_space (fun ppf p ->
           fprintf ppf "%a%s" pp p.decl (occurrence_to_string p.occurs)))
      particles
