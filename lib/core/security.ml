open Aldsp_xml

type user = { user_name : string; roles : string list }

let admin = { user_name = "admin"; roles = [ "admin" ] }

type on_deny = Remove | Replace of Atomic.t

type resource_policy = {
  resource_label : string;
  resource_path : Qname.t list;
  allowed_roles : string list;
  on_deny : on_deny;
}

type t = {
  function_acl : (Qname.t, string list) Hashtbl.t;
  mutable resources : resource_policy list;
  audit : Audit.t option;
}

let create ?audit () =
  { function_acl = Hashtbl.create 16; resources = []; audit }

let restrict_function t fn ~roles = Hashtbl.replace t.function_acl fn roles

let add_resource t policy = t.resources <- t.resources @ [ policy ]

(* holders of the built-in "admin" role pass every policy *)
let has_role user roles =
  List.mem "admin" user.roles
  || List.exists (fun r -> List.mem r user.roles) roles

let audit_record t ~category ?detail summary =
  match t.audit with
  | Some a -> Audit.record a ~category ?detail summary
  | None -> ()

let check_call t user fn =
  match Hashtbl.find_opt t.function_acl fn with
  | None -> Ok ()
  | Some roles ->
    if has_role user roles then begin
      audit_record t ~category:"security"
        (Printf.sprintf "allow call %s by %s" (Qname.to_string fn)
           user.user_name);
      Ok ()
    end
    else begin
      audit_record t ~category:"security"
        (Printf.sprintf "deny call %s by %s" (Qname.to_string fn)
           user.user_name);
      Error
        (Printf.sprintf "access denied: %s may not call %s" user.user_name
           (Qname.to_string fn))
    end

let failing t user =
  List.filter (fun p -> not (has_role user p.allowed_roles)) t.resources

let restricts t user = failing t user <> []

(* Walks the result trees; [path] is the chain of element names from the
   root. A policy fires when its path matches and the user lacks every
   allowed role. *)
let filter_result t user seq =
  let failing = failing t user in
  if failing = [] then seq
  else begin
    let rec filter_node path node =
      match node with
      | Node.Element e -> (
        let here = path @ [ e.Node.name ] in
        let fired =
          List.find_opt
            (fun p ->
              List.length p.resource_path = List.length here
              && List.for_all2 Qname.equal p.resource_path here)
            failing
        in
        match fired with
        | Some { on_deny = Remove; resource_label; _ } ->
          audit_record t ~category:"security"
            ~detail:(Node.serialize node)
            (Printf.sprintf "remove resource %s for %s" resource_label
               user.user_name);
          []
        | Some { on_deny = Replace v; resource_label; _ } ->
          audit_record t ~category:"security"
            (Printf.sprintf "replace resource %s for %s" resource_label
               user.user_name);
          [ Node.element ~attributes:e.Node.attributes e.Node.name
              [ Node.atom v ] ]
        | None ->
          [ Node.Element
              { e with
                Node.children =
                  List.concat_map (filter_node here) e.Node.children } ])
      | Node.Text _ | Node.Atom _ -> [ node ]
    in
    List.concat_map
      (function
        | Item.Node n -> List.map (fun n -> Item.Node n) (filter_node [] n)
        | Item.Atom _ as a -> [ a ])
      seq
  end

let policies t = t.resources
