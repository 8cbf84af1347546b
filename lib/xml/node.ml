type t =
  | Element of element
  | Text of string
  | Atom of Atomic.t

and element = {
  name : Qname.t;
  attributes : (Qname.t * Atomic.t) list;
  children : t list;
}

let element ?(attributes = []) name children =
  Element { name; attributes; children }

let text s = Text s
let atom a = Atom a
let name = function Element e -> Some e.name | Text _ | Atom _ -> None
let children = function Element e -> e.children | Text _ | Atom _ -> []
let attributes = function Element e -> e.attributes | Text _ | Atom _ -> []

let child_elements node qname =
  let named = function
    | Element e -> Qname.equal e.name qname
    | Text _ | Atom _ -> false
  in
  List.filter named (children node)

let attribute node qname =
  List.find_map
    (fun (n, v) -> if Qname.equal n qname then Some v else None)
    (attributes node)

let rec string_value = function
  | Text s -> s
  | Atom a -> Atomic.to_string a
  | Element e -> String.concat "" (List.map string_value e.children)

let typed_value node =
  match node with
  | Text s -> [ Atomic.Untyped s ]
  | Atom a -> [ a ]
  | Element e ->
    let simple_content =
      List.for_all
        (function Atom _ | Text _ -> true | Element _ -> false)
        e.children
    in
    if simple_content then
      let atoms =
        List.filter_map
          (function
            | Atom a -> Some a
            | Text s when String.trim s <> "" -> Some (Atomic.Untyped s)
            | Text _ | Element _ -> None)
          e.children
      in
      (* An element with only whitespace text atomizes to the empty
         untyped atomic, matching the data model. *)
      if atoms = [] && e.children <> [] then [ Atomic.Untyped "" ]
      else if atoms = [] then []
      else atoms
    else [ Atomic.Untyped (string_value node) ]

let rec equal a b =
  match (a, b) with
  | Text x, Text y -> String.equal x y
  | Atom x, Atom y -> Atomic.equal x y
  | Element x, Element y ->
    Qname.equal x.name y.name
    && List.length x.attributes = List.length y.attributes
    && List.for_all2
         (fun (n1, v1) (n2, v2) -> Qname.equal n1 n2 && Atomic.equal v1 v2)
         x.attributes y.attributes
    && List.length x.children = List.length y.children
    && List.for_all2 equal x.children y.children
  | (Text _ | Atom _ | Element _), _ -> false

let needs_escape = function '<' | '>' | '&' | '"' -> true | _ -> false

(* Appends [s] with its special characters replaced; a string with none is
   appended whole, without a scan-and-copy per character. *)
let escape_into buf s =
  let len = String.length s in
  let start = ref 0 in
  for i = 0 to len - 1 do
    let c = String.unsafe_get s i in
    if needs_escape c then begin
      Buffer.add_substring buf s !start (i - !start);
      Buffer.add_string buf
        (match c with
        | '<' -> "&lt;"
        | '>' -> "&gt;"
        | '&' -> "&amp;"
        | _ -> "&quot;");
      start := i + 1
    end
  done;
  if !start = 0 then Buffer.add_string buf s
  else Buffer.add_substring buf s !start (len - !start)

let escape_text s =
  if not (String.exists needs_escape s) then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    escape_into buf s;
    Buffer.contents buf
  end

let atomic_into buf = function
  | Atomic.String s | Atomic.Untyped s -> escape_into buf s
  | Atomic.Integer i -> Buffer.add_string buf (string_of_int i)
  | a -> escape_into buf (Atomic.to_string a)

let serialize ?(indent = false) node =
  let buf = Buffer.create 256 in
  let pad depth =
    if indent && depth > 0 then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * depth) ' ')
    end
  in
  let rec go depth first = function
    | Text s -> escape_into buf s
    | Atom a -> atomic_into buf a
    | Element e ->
      if not first then pad depth;
      Buffer.add_char buf '<';
      Buffer.add_string buf e.name.Qname.local;
      List.iter
        (fun (n, v) ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf n.Qname.local;
          Buffer.add_string buf "=\"";
          atomic_into buf v;
          Buffer.add_char buf '"')
        e.attributes;
      if e.children = [] then Buffer.add_string buf "/>"
      else begin
        Buffer.add_char buf '>';
        let has_element_child =
          List.exists
            (function Element _ -> true | Text _ | Atom _ -> false)
            e.children
        in
        List.iter (go (depth + 1) false) e.children;
        if indent && has_element_child then pad depth;
        Buffer.add_string buf "</";
        Buffer.add_string buf e.name.Qname.local;
        Buffer.add_char buf '>'
      end
  in
  go 0 true node;
  Buffer.contents buf
