type t = Atom of Atomic.t | Node of Node.t

type sequence = t list

let atom a = Atom a
let node n = Node n
let integer i = Atom (Atomic.Integer i)
let string s = Atom (Atomic.String s)
let boolean b = Atom (Atomic.Boolean b)

let atomize seq =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | Atom a :: rest -> go (a :: acc) rest
    | Node n :: rest -> go (List.rev_append (Node.typed_value n) acc) rest
  in
  go [] seq

let ebv = function
  | [] -> Ok false
  | Node _ :: _ -> Ok true
  | [ Atom a ] -> Atomic.ebv a
  | Atom _ :: _ :: _ ->
    Error "effective boolean value of a multi-item atomic sequence"

let string_value = function
  | Atom a -> Atomic.to_string a
  | Node n -> Node.string_value n

let equal a b =
  match (a, b) with
  | Atom x, Atom y -> Atomic.equal x y
  | Node x, Node y -> Node.equal x y
  | (Atom _ | Node _), _ -> false

let equal_sequence a b =
  List.length a = List.length b && List.for_all2 equal a b

let serialize seq =
  let item_to_string = function
    | Atom a -> Atomic.to_string a
    | Node n -> Node.serialize n
  in
  String.concat " " (List.map item_to_string seq)
