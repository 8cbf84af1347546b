open Aldsp_xml

type t = Token.t Seq.t

let concat streams = List.fold_right Seq.append streams Seq.empty

let rec of_node node () =
  match node with
  | Node.Text s -> Seq.Cons (Token.Text s, Seq.empty)
  | Node.Atom a -> Seq.Cons (Token.Atom a, Seq.empty)
  | Node.Element e ->
    let attrs =
      List.to_seq e.Node.attributes
      |> Seq.map (fun (n, v) -> Token.Attribute (n, v))
    in
    let children = Seq.concat_map of_node (List.to_seq e.Node.children) in
    Seq.Cons
      ( Token.Start_element e.Node.name,
        Seq.append attrs (Seq.append children (Seq.return Token.End_element)) )

let of_item = function
  | Item.Atom a -> Seq.return (Token.Atom a)
  | Item.Node n -> of_node n

let of_sequence items = Seq.concat_map of_item (List.to_seq items)

let rec iter_node f = function
  | Node.Text s -> f (Token.Text s)
  | Node.Atom a -> f (Token.Atom a)
  | Node.Element e ->
    f (Token.Start_element e.Node.name);
    List.iter (fun (n, v) -> f (Token.Attribute (n, v))) e.Node.attributes;
    List.iter (iter_node f) e.Node.children;
    f Token.End_element

let iter_item f = function
  | Item.Atom a -> f (Token.Atom a)
  | Item.Node n -> iter_node f n

type sink = { token : Token.t -> unit; items : Item.sequence -> unit }

let token_sink push = { token = push; items = List.iter (iter_item push) }

(* The node-building sink. [open_] holds the open elements, innermost
   first, each with its attributes and children reversed. The top-level
   result is [List.rev_append rev tail]: an item sequence that arrives
   while nothing else has is kept as [tail], uncopied. *)
type frame = {
  f_name : Qname.t;
  mutable f_attrs : (Qname.t * Atomic.t) list;
  mutable f_children : Node.t list;
}

type building = {
  mutable open_ : frame list;
  mutable rev : Item.t list;
  mutable tail : Item.sequence;
}

let add_node b node =
  match b.open_ with
  | f :: _ -> f.f_children <- node :: f.f_children
  | [] ->
    b.rev <- Item.Node node :: List.rev_append b.tail b.rev;
    b.tail <- []

let rec add_token b = function
  | Token.Start_element name ->
    b.open_ <- { f_name = name; f_attrs = []; f_children = [] } :: b.open_
  | Token.Attribute (n, v) -> (
    match b.open_ with
    | f :: _ -> f.f_attrs <- (n, v) :: f.f_attrs
    | [] -> invalid_arg "attribute token outside an element")
  | Token.End_element -> (
    match b.open_ with
    | f :: up ->
      b.open_ <- up;
      add_node b
        (Node.element ~attributes:(List.rev f.f_attrs) f.f_name
           (List.rev f.f_children))
    | [] -> invalid_arg "unexpected end-element token")
  | Token.Atom a -> (
    match b.open_ with
    | f :: _ -> f.f_children <- Node.atom a :: f.f_children
    | [] ->
      b.rev <- Item.Atom a :: List.rev_append b.tail b.rev;
      b.tail <- [])
  | Token.Text s -> add_node b (Node.text s)
  | Token.Begin_tuple | Token.End_tuple | Token.Field_separator ->
    invalid_arg "tuple token in item context"
  | Token.Boxed inner -> Array.iter (add_token b) inner

let add_items b items =
  match (b.open_, b.rev, b.tail) with
  | f :: _, _, _ ->
    f.f_children <-
      List.fold_left
        (fun acc -> function
          | Item.Atom a -> Node.atom a :: acc
          | Item.Node n -> n :: acc)
        f.f_children items
  | [], [], [] -> b.tail <- items
  | [], _, _ ->
    b.rev <- List.rev_append items (List.rev_append b.tail b.rev);
    b.tail <- []

let building_sink () =
  let b = { open_ = []; rev = []; tail = [] } in
  let built () =
    if b.open_ <> [] then invalid_arg "unterminated element";
    List.rev_append b.rev b.tail
  in
  ({ token = add_token b; items = add_items b }, built)

let to_items stream =
  let sink, built = building_sink () in
  match
    Seq.iter sink.token stream;
    built ()
  with
  | items -> Ok items
  | exception Invalid_argument msg -> Error msg

let box stream = Token.Boxed (Array.of_seq stream)

let unbox = function
  | Token.Boxed tokens -> Array.to_seq tokens
  | token -> Seq.return token

let length stream = Seq.length stream

(* Serialization: one writer appends each token's bytes straight into a
   buffer. [stack] holds the names of the open elements; when [in_tag] is
   set, the start tag of its head is still open for attributes. *)
type writer = {
  buf : Buffer.t;
  mutable in_tag : bool;
  mutable stack : string list;
}

let close_start w =
  if w.in_tag then begin
    Buffer.add_char w.buf '>';
    w.in_tag <- false
  end

let start_element w (name : Qname.t) =
  close_start w;
  Buffer.add_char w.buf '<';
  Buffer.add_string w.buf name.local;
  w.stack <- name.local :: w.stack;
  w.in_tag <- true

let attribute_into buf (name : Qname.t) value =
  Buffer.add_char buf ' ';
  Buffer.add_string buf name.local;
  Buffer.add_string buf "=\"";
  Node.atomic_into buf value;
  Buffer.add_char buf '"'

let attribute w name value =
  if not w.in_tag then invalid_arg "serialize: attribute outside a start tag";
  attribute_into w.buf name value

let end_tag_into buf name =
  Buffer.add_string buf "</";
  Buffer.add_string buf name;
  Buffer.add_char buf '>'

let end_element w =
  match w.stack with
  | [] -> invalid_arg "serialize: unbalanced end-element"
  | name :: up ->
    if w.in_tag then begin
      Buffer.add_string w.buf "/>";
      w.in_tag <- false
    end
    else end_tag_into w.buf name;
    w.stack <- up

let content w add x =
  close_start w;
  add w.buf x

let rec write w = function
  | Token.Start_element n -> start_element w n
  | Token.Attribute (n, v) -> attribute w n v
  | Token.End_element -> end_element w
  | Token.Atom a -> content w Node.atomic_into a
  | Token.Text s -> content w Node.escape_into s
  | Token.Begin_tuple -> content w Buffer.add_string "<?tuple?>"
  | Token.End_tuple -> content w Buffer.add_string "<?end-tuple?>"
  | Token.Field_separator -> content w Buffer.add_string "<?field?>"
  | Token.Boxed inner -> Array.iter (write w) inner

(* A start tag still open at the end closes as an empty element; an
   element still open around it is an error. *)
let finish w =
  if w.in_tag then end_element w;
  if w.stack <> [] then invalid_arg "serialize: unterminated element"

let serialize_to buf stream =
  let w = { buf; in_tag = false; stack = [] } in
  Seq.iter (write w) stream;
  finish w

let chunk_bytes = 4096

(* Each chunk gets a fresh writer resumed from the previous one's element
   state, so forcing a node twice yields the same chunk. A fault first
   hands out the bytes written before it, then re-raises. *)
let serialize_chunks stream =
  let rec chunks in_tag stack seq () =
    let w = { buf = Buffer.create (2 * chunk_bytes); in_tag; stack } in
    let rec fill seq =
      match seq () with
      | Seq.Nil ->
        finish w;
        None
      | Seq.Cons (tok, rest) ->
        write w tok;
        if Buffer.length w.buf >= chunk_bytes then Some rest else fill rest
    in
    match fill seq with
    | Some rest -> Seq.Cons (Buffer.contents w.buf, chunks w.in_tag w.stack rest)
    | None ->
      if Buffer.length w.buf = 0 then Seq.Nil
      else Seq.Cons (Buffer.contents w.buf, Seq.empty)
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      let fault () = Printexc.raise_with_backtrace e bt in
      if Buffer.length w.buf = 0 then fault ()
      else Seq.Cons (Buffer.contents w.buf, fault)
  in
  chunks false [] stream

(* One writer for a whole stream, handing out its buffer's bytes each
   time they reach [chunk_bytes] and then reusing the buffer. *)
type chunk_writer = { cw : writer; out : string -> unit }

let chunk_writer out =
  { cw = { buf = Buffer.create (2 * chunk_bytes); in_tag = false; stack = [] };
    out }

let chunk_flush c =
  if Buffer.length c.cw.buf > 0 then begin
    c.out (Buffer.contents c.cw.buf);
    Buffer.clear c.cw.buf
  end

let chunk_write c token =
  write c.cw token;
  if Buffer.length c.cw.buf >= chunk_bytes then chunk_flush c

let chunk_close c =
  finish c.cw;
  chunk_flush c

(* The bytes the writer makes of the items' token stream, written by a
   walk over the nodes: a tree is balanced and each start tag closes at
   its first child, so the walk needs no writer state. Returns the number
   of tokens that stream would hold. *)
let serialize_items buf items =
  let rec node count = function
    | Node.Text s ->
      Node.escape_into buf s;
      count + 1
    | Node.Atom a ->
      Node.atomic_into buf a;
      count + 1
    | Node.Element e -> (
      let name = e.Node.name.Qname.local in
      Buffer.add_char buf '<';
      Buffer.add_string buf name;
      let count = attributes (count + 2) e.Node.attributes in
      match e.Node.children with
      | [] ->
        Buffer.add_string buf "/>";
        count
      | children ->
        Buffer.add_char buf '>';
        let count = nodes count children in
        end_tag_into buf name;
        count)
  and attributes count = function
    | [] -> count
    | (n, v) :: rest ->
      attribute_into buf n v;
      attributes (count + 1) rest
  and nodes count = function
    | [] -> count
    | n :: rest -> nodes (node count n) rest
  in
  let rec items_from count = function
    | [] -> count
    | Item.Atom a :: rest ->
      Node.atomic_into buf a;
      items_from (count + 1) rest
    | Item.Node n :: rest -> items_from (node count n) rest
  in
  items_from 0 items

let pp ppf stream =
  Format.pp_print_seq ~pp_sep:Format.pp_print_space Token.pp ppf stream
