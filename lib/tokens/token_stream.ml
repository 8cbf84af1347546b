open Aldsp_xml

type t = Token.t Seq.t

let empty = Seq.empty
let append = Seq.append
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

exception Malformed of string

(* Reassembly uses an explicit cursor so element nesting is a recursion over
   the stream rather than a stack data structure. *)
let to_items stream =
  let rec items acc seq =
    match seq () with
    | Seq.Nil -> (List.rev acc, Seq.empty)
    | Seq.Cons (tok, rest) -> (
      match tok with
      | Token.Atom a -> items (Item.Atom a :: acc) rest
      | Token.Text s -> items (Item.Node (Node.text s) :: acc) rest
      | Token.Start_element name ->
        let node, rest = element name rest in
        items (Item.Node node :: acc) rest
      | Token.End_element -> raise (Malformed "unexpected end-element token")
      | Token.Attribute _ ->
        raise (Malformed "attribute token outside an element")
      | Token.Begin_tuple | Token.End_tuple | Token.Field_separator ->
        raise (Malformed "tuple token in item context")
      | Token.Boxed inner ->
        let inner_items, _ = items [] (Array.to_seq inner) in
        items (List.rev_append (List.rev inner_items) acc) rest)
  and element name seq =
    let rec attrs acc seq =
      match seq () with
      | Seq.Cons (Token.Attribute (n, v), rest) -> attrs ((n, v) :: acc) rest
      | _ -> (List.rev acc, seq)
    in
    let attributes, seq = attrs [] seq in
    let rec content acc seq =
      match seq () with
      | Seq.Nil -> raise (Malformed "unterminated element")
      | Seq.Cons (Token.End_element, rest) -> (List.rev acc, rest)
      | Seq.Cons (Token.Atom a, rest) -> content (Node.atom a :: acc) rest
      | Seq.Cons (Token.Text s, rest) -> content (Node.text s :: acc) rest
      | Seq.Cons (Token.Start_element n, rest) ->
        let node, rest = element n rest in
        content (node :: acc) rest
      | Seq.Cons (Token.Attribute _, _) ->
        raise (Malformed "attribute token after element content began")
      | Seq.Cons ((Token.Begin_tuple | Token.End_tuple | Token.Field_separator), _)
        ->
        raise (Malformed "tuple token inside element content")
      | Seq.Cons (Token.Boxed inner, rest) ->
        let inner_nodes, _ = content [] (Array.to_seq inner) in
        content (List.rev_append (List.rev inner_nodes) acc) rest
    in
    let children, rest = content [] seq in
    (Node.element ~attributes name children, rest)
  in
  match items [] stream with
  | result, _ -> Ok result
  | exception Malformed msg -> Error msg

let to_nodes_exn stream =
  match to_items stream with
  | Error msg -> invalid_arg msg
  | Ok items ->
    List.map
      (function
        | Item.Node n -> n
        | Item.Atom _ -> invalid_arg "atomic token at node level")
      items

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

let attribute w (name : Qname.t) value =
  if not w.in_tag then invalid_arg "serialize: attribute outside a start tag";
  Buffer.add_char w.buf ' ';
  Buffer.add_string w.buf name.local;
  Buffer.add_string w.buf "=\"";
  Node.atomic_into w.buf value;
  Buffer.add_char w.buf '"'

let end_element w =
  match w.stack with
  | [] -> invalid_arg "serialize: unbalanced end-element"
  | name :: up ->
    if w.in_tag then begin
      Buffer.add_string w.buf "/>";
      w.in_tag <- false
    end
    else begin
      Buffer.add_string w.buf "</";
      Buffer.add_string w.buf name;
      Buffer.add_char w.buf '>'
    end;
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

(* The same writer driven by a walk over the items, without building their
   token stream; returns the number of tokens that stream would hold. *)
let serialize_items buf items =
  let w = { buf; in_tag = false; stack = [] } in
  let rec node count = function
    | Node.Text s ->
      content w Node.escape_into s;
      count + 1
    | Node.Atom a ->
      content w Node.atomic_into a;
      count + 1
    | Node.Element e ->
      start_element w e.Node.name;
      let count =
        List.fold_left
          (fun count (n, v) ->
            attribute w n v;
            count + 1)
          (count + 2) e.Node.attributes
      in
      let count = List.fold_left node count e.Node.children in
      end_element w;
      count
  in
  List.fold_left
    (fun count -> function
      | Item.Atom a ->
        content w Node.atomic_into a;
        count + 1
      | Item.Node n -> node count n)
    0 items

let pp ppf stream =
  Format.pp_print_seq ~pp_sep:Format.pp_print_space Token.pp ppf stream
