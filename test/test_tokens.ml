(* Tests for the token-stream substrate: stream <-> tree conversions and the
   three tuple representations of Figure 4. *)

open Aldsp_xml
open Aldsp_tokens

let check = Alcotest.check
let check_bool = check Alcotest.bool
let check_int = check Alcotest.int

let ok_exn = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let sample_node =
  Node.element
    ~attributes:[ (Qname.local "id", Atomic.Integer 5) ]
    (Qname.local "CUSTOMER")
    [ Node.element (Qname.local "CID") [ Node.atom (Atomic.Integer 100) ];
      Node.element (Qname.local "LAST_NAME")
        [ Node.atom (Atomic.String "al") ];
      Node.text "note" ]

let test_stream_roundtrip () =
  let stream = Token_stream.of_node sample_node in
  match ok_exn (Token_stream.to_items stream) with
  | [ Item.Node n ] -> check_bool "roundtrip" true (Node.equal n sample_node)
  | _ -> Alcotest.fail "expected one node"

let test_stream_of_sequence () =
  let seq = [ Item.integer 1; Item.Node sample_node; Item.string "x" ] in
  let items = ok_exn (Token_stream.to_items (Token_stream.of_sequence seq)) in
  check_bool "sequence roundtrip" true (Item.equal_sequence seq items)

let test_stream_malformed () =
  let bad = List.to_seq [ Token.Start_element (Qname.local "a") ] in
  (match Token_stream.to_items bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unterminated element accepted");
  let bad2 = List.to_seq [ Token.End_element ] in
  match Token_stream.to_items bad2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stray end accepted"

let test_box_unbox () =
  let stream = Token_stream.of_node sample_node in
  let boxed = Token_stream.box stream in
  let items = ok_exn (Token_stream.to_items (Token_stream.unbox boxed)) in
  check_bool "box/unbox" true
    (Item.equal_sequence [ Item.Node sample_node ] items);
  (* boxed tokens are transparent to to_items *)
  let items2 = ok_exn (Token_stream.to_items (Seq.return boxed)) in
  check_bool "transparent" true
    (Item.equal_sequence [ Item.Node sample_node ] items2)

let test_stream_laziness () =
  (* of_node must not force the whole tree: consuming one token from a big
     element is fine even if we never finish. *)
  let wide =
    Node.element (Qname.local "R")
      (List.init 10000 (fun i ->
           Node.element (Qname.local "X") [ Node.atom (Atomic.Integer i) ]))
  in
  match (Token_stream.of_node wide) () with
  | Seq.Cons (Token.Start_element n, _) ->
    check_bool "first token" true (Qname.equal n (Qname.local "R"))
  | _ -> Alcotest.fail "expected start element"

(* ------------------------------------------------------------------ *)
(* Tuples (Figure 4)                                                   *)

let reprs = [ Tuple.Stream_repr; Tuple.Single_repr; Tuple.Array_repr ]

let fields_fixture : Item.sequence list =
  [ [ Item.integer 100 ]; [ Item.string "al" ]; [ Item.Node sample_node ] ]

let test_tuple_field_access () =
  List.iter
    (fun repr ->
      let t = Tuple.of_sequences repr fields_fixture in
      check_int "width" 3 (Tuple.width t);
      List.iteri
        (fun i expected ->
          check_bool
            (Printf.sprintf "field %d" i)
            true
            (Item.equal_sequence expected (Tuple.field_items t i)))
        fields_fixture)
    reprs

let test_tuple_concat_subtuple () =
  List.iter
    (fun repr ->
      let a = Tuple.of_sequences repr [ [ Item.integer 1 ]; [ Item.integer 2 ] ] in
      let b = Tuple.of_sequences repr [ [ Item.string "x" ] ] in
      let c = Tuple.concat a b in
      check_int "concat width" 3 (Tuple.width c);
      check_bool "concat keeps repr" true (Tuple.repr c = repr);
      check_bool "last field" true
        (Item.equal_sequence [ Item.string "x" ] (Tuple.field_items c 2));
      let sub = Tuple.subtuple c 1 2 in
      check_int "subtuple width" 2 (Tuple.width sub);
      check_bool "subtuple field" true
        (Item.equal_sequence [ Item.integer 2 ] (Tuple.field_items sub 0)))
    reprs

let test_tuple_convert_equal () =
  let base = Tuple.of_sequences Tuple.Array_repr fields_fixture in
  List.iter
    (fun repr ->
      let converted = Tuple.convert repr base in
      check_bool "repr set" true (Tuple.repr converted = repr);
      check_bool "equal across reprs" true (Tuple.equal base converted))
    reprs

let test_tuple_stream_encoding () =
  let t =
    Tuple.of_sequences Tuple.Stream_repr
      [ [ Item.integer 100 ]; [ Item.string "al" ] ]
  in
  let tokens = List.of_seq (Tuple.to_stream t) in
  check_bool "delimited form" true
    (match tokens with
    | Token.Begin_tuple :: Token.Atom (Atomic.Integer 100)
      :: Token.Field_separator :: Token.Atom (Atomic.String "al")
      :: [ Token.End_tuple ] ->
      true
    | _ -> false)

let test_tuple_empty_field () =
  (* empty sequences in fields must survive all representations *)
  List.iter
    (fun repr ->
      let t = Tuple.of_sequences repr [ []; [ Item.integer 9 ] ] in
      check_int "width with empty" 2 (Tuple.width t);
      check_bool "empty field" true (Tuple.field_items t 0 = []);
      check_bool "second field" true
        (Item.equal_sequence [ Item.integer 9 ] (Tuple.field_items t 1)))
    reprs

(* ------------------------------------------------------------------ *)
(* Streaming serialization                                             *)

let test_serialize_stream_matches_tree () =
  let buf = Buffer.create 64 in
  Token_stream.serialize_to buf (Token_stream.of_node sample_node);
  Alcotest.check Alcotest.string "same as tree serialization"
    (Node.serialize sample_node) (Buffer.contents buf)

let test_serialize_stream_incremental () =
  (* a chunk arrives from a stream with no end, so the serializer never
     waits for the end; it is cut at the first token that brings it to
     4 KiB, and it is the start of the text the stream spells out. The
     pull limit turns a serializer that never yields into a failure
     rather than a hang. *)
  let x = Qname.local "X" in
  let pulled = ref 0 in
  let rows =
    Seq.flat_map
      (fun i ->
        if !pulled > 100_000 then failwith "no chunk after 100000 tokens";
        List.to_seq
          [ Token.Start_element x; Token.Atom (Atomic.Integer i); Token.End_element ])
      (Seq.ints 0)
  in
  let endless =
    Seq.map (fun t -> incr pulled; t)
      (Seq.cons (Token.Start_element (Qname.local "R")) rows)
  in
  match Token_stream.serialize_chunks endless () with
  | Seq.Nil -> Alcotest.fail "no chunk"
  | Seq.Cons (first, _) ->
    let len = String.length first in
    (* no token of this stream writes more than 16 bytes *)
    check_bool (Printf.sprintf "first chunk of %d bytes holds 4 KiB" len) true
      (len >= 4096 && len < 4096 + 16);
    let expected =
      let buf = Buffer.create (len + 64) in
      Buffer.add_string buf "<R>";
      let i = ref 0 in
      while Buffer.length buf < len do
        Buffer.add_string buf (Printf.sprintf "<X>%d</X>" !i);
        incr i
      done;
      Buffer.sub buf 0 len
    in
    Alcotest.check Alcotest.string "first chunk is a prefix of the text"
      expected first

let test_serialize_escaping_and_empty () =
  let node =
    Node.element
      ~attributes:[ (Qname.local "a", Atomic.String "x<y") ]
      (Qname.local "E")
      [ Node.text "a&b" ]
  in
  let buf = Buffer.create 32 in
  Token_stream.serialize_to buf (Token_stream.of_node node);
  Alcotest.check Alcotest.string "escaped" "<E a=\"x&lt;y\">a&amp;b</E>"
    (Buffer.contents buf);
  (* every escaped character, in text, string atoms and attributes *)
  let raw = "<a href=\"x\">&amp;</a>" in
  let escaped = "&lt;a href=&quot;x&quot;&gt;&amp;amp;&lt;/a&gt;" in
  Alcotest.check Alcotest.string "escape_text" escaped (Node.escape_text raw);
  let all =
    Node.element
      ~attributes:[ (Qname.local "v", Atomic.Untyped raw) ]
      (Qname.local "E")
      [ Node.text raw; Node.atom (Atomic.String raw) ]
  in
  let buf = Buffer.create 64 in
  Token_stream.serialize_to buf (Token_stream.of_node all);
  Alcotest.check Alcotest.string "all four escaped"
    (Printf.sprintf "<E v=\"%s\">%s%s</E>" escaped escaped escaped)
    (Buffer.contents buf);
  let clean = "CUST0042 Smith" in
  check_bool "nothing to escape: no copy" true (Node.escape_text clean == clean);
  let empty = Node.element (Qname.local "Z") [] in
  let buf2 = Buffer.create 8 in
  Token_stream.serialize_to buf2 (Token_stream.of_node empty);
  Alcotest.check Alcotest.string "self-closing" "<Z/>" (Buffer.contents buf2)

let test_serialize_malformed () =
  let bad = List.to_seq [ Token.End_element ] in
  match Token_stream.serialize_to (Buffer.create 4) bad with
  | () -> Alcotest.fail "accepted unbalanced stream"
  | exception Invalid_argument _ -> ()

(* Drains [serialize_chunks] until it ends or raises: the bytes delivered,
   the chunks, and whether it raised [Invalid_argument]. *)
let drain_chunks stream =
  let chunks = ref [] in
  let raised =
    match Seq.iter (fun c -> chunks := c :: !chunks) (Token_stream.serialize_chunks stream) with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  let chunks = List.rev !chunks in
  (String.concat "" chunks, chunks, raised)

(* [<R>] and 600 [<X>i</X>] rows: over 4 KiB, so a fault after them
   comes after full chunks. *)
let rows_prefix =
  Token.Start_element (Qname.local "R")
  :: List.concat
       (List.init 600 (fun i ->
            [ Token.Start_element (Qname.local "X");
              Token.Atom (Atomic.Integer i);
              Token.End_element ]))

let rows_text =
  "<R>" ^ String.concat "" (List.init 600 (Printf.sprintf "<X>%d</X>"))

let test_serialize_fault_delivers_prefix () =
  let y = Qname.local "Y" in
  List.iter
    (fun (case, tail, expected) ->
      let bytes, chunks, raised =
        drain_chunks (List.to_seq (rows_prefix @ tail))
      in
      check_bool (case ^ ": raises Invalid_argument") true raised;
      Alcotest.check Alcotest.string (case ^ ": bytes before the fault")
        expected bytes;
      check_bool (case ^ ": more than one chunk") true (List.length chunks > 1);
      List.iteri
        (fun i c ->
          if i < List.length chunks - 1 then
            check_bool (case ^ ": full chunk") true (String.length c >= 4096))
        chunks)
    [ ( "unterminated in content",
        [ Token.Start_element y;
          Token.Attribute (Qname.local "a", Atomic.String "1&2");
          Token.Text "t" ],
        rows_text ^ "<Y a=\"1&amp;2\">t" );
      (* the open start tag closes before the unterminated R is reported *)
      ("unterminated in a start tag", [ Token.Start_element y ], rows_text ^ "<Y/>");
      ( "unbalanced",
        [ Token.End_element; Token.End_element ],
        rows_text ^ "</R>" );
      ( "attribute in content",
        [ Token.Text "t"; Token.Attribute (Qname.local "a", Atomic.Integer 1) ],
        rows_text ^ "t" ) ]

let test_serialize_pull_fault () =
  (* an exception from the stream itself also comes after the bytes
     written before it *)
  let failing =
    Seq.append (List.to_seq rows_prefix) (fun () -> failwith "source failed")
  in
  let chunks = ref [] in
  (match Seq.iter (fun c -> chunks := c :: !chunks) (Token_stream.serialize_chunks failing) with
  | () -> Alcotest.fail "a failing stream ended cleanly"
  | exception Failure m -> Alcotest.check Alcotest.string "cause" "source failed" m);
  Alcotest.check Alcotest.string "bytes before the fault" rows_text
    (String.concat "" (List.rev !chunks))

(* The chunk writer hands out the chunks [serialize_chunks] yields, and
   on a fault its flush hands out the partial chunk they would. *)
let test_chunk_writer_matches_chunks () =
  let stream = rows_prefix @ [ Token.End_element ] in
  let written = ref [] in
  let w = Token_stream.chunk_writer (fun c -> written := c :: !written) in
  List.iter (Token_stream.chunk_write w) stream;
  Token_stream.chunk_close w;
  let _, chunks, _ = drain_chunks (List.to_seq stream) in
  check_bool "more than one chunk" true (List.length chunks > 1);
  check_bool "same chunks" true (List.rev !written = chunks);
  let written = ref [] in
  let w = Token_stream.chunk_writer (fun c -> written := c :: !written) in
  List.iter (Token_stream.chunk_write w) rows_prefix;
  Token_stream.chunk_flush w;
  Alcotest.check Alcotest.string "flushed bytes" rows_text
    (String.concat "" (List.rev !written))

(* Generators for the serializer properties: trees at least three levels
   deep with attributes, text holding every escaped character, and atoms
   of the types with their own lexical forms. *)
let escapable_gen =
  QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'z'; ' '; '<'; '>'; '&'; '"' ]) (int_range 0 8))

let atomic_gen =
  let open QCheck.Gen in
  oneof
    [ map (fun i -> Atomic.Integer i) small_signed_int;
      map (fun s -> Atomic.String s) escapable_gen;
      map (fun s -> Atomic.Untyped s) escapable_gen;
      map (fun f -> Atomic.Decimal f) (float_range (-1000.) 1000.);
      map (fun b -> Atomic.Boolean b) bool;
      map3
        (fun year month day -> Atomic.Date { Atomic.year; month; day })
        (int_range 1900 2100) (int_range 1 12) (int_range 1 28) ]

let leaf_node_gen =
  QCheck.Gen.(
    oneof [ map Node.atom atomic_gen; map Node.text escapable_gen ])

(* [deep] forces one child chain down to [depth]. *)
let rec element_gen ~deep depth =
  let open QCheck.Gen in
  let* name = oneofl [ "R"; "C"; "ORDER_T"; "x" ] in
  let* attributes =
    list_size (int_range 0 2)
      (pair (map Qname.local (oneofl [ "a"; "id" ])) atomic_gen)
  in
  let child =
    if depth = 0 then leaf_node_gen
    else frequency [ (2, leaf_node_gen); (1, element_gen ~deep:false (depth - 1)) ]
  in
  let* before = list_size (int_range 0 3) child in
  let* spine =
    if deep && depth > 0 then map Option.some (element_gen ~deep:true (depth - 1))
    else return None
  in
  let* after = list_size (int_range 0 2) child in
  return
    (Node.element ~attributes (Qname.local name)
       (before @ Option.to_list spine @ after))

let items_gen =
  let open QCheck.Gen in
  list_size (int_range 0 12)
    (frequency
       [ (1, map Item.atom atomic_gen);
         (4, map Item.node (int_range 3 4 >>= element_gen ~deep:true)) ])

(* The tree serializer's text for a sequence: nodes by [Node.serialize],
   top-level atoms by their escaped lexical form, without separators. *)
let reference_text items =
  String.concat ""
    (List.map
       (function
         | Item.Node n -> Node.serialize n
         | Item.Atom a -> Node.escape_text (Atomic.to_string a))
       items)

let chunked_text stream =
  let chunks = List.of_seq (Token_stream.serialize_chunks stream) in
  let rec full = function
    | [] | [ _ ] -> true
    | c :: rest -> String.length c >= 4096 && full rest
  in
  if not (full chunks) then QCheck.Test.fail_report "a chunk before the last is short";
  String.concat "" chunks

(* Property: the streaming serializer, its chunked form and the item
   walk all agree with the tree serializer, and the walk counts the
   tokens of the stream. [iter_item] visits the stream's tokens, and the
   chunk writer fed by it hands out [serialize_chunks]'s chunks. *)
let prop_serialize_agree =
  QCheck.Test.make ~name:"streaming serializer agrees with tree serializer"
    ~count:200
    (QCheck.make ~print:reference_text items_gen)
    (fun items ->
      let stream = Token_stream.of_sequence items in
      let expected = reference_text items in
      let buf = Buffer.create 64 in
      Token_stream.serialize_to buf stream;
      let walked = Buffer.create 64 in
      let count = Token_stream.serialize_items walked items in
      let visited = ref [] in
      List.iter (Token_stream.iter_item (fun t -> visited := t :: !visited)) items;
      let written = ref [] in
      let w = Token_stream.chunk_writer (fun c -> written := c :: !written) in
      List.iter (Token_stream.iter_item (Token_stream.chunk_write w)) items;
      Token_stream.chunk_close w;
      String.equal expected (Buffer.contents buf)
      && String.equal expected (chunked_text stream)
      && List.equal Token.equal (List.of_seq stream) (List.rev !visited)
      && List.rev !written = List.of_seq (Token_stream.serialize_chunks stream)
      && String.equal expected (Buffer.contents walked)
      && count = Token_stream.length stream)

(* Property: tuple delimiters render as their markers, at top level and
   inside element content, and a [Boxed] field serializes like its
   tokens in line. *)
let prop_serialize_tuples =
  let field_gen = QCheck.Gen.(pair bool items_gen) in
  let tuple_gen =
    QCheck.Gen.(
      pair bool (list_size (int_range 1 4) field_gen))
  in
  let case_gen = QCheck.Gen.list_size (QCheck.Gen.int_range 1 6) tuple_gen in
  let render (wrapped, fields) =
    let body =
      "<?tuple?>"
      ^ String.concat "<?field?>"
          (List.map (fun (_, items) -> reference_text items) fields)
      ^ "<?end-tuple?>"
    in
    if wrapped then "<W>" ^ body ^ "</W>" else body
  in
  let tokens (wrapped, fields) =
    let field (boxed, items) =
      let toks = Token_stream.of_sequence items in
      if boxed then Seq.return (Token_stream.box toks) else toks
    in
    let fields =
      List.mapi
        (fun i f ->
          if i = 0 then field f else Seq.cons Token.Field_separator (field f))
        fields
    in
    let body =
      Seq.append
        (Seq.cons Token.Begin_tuple (Token_stream.concat fields))
        (Seq.return Token.End_tuple)
    in
    if wrapped then
      Seq.cons (Token.Start_element (Qname.local "W"))
        (Seq.append body (Seq.return Token.End_element))
    else body
  in
  QCheck.Test.make ~name:"serializer renders tuple and boxed tokens" ~count:200
    (QCheck.make ~print:(fun c -> String.concat "" (List.map render c)) case_gen)
    (fun case ->
      let stream = Token_stream.concat (List.map tokens case) in
      let expected = String.concat "" (List.map render case) in
      let buf = Buffer.create 64 in
      Token_stream.serialize_to buf stream;
      String.equal expected (Buffer.contents buf)
      && String.equal expected (chunked_text stream))

(* Property: conversion between representations preserves equality. *)
let prop_tuple_roundtrip =
  let field_gen =
    QCheck.map
      (fun xs -> List.map (fun i -> Item.integer i) xs)
      QCheck.(list_of_size (Gen.int_range 0 3) small_signed_int)
  in
  let tuple_gen = QCheck.(list_of_size (Gen.int_range 1 5) field_gen) in
  QCheck.Test.make ~name:"tuple repr conversions preserve value" ~count:200
    tuple_gen (fun fields ->
      let a = Tuple.of_sequences Tuple.Array_repr fields in
      let s = Tuple.convert Tuple.Stream_repr a in
      let g = Tuple.convert Tuple.Single_repr s in
      Tuple.equal a s && Tuple.equal s g
      && Tuple.equal (Tuple.convert Tuple.Array_repr g) a)

let prop_stream_roundtrip =
  (* random shallow trees survive streaming *)
  let leaf_gen =
    QCheck.Gen.oneof
      [ QCheck.Gen.map (fun i -> Node.atom (Atomic.Integer i)) QCheck.Gen.small_signed_int;
        QCheck.Gen.map (fun s -> Node.text ("t" ^ s)) QCheck.Gen.small_string ]
  in
  let tree_gen =
    QCheck.Gen.map
      (fun leaves -> Node.element (Qname.local "R") leaves)
      (QCheck.Gen.list_size (QCheck.Gen.int_range 0 8) leaf_gen)
  in
  QCheck.Test.make ~name:"token stream roundtrips trees" ~count:200
    (QCheck.make tree_gen) (fun tree ->
      match Token_stream.to_items (Token_stream.of_node tree) with
      | Ok [ Item.Node n ] -> Node.equal n tree
      | _ -> false)

let () =
  let t name f = Alcotest.test_case name `Quick f in
  Alcotest.run "tokens"
    [ ( "stream",
        [ t "roundtrip" test_stream_roundtrip;
          t "sequence" test_stream_of_sequence;
          t "malformed" test_stream_malformed;
          t "box/unbox" test_box_unbox;
          t "laziness" test_stream_laziness;
          QCheck_alcotest.to_alcotest prop_stream_roundtrip ] );
      ( "serialize",
        [ t "matches tree" test_serialize_stream_matches_tree;
          t "incremental" test_serialize_stream_incremental;
          t "escaping + empty" test_serialize_escaping_and_empty;
          t "malformed" test_serialize_malformed;
          t "fault delivers the bytes before it" test_serialize_fault_delivers_prefix;
          t "source fault delivers the bytes before it" test_serialize_pull_fault;
          t "chunk writer hands out the same chunks" test_chunk_writer_matches_chunks;
          QCheck_alcotest.to_alcotest prop_serialize_agree;
          QCheck_alcotest.to_alcotest prop_serialize_tuples ] );
      ( "tuple",
        [ t "field access" test_tuple_field_access;
          t "concat/subtuple" test_tuple_concat_subtuple;
          t "convert+equal" test_tuple_convert_equal;
          t "stream encoding" test_tuple_stream_encoding;
          t "empty field" test_tuple_empty_field;
          QCheck_alcotest.to_alcotest prop_tuple_roundtrip ] ) ]
