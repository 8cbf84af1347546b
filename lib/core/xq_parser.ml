open Aldsp_xml
open Xq_ast

exception Error of int * string

let fail pos fmt = Printf.ksprintf (fun m -> raise (Error (pos, m))) fmt

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)

type token =
  | T_name of string option * string  (* possibly prefixed QName *)
  | T_var of string
  | T_int of int
  | T_dec of float
  | T_dbl of float
  | T_str of string
  | T_lparen | T_rparen
  | T_lbracket | T_rbracket
  | T_lbrace | T_rbrace
  | T_comma | T_semi
  | T_assign  (* := *)
  | T_slash | T_dslash
  | T_at | T_dot
  | T_star | T_plus | T_minus | T_qmark
  | T_eq | T_neq | T_lt | T_le | T_gt | T_ge
  | T_lt_tag  (* '<' opening a direct constructor *)
  | T_pragma of pragma
  | T_eof

type state = {
  input : string;
  mutable pos : int;
  mutable buffered : (token * int * int) option;
      (* token, its start offset, cursor offset after it *)
}

let make_state input = { input; pos = 0; buffered = None }

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let is_name_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' -> true
  | _ -> false

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' -> true
  | _ -> false

let is_digit = function '0' .. '9' -> true | _ -> false

let peek_char st =
  if st.pos < String.length st.input then Some st.input.[st.pos] else None

let char_at st i =
  if i < String.length st.input then Some st.input.[i] else None

(* At a ':' that a name starts right after: the name just read is a
   prefix. *)
let at_prefix_colon st =
  peek_char st = Some ':'
  && match char_at st (st.pos + 1) with Some c -> is_name_start c | None -> false

let looking_at st s =
  let n = String.length s in
  st.pos + n <= String.length st.input && String.sub st.input st.pos n = s

(* Comments (: ... :) nest; pragmas (::pragma ... ::) are lexed whole. *)
let rec skip_trivia st =
  match peek_char st with
  | Some c when is_ws c ->
    st.pos <- st.pos + 1;
    skip_trivia st
  | Some '(' when looking_at st "(::pragma" -> ()  (* handled by scan *)
  | Some '(' when looking_at st "(:" ->
    let rec skip depth i =
      if i + 1 >= String.length st.input then fail i "unterminated comment"
      else if st.input.[i] = '(' && st.input.[i + 1] = ':' then
        skip (depth + 1) (i + 2)
      else if st.input.[i] = ':' && st.input.[i + 1] = ')' then
        if depth = 1 then i + 2 else skip (depth - 1) (i + 2)
      else skip depth (i + 1)
    in
    st.pos <- skip 1 (st.pos + 2);
    skip_trivia st
  | _ -> ()

let read_name_raw st =
  let start = st.pos in
  while (match peek_char st with Some c -> is_name_char c | None -> false) do
    st.pos <- st.pos + 1
  done;
  if st.pos = start then fail start "expected a name";
  String.sub st.input start (st.pos - start)

let read_string_literal st quote =
  st.pos <- st.pos + 1;
  let buf = Buffer.create 16 in
  let rec go () =
    match peek_char st with
    | None -> fail st.pos "unterminated string literal"
    | Some c when c = quote ->
      if char_at st (st.pos + 1) = Some quote then begin
        Buffer.add_char buf quote;
        st.pos <- st.pos + 2;
        go ()
      end
      else st.pos <- st.pos + 1
    | Some c ->
      Buffer.add_char buf c;
      st.pos <- st.pos + 1;
      go ()
  in
  go ();
  Buffer.contents buf

let lex_pragma st =
  (* at "(::pragma" *)
  st.pos <- st.pos + String.length "(::pragma";
  let finish = ref None in
  (* find closing ::) *)
  let rec find i =
    if i + 2 >= String.length st.input then fail st.pos "unterminated pragma"
    else if st.input.[i] = ':' && st.input.[i + 1] = ':' && st.input.[i + 2] = ')'
    then finish := Some i
    else find (i + 1)
  in
  find st.pos;
  let stop = Option.get !finish in
  let body = String.sub st.input st.pos (stop - st.pos) in
  st.pos <- stop + 3;
  (* body: name (attr="value")*  — parse loosely; unknown chunks ignored *)
  let sub = make_state body in
  skip_trivia sub;
  let name =
    if (match peek_char sub with Some c -> is_name_start c | None -> false)
    then read_name_raw sub
    else ""
  in
  let attrs = ref [] in
  let rec attrs_loop () =
    skip_trivia sub;
    match peek_char sub with
    | Some c when is_name_start c -> (
      let key = read_name_raw sub in
      skip_trivia sub;
      match peek_char sub with
      | Some '=' -> (
        sub.pos <- sub.pos + 1;
        skip_trivia sub;
        match peek_char sub with
        | Some (('"' | '\'') as q) ->
          let v = read_string_literal sub q in
          attrs := (key, v) :: !attrs;
          attrs_loop ()
        | _ ->
          (* unquoted value up to whitespace *)
          let start = sub.pos in
          while
            match peek_char sub with
            | Some c -> not (is_ws c)
            | None -> false
          do
            sub.pos <- sub.pos + 1
          done;
          attrs := (key, String.sub body start (sub.pos - start)) :: !attrs;
          attrs_loop ())
      | _ -> attrs_loop ())
    | Some _ ->
      sub.pos <- sub.pos + 1;
      attrs_loop ()
    | None -> ()
  in
  attrs_loop ();
  { pragma_name = name; pragma_attrs = List.rev !attrs }

let scan st : token * int =
  skip_trivia st;
  let start = st.pos in
  match peek_char st with
  | None -> (T_eof, start)
  | Some '(' when looking_at st "(::pragma" -> (T_pragma (lex_pragma st), start)
  | Some c when is_name_start c -> (
    let first = read_name_raw st in
    (* prefixed name: name ':' name with no space *)
    if at_prefix_colon st then begin
      st.pos <- st.pos + 1;
      let second = read_name_raw st in
      (T_name (Some first, second), start)
    end
    else (T_name (None, first), start))
  | Some '$' ->
    st.pos <- st.pos + 1;
    let name = read_name_raw st in
    (* allow $p:v but keep only the local part; data service vars are local *)
    if at_prefix_colon st then begin
      st.pos <- st.pos + 1;
      (T_var (read_name_raw st), start)
    end
    else (T_var name, start)
  | Some c when is_digit c ->
    let nstart = st.pos in
    while (match peek_char st with Some c -> is_digit c | None -> false) do
      st.pos <- st.pos + 1
    done;
    let is_dec = peek_char st = Some '.' in
    if is_dec then begin
      st.pos <- st.pos + 1;
      while (match peek_char st with Some c -> is_digit c | None -> false) do
        st.pos <- st.pos + 1
      done
    end;
    let is_dbl =
      match peek_char st with Some ('e' | 'E') -> true | _ -> false
    in
    if is_dbl then begin
      st.pos <- st.pos + 1;
      (match peek_char st with
      | Some ('+' | '-') -> st.pos <- st.pos + 1
      | _ -> ());
      while (match peek_char st with Some c -> is_digit c | None -> false) do
        st.pos <- st.pos + 1
      done
    end;
    let text = String.sub st.input nstart (st.pos - nstart) in
    if is_dbl then (T_dbl (float_of_string text), start)
    else if is_dec then (T_dec (float_of_string text), start)
    else (T_int (int_of_string text), start)
  | Some (('"' | '\'') as q) -> (T_str (read_string_literal st q), start)
  | Some '(' ->
    st.pos <- st.pos + 1;
    (T_lparen, start)
  | Some ')' ->
    st.pos <- st.pos + 1;
    (T_rparen, start)
  | Some '[' ->
    st.pos <- st.pos + 1;
    (T_lbracket, start)
  | Some ']' ->
    st.pos <- st.pos + 1;
    (T_rbracket, start)
  | Some '{' ->
    st.pos <- st.pos + 1;
    (T_lbrace, start)
  | Some '}' ->
    st.pos <- st.pos + 1;
    (T_rbrace, start)
  | Some ',' ->
    st.pos <- st.pos + 1;
    (T_comma, start)
  | Some ';' ->
    st.pos <- st.pos + 1;
    (T_semi, start)
  | Some ':' when char_at st (st.pos + 1) = Some '=' ->
    st.pos <- st.pos + 2;
    (T_assign, start)
  | Some '/' when char_at st (st.pos + 1) = Some '/' ->
    st.pos <- st.pos + 2;
    (T_dslash, start)
  | Some '/' ->
    st.pos <- st.pos + 1;
    (T_slash, start)
  | Some '@' ->
    st.pos <- st.pos + 1;
    (T_at, start)
  | Some '.' ->
    st.pos <- st.pos + 1;
    (T_dot, start)
  | Some '*' ->
    st.pos <- st.pos + 1;
    (T_star, start)
  | Some '+' ->
    st.pos <- st.pos + 1;
    (T_plus, start)
  | Some '-' ->
    st.pos <- st.pos + 1;
    (T_minus, start)
  | Some '?' ->
    st.pos <- st.pos + 1;
    (T_qmark, start)
  | Some '=' ->
    st.pos <- st.pos + 1;
    (T_eq, start)
  | Some '!' when char_at st (st.pos + 1) = Some '=' ->
    st.pos <- st.pos + 2;
    (T_neq, start)
  | Some '<' -> (
    match char_at st (st.pos + 1) with
    | Some '=' ->
      st.pos <- st.pos + 2;
      (T_le, start)
    | Some c when is_name_start c ->
      st.pos <- st.pos + 1;
      (T_lt_tag, start)
    | _ ->
      st.pos <- st.pos + 1;
      (T_lt, start))
  | Some '>' when char_at st (st.pos + 1) = Some '=' ->
    st.pos <- st.pos + 2;
    (T_ge, start)
  | Some '>' ->
    st.pos <- st.pos + 1;
    (T_gt, start)
  | Some c -> fail start "unexpected character %C" c

let peek st =
  match st.buffered with
  | Some (t, _, _) -> t
  | None ->
    let before = st.pos in
    let t, tok_start = scan st in
    let after = st.pos in
    st.pos <- before;
    st.buffered <- Some (t, tok_start, after);
    (* keep cursor before token; buffered carries the post-token position *)
    ignore tok_start;
    t

let next st =
  match st.buffered with
  | Some (t, _, after) ->
    st.buffered <- None;
    st.pos <- after;
    t
  | None -> fst (scan st)

let token_pos st =
  match st.buffered with Some (_, p, _) -> p | None -> st.pos

type mark = { mark_pos : int }

let save st : mark =
  ignore (peek st);
  (* ensure buffered reflects a consistent point: drop buffer, keep pos *)
  match st.buffered with
  | Some (_, p, _) ->
    st.buffered <- None;
    st.pos <- p;
    { mark_pos = p }
  | None -> { mark_pos = st.pos }

let restore st m =
  st.buffered <- None;
  st.pos <- m.mark_pos

let describe = function
  | T_name (None, n) -> n
  | T_name (Some p, n) -> p ^ ":" ^ n
  | T_var v -> "$" ^ v
  | T_int i -> string_of_int i
  | T_dec f | T_dbl f -> string_of_float f
  | T_str s -> Printf.sprintf "%S" s
  | T_lparen -> "(" | T_rparen -> ")"
  | T_lbracket -> "[" | T_rbracket -> "]"
  | T_lbrace -> "{" | T_rbrace -> "}"
  | T_comma -> "," | T_semi -> ";"
  | T_assign -> ":="
  | T_slash -> "/" | T_dslash -> "//"
  | T_at -> "@" | T_dot -> "."
  | T_star -> "*" | T_plus -> "+" | T_minus -> "-" | T_qmark -> "?"
  | T_eq -> "=" | T_neq -> "!=" | T_lt -> "<" | T_le -> "<="
  | T_gt -> ">" | T_ge -> ">="
  | T_lt_tag -> "<tag"
  | T_pragma _ -> "(::pragma ...::)"
  | T_eof -> "<eof>"

let expect st tok =
  let got = next st in
  if got <> tok then
    fail (token_pos st) "expected %s, found %s" (describe tok) (describe got)

let at_name st kw =
  match peek st with T_name (None, n) -> n = kw | _ -> false

let eat_name st kw =
  if at_name st kw then begin
    ignore (next st);
    true
  end
  else false

let expect_name st kw =
  if not (eat_name st kw) then
    fail (token_pos st) "expected %s, found %s" kw (describe (peek st))

let uqname_of_token st =
  match next st with
  | T_name (prefix, local) -> { prefix; local_name = local }
  | t -> fail (token_pos st) "expected a name, found %s" (describe t)

(* ------------------------------------------------------------------ *)
(* Sequence types                                                      *)

let rec parse_sequence_type st =
  if at_name st "empty-sequence" then begin
    ignore (next st);
    expect st T_lparen;
    expect st T_rparen;
    { stype = St_empty; occ = Occ_one }
  end
  else if at_name st "item" then begin
    ignore (next st);
    expect st T_lparen;
    expect st T_rparen;
    { stype = St_item; occ = parse_occurrence st }
  end
  else if at_name st "node" then begin
    ignore (next st);
    expect st T_lparen;
    expect st T_rparen;
    { stype = St_node; occ = parse_occurrence st }
  end
  else if at_name st "element" then begin
    ignore (next st);
    expect st T_lparen;
    let name =
      match peek st with
      | T_rparen -> None
      | T_star ->
        ignore (next st);
        None
      | _ -> Some (uqname_of_token st)
    in
    (* optional ", TYPE" content annotation is accepted and ignored *)
    if peek st = T_comma then begin
      ignore (next st);
      ignore (uqname_of_token st)
    end;
    expect st T_rparen;
    { stype = St_element name; occ = parse_occurrence st }
  end
  else if at_name st "schema-element" then begin
    ignore (next st);
    expect st T_lparen;
    let name = uqname_of_token st in
    expect st T_rparen;
    { stype = St_schema_element name; occ = parse_occurrence st }
  end
  else
    let name = uqname_of_token st in
    { stype = St_atomic name; occ = parse_occurrence st }

and parse_occurrence st =
  match peek st with
  | T_qmark ->
    ignore (next st);
    Occ_opt
  | T_star ->
    ignore (next st);
    Occ_star
  | T_plus ->
    ignore (next st);
    Occ_plus
  | _ -> Occ_one

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)

let rec parse_expr_internal st = parse_sequence_expr st

and parse_sequence_expr st =
  let first = parse_single_expr st in
  if peek st = T_comma then begin
    let rec more acc =
      if peek st = T_comma then begin
        ignore (next st);
        more (parse_single_expr st :: acc)
      end
      else List.rev acc
    in
    E_seq (more [ first ])
  end
  else first

and parse_single_expr st =
  match peek st with
  | T_name (None, "for") | T_name (None, "let") -> parse_flwor st
  | T_name (None, "if") -> parse_if st
  | T_name (None, ("some" | "every")) -> parse_quantified st
  | _ -> parse_or_expr st

(* The comma-separated bindings of a [for] or [let] clause, each
   [$v (as TYPE)? SEP ExprSingle]; [sep] reads the separator. *)
and parse_bindings st sep =
  let rec bindings acc =
    let v =
      match next st with
      | T_var v -> v
      | t -> fail (token_pos st) "expected a variable, found %s" (describe t)
    in
    if at_name st "as" then begin
      ignore (next st);
      ignore (parse_sequence_type st)
    end;
    sep ();
    let e = parse_single_expr st in
    if peek st = T_comma then begin
      ignore (next st);
      bindings ((v, e) :: acc)
    end
    else List.rev ((v, e) :: acc)
  in
  bindings []

and parse_flwor st =
  let clauses = ref [] in
  let rec clause_loop () =
    match peek st with
    | T_name (None, "for") ->
      ignore (next st);
      clauses :=
        C_for (parse_bindings st (fun () -> expect_name st "in")) :: !clauses;
      clause_loop ()
    | T_name (None, "let") ->
      ignore (next st);
      clauses :=
        C_let (parse_bindings st (fun () -> expect st T_assign)) :: !clauses;
      clause_loop ()
    | T_name (None, "where") ->
      ignore (next st);
      clauses := C_where (parse_single_expr st) :: !clauses;
      clause_loop ()
    | T_name (None, "group") ->
      ignore (next st);
      (* grammar: group [$v as $vs {, $w as $ws}] by e [as $k] {, e [as $k]} *)
      let aggregations =
        let rec aggs acc =
          match peek st with
          | T_var _ -> (
            let v =
              match next st with T_var v -> v | _ -> assert false
            in
            expect_name st "as";
            let out =
              match next st with
              | T_var v -> v
              | t ->
                fail (token_pos st) "expected a variable, found %s" (describe t)
            in
            let acc = (v, out) :: acc in
            if peek st = T_comma then begin
              ignore (next st);
              aggs acc
            end
            else List.rev acc)
          | _ -> List.rev acc
        in
        aggs []
      in
      expect_name st "by";
      let keys =
        let rec keys acc =
          let e = parse_single_expr st in
          let alias =
            if at_name st "as" then begin
              ignore (next st);
              match next st with
              | T_var v -> Some v
              | t ->
                fail (token_pos st) "expected a variable, found %s" (describe t)
            end
            else None
          in
          let acc = (e, alias) :: acc in
          if peek st = T_comma then begin
            ignore (next st);
            keys acc
          end
          else List.rev acc
        in
        keys []
      in
      clauses := C_group { aggregations; keys } :: !clauses;
      clause_loop ()
    | T_name (None, "order") ->
      ignore (next st);
      expect_name st "by";
      let rec keys acc =
        let e = parse_single_expr st in
        let descending =
          if eat_name st "descending" then true
          else begin
            ignore (eat_name st "ascending");
            false
          end
        in
        let acc = (e, descending) :: acc in
        if peek st = T_comma then begin
          ignore (next st);
          keys acc
        end
        else List.rev acc
      in
      clauses := C_order (keys []) :: !clauses;
      clause_loop ()
    | T_name (None, "stable") ->
      ignore (next st);
      clause_loop ()
    | _ -> ()
  in
  clause_loop ();
  expect_name st "return";
  let return_ = parse_single_expr st in
  E_flwor { clauses = List.rev !clauses; return_ }

and parse_if st =
  expect_name st "if";
  expect st T_lparen;
  let cond = parse_expr_internal st in
  expect st T_rparen;
  expect_name st "then";
  let then_ = parse_single_expr st in
  expect_name st "else";
  let else_ = parse_single_expr st in
  E_if (cond, then_, else_)

and parse_quantified st =
  let universal =
    match next st with
    | T_name (None, "every") -> true
    | T_name (None, "some") -> false
    | _ -> assert false
  in
  let rec bindings acc =
    let v =
      match next st with
      | T_var v -> v
      | t -> fail (token_pos st) "expected a variable, found %s" (describe t)
    in
    expect_name st "in";
    let e = parse_single_expr st in
    if peek st = T_comma then begin
      ignore (next st);
      bindings ((v, e) :: acc)
    end
    else List.rev ((v, e) :: acc)
  in
  let bindings = bindings [] in
  (* accept the correct keyword and the paper's typo'd "satisifes" *)
  if not (eat_name st "satisfies" || eat_name st "satisifes") then
    fail (token_pos st) "expected satisfies";
  let satisfies = parse_single_expr st in
  E_quantified { universal; bindings; satisfies }

and parse_or_expr st =
  let left = parse_and_expr st in
  if at_name st "or" then begin
    ignore (next st);
    E_binop (Or, left, parse_or_expr st)
  end
  else left

and parse_and_expr st =
  let left = parse_comparison_expr st in
  if at_name st "and" then begin
    ignore (next st);
    E_binop (And, left, parse_and_expr st)
  end
  else left

and parse_comparison_expr st =
  let left = parse_range_expr st in
  let op =
    match peek st with
    | T_eq -> Some G_eq
    | T_neq -> Some G_ne
    | T_lt -> Some G_lt
    | T_le -> Some G_le
    | T_gt -> Some G_gt
    | T_ge -> Some G_ge
    | T_name (None, "eq") -> Some V_eq
    | T_name (None, "ne") -> Some V_ne
    | T_name (None, "lt") -> Some V_lt
    | T_name (None, "le") -> Some V_le
    | T_name (None, "gt") -> Some V_gt
    | T_name (None, "ge") -> Some V_ge
    | _ -> None
  in
  match op with
  | Some op ->
    ignore (next st);
    E_binop (op, left, parse_range_expr st)
  | None -> left

and parse_range_expr st =
  let left = parse_additive_expr st in
  if at_name st "to" then begin
    ignore (next st);
    E_binop (To, left, parse_additive_expr st)
  end
  else left

and parse_additive_expr st =
  let rec go left =
    match peek st with
    | T_plus ->
      ignore (next st);
      go (E_binop (Plus, left, parse_multiplicative_expr st))
    | T_minus ->
      ignore (next st);
      go (E_binop (Minus, left, parse_multiplicative_expr st))
    | _ -> left
  in
  go (parse_multiplicative_expr st)

and parse_multiplicative_expr st =
  let rec go left =
    match peek st with
    | T_star ->
      ignore (next st);
      go (E_binop (Mult, left, parse_typed_expr st))
    | T_name (None, "div") ->
      ignore (next st);
      go (E_binop (Div, left, parse_typed_expr st))
    | T_name (None, "idiv") ->
      ignore (next st);
      go (E_binop (Idiv, left, parse_typed_expr st))
    | T_name (None, "mod") ->
      ignore (next st);
      go (E_binop (Mod, left, parse_typed_expr st))
    | _ -> left
  in
  go (parse_typed_expr st)

and parse_typed_expr st =
  let left = parse_unary_expr st in
  if at_name st "instance" then begin
    ignore (next st);
    expect_name st "of";
    E_instance_of (left, parse_sequence_type st)
  end
  else if at_name st "castable" then begin
    ignore (next st);
    expect_name st "as";
    E_castable (left, parse_sequence_type st)
  end
  else if at_name st "cast" then begin
    ignore (next st);
    expect_name st "as";
    E_cast (left, parse_sequence_type st)
  end
  else left

and parse_unary_expr st =
  match peek st with
  | T_minus ->
    ignore (next st);
    E_unary_minus (parse_unary_expr st)
  | T_plus ->
    ignore (next st);
    parse_unary_expr st
  | _ -> parse_path_expr st

and parse_path_expr st =
  let base = parse_step_or_primary st in
  let rec steps acc =
    match peek st with
    | T_slash ->
      ignore (next st);
      steps (parse_step st :: acc)
    | T_dslash -> fail (token_pos st) "descendant axis (//) is not supported"
    | _ -> List.rev acc
  in
  let steps = steps [] in
  if steps = [] then base else E_path (base, steps)

and parse_step st =
  match peek st with
  | T_at ->
    ignore (next st);
    let test =
      if peek st = T_star then begin
        ignore (next st);
        Wildcard
      end
      else Name (uqname_of_token st)
    in
    { axis = Attribute_axis; test; predicates = parse_predicates st }
  | T_star ->
    ignore (next st);
    { axis = Child; test = Wildcard; predicates = parse_predicates st }
  | T_name _ ->
    let name = uqname_of_token st in
    { axis = Child; test = Name name; predicates = parse_predicates st }
  | t -> fail (token_pos st) "expected a path step, found %s" (describe t)

and parse_predicates st =
  let rec go acc =
    if peek st = T_lbracket then begin
      ignore (next st);
      let p = parse_expr_internal st in
      expect st T_rbracket;
      go (p :: acc)
    end
    else List.rev acc
  in
  go []

(* A primary expression possibly followed by predicates, or a bare name
   test which is a child step on the context item. *)
and parse_step_or_primary st =
  match peek st with
  | T_at | T_star ->
    let step = parse_step st in
    E_path (E_context_item, [ step ])
  | T_name _ -> (
    (* function call vs keyword vs bare child step *)
    let m = save st in
    let name = uqname_of_token st in
    match peek st with
    | T_lparen ->
      ignore (next st);
      let args =
        if peek st = T_rparen then []
        else
          let rec args acc =
            let a = parse_single_expr st in
            if peek st = T_comma then begin
              ignore (next st);
              args (a :: acc)
            end
            else List.rev (a :: acc)
          in
          args []
      in
      expect st T_rparen;
      with_predicates st (E_call (name, args))
    | _ ->
      restore st m;
      let step = parse_step st in
      E_path (E_context_item, [ step ]))
  | _ -> with_predicates st (parse_primary st)

and with_predicates st base =
  let preds = parse_predicates st in
  if preds = [] then base else E_filter (base, preds)

and parse_primary st =
  match peek st with
  | T_int i ->
    ignore (next st);
    E_literal (Atomic.Integer i)
  | T_dec f ->
    ignore (next st);
    E_literal (Atomic.Decimal f)
  | T_dbl f ->
    ignore (next st);
    E_literal (Atomic.Double f)
  | T_str s ->
    ignore (next st);
    E_literal (Atomic.String s)
  | T_var v ->
    ignore (next st);
    E_var v
  | T_dot ->
    ignore (next st);
    E_context_item
  | T_lparen ->
    ignore (next st);
    if peek st = T_rparen then begin
      ignore (next st);
      E_seq []
    end
    else begin
      let e = parse_expr_internal st in
      expect st T_rparen;
      e
    end
  | T_lt_tag -> parse_direct_constructor st
  | t -> fail (token_pos st) "unexpected %s" (describe t)

(* --------------- direct element constructors (char level) ---------- *)

and parse_direct_constructor st =
  (* the '<' has been consumed as T_lt_tag; cursor sits at the name *)
  expect st T_lt_tag;
  parse_tag_body st

and parse_tag_body st =
  (* char-level from here *)
  let read_qname () =
    let first = read_name_raw st in
    if at_prefix_colon st then begin
      st.pos <- st.pos + 1;
      let second = read_name_raw st in
      { prefix = Some first; local_name = second }
    end
    else { prefix = None; local_name = first }
  in
  let skip_sp () =
    while (match peek_char st with Some c -> is_ws c | None -> false) do
      st.pos <- st.pos + 1
    done
  in
  let name = read_qname () in
  let optional = peek_char st = Some '?' in
  if optional then st.pos <- st.pos + 1;
  (* attributes *)
  let attributes = ref [] in
  let rec attr_loop () =
    skip_sp ();
    match peek_char st with
    | Some c when is_name_start c ->
      let attr_name = read_qname () in
      let attr_optional = peek_char st = Some '?' in
      if attr_optional then st.pos <- st.pos + 1;
      skip_sp ();
      (match peek_char st with
      | Some '=' -> st.pos <- st.pos + 1
      | _ -> fail st.pos "expected = in attribute");
      skip_sp ();
      let quote =
        match peek_char st with
        | Some (('"' | '\'') as q) ->
          st.pos <- st.pos + 1;
          q
        | _ -> fail st.pos "expected attribute value"
      in
      let pieces = ref [] in
      let buf = Buffer.create 16 in
      let flush_text () =
        if Buffer.length buf > 0 then begin
          pieces := A_text (Buffer.contents buf) :: !pieces;
          Buffer.clear buf
        end
      in
      let rec value_loop () =
        match peek_char st with
        | None -> fail st.pos "unterminated attribute value"
        | Some c when c = quote -> st.pos <- st.pos + 1
        | Some '{' ->
          st.pos <- st.pos + 1;
          flush_text ();
          let e = parse_expr_internal st in
          expect st T_rbrace;
          pieces := A_enclosed e :: !pieces;
          value_loop ()
        | Some c ->
          Buffer.add_char buf c;
          st.pos <- st.pos + 1;
          value_loop ()
      in
      value_loop ();
      flush_text ();
      attributes :=
        { attr_name; attr_optional; attr_value = List.rev !pieces }
        :: !attributes;
      attr_loop ()
    | _ -> ()
  in
  attr_loop ();
  skip_sp ();
  let attributes = List.rev !attributes in
  match peek_char st with
  | Some '/' when char_at st (st.pos + 1) = Some '>' ->
    st.pos <- st.pos + 2;
    E_element { name; optional; attributes; content = [] }
  | Some '>' ->
    st.pos <- st.pos + 1;
    let content = parse_element_content st in
    (* at '</' *)
    if not (looking_at st "</") then fail st.pos "expected closing tag";
    st.pos <- st.pos + 2;
    let close = read_qname () in
    if close.local_name <> name.local_name then
      fail st.pos "mismatched closing tag </%s> for <%s>" close.local_name
        name.local_name;
    skip_sp ();
    (match peek_char st with
    | Some '>' -> st.pos <- st.pos + 1
    | _ -> fail st.pos "expected > in closing tag");
    E_element { name; optional; attributes; content }
  | _ -> fail st.pos "malformed start tag"

and parse_element_content st =
  let content = ref [] in
  let buf = Buffer.create 16 in
  let flush_text () =
    let text = Buffer.contents buf in
    Buffer.clear buf;
    (* boundary whitespace is stripped, per default boundary-space policy *)
    if String.trim text <> "" then
      content := E_literal (Atomic.String text) :: !content
  in
  let rec loop () =
    match peek_char st with
    | None -> fail st.pos "unterminated element constructor"
    | Some '<' when char_at st (st.pos + 1) = Some '/' -> flush_text ()
    | Some '<' ->
      flush_text ();
      st.pos <- st.pos + 1;
      let child = parse_tag_body st in
      content := child :: !content;
      loop ()
    | Some '{' ->
      st.pos <- st.pos + 1;
      flush_text ();
      let e = parse_expr_internal st in
      expect st T_rbrace;
      content := e :: !content;
      loop ()
    | Some c ->
      Buffer.add_char buf c;
      st.pos <- st.pos + 1;
      loop ()
  in
  loop ();
  List.rev !content

(* ------------------------------------------------------------------ *)
(* Prolog                                                              *)

let parse_param_list st =
  expect st T_lparen;
  if peek st = T_rparen then begin
    ignore (next st);
    []
  end
  else begin
    let rec params acc =
      let v =
        match next st with
        | T_var v -> v
        | t -> fail (token_pos st) "expected a parameter, found %s" (describe t)
      in
      let ty =
        if at_name st "as" then begin
          ignore (next st);
          Some (parse_sequence_type st)
        end
        else None
      in
      if peek st = T_comma then begin
        ignore (next st);
        params ((v, ty) :: acc)
      end
      else List.rev ((v, ty) :: acc)
    in
    let ps = params [] in
    expect st T_rparen;
    ps
  end

let parse_function_decl st pragmas =
  (* after "declare function" *)
  let fn_name = uqname_of_token st in
  let fn_params = parse_param_list st in
  let fn_return =
    if at_name st "as" then begin
      ignore (next st);
      Some (parse_sequence_type st)
    end
    else None
  in
  let fn_body =
    if at_name st "external" then begin
      ignore (next st);
      None
    end
    else begin
      expect st T_lbrace;
      let body = parse_expr_internal st in
      expect st T_rbrace;
      Some body
    end
  in
  expect st T_semi;
  { fn_name; fn_params; fn_return; fn_body; fn_pragmas = pragmas }

let rec skip_to_semi st =
  match peek st with
  | T_eof -> ()
  | T_semi -> ignore (next st)
  | _ ->
    ignore (next st);
    skip_to_semi st

let ident_name st =
  match next st with
  | T_name (None, n) -> n
  | t -> fail (token_pos st) "expected an identifier, found %s" (describe t)

let parse_prolog ~recover st =
  let prolog = ref empty_prolog in
  let errors = ref [] in
  let pragmas = ref [] in
  let add_error pos msg =
    errors := Printf.sprintf "offset %d: %s" pos msg :: !errors
  in
  let rec loop () =
    match peek st with
    | T_pragma p ->
      ignore (next st);
      pragmas := p :: !pragmas;
      loop ()
    | T_name (None, "xquery") ->
      (* xquery version "1.0" encoding "...": *)
      ignore (next st);
      (try
         expect_name st "version";
         (match next st with T_str _ -> () | _ -> fail (token_pos st) "expected version string");
         if at_name st "encoding" then begin
           ignore (next st);
           match next st with
           | T_str _ -> ()
           | _ -> fail (token_pos st) "expected encoding string"
         end;
         expect st T_semi
       with Error (p, m) when recover ->
         add_error p m;
         skip_to_semi st);
      loop ()
    | T_name (None, "declare") | T_name (None, "import") -> (
      let is_import = at_name st "import" in
      ignore (next st);
      let run () =
        if is_import then begin
          (* import schema namespace p = "uri" (at "loc")? ; *)
          expect_name st "schema";
          let prefix =
            if eat_name st "namespace" then begin
              let p = ident_name st in
              expect st T_eq;
              Some p
            end
            else None
          in
          let uri =
            match next st with
            | T_str s -> s
            | t -> fail (token_pos st) "expected a URI string, found %s" (describe t)
          in
          if eat_name st "at" then
            ignore
              (match next st with
              | T_str s -> s
              | t -> fail (token_pos st) "expected location, found %s" (describe t));
          expect st T_semi;
          prolog :=
            { !prolog with
              schema_imports = !prolog.schema_imports @ [ (prefix, uri) ] };
          (match prefix with
          | Some p ->
            prolog :=
              { !prolog with namespaces = !prolog.namespaces @ [ (p, uri) ] }
          | None -> ())
        end
        else if at_name st "namespace" then begin
          ignore (next st);
          let p = ident_name st in
          expect st T_eq;
          let uri =
            match next st with
            | T_str s -> s
            | t -> fail (token_pos st) "expected a URI string, found %s" (describe t)
          in
          expect st T_semi;
          prolog :=
            { !prolog with namespaces = !prolog.namespaces @ [ (p, uri) ] }
        end
        else if at_name st "default" then begin
          ignore (next st);
          expect_name st "element";
          expect_name st "namespace";
          let uri =
            match next st with
            | T_str s -> s
            | t -> fail (token_pos st) "expected a URI string, found %s" (describe t)
          in
          expect st T_semi;
          prolog := { !prolog with default_element_ns = Some uri }
        end
        else if at_name st "variable" then begin
          ignore (next st);
          let v =
            match next st with
            | T_var v -> v
            | t -> fail (token_pos st) "expected a variable, found %s" (describe t)
          in
          let ty =
            if at_name st "as" then begin
              ignore (next st);
              Some (parse_sequence_type st)
            end
            else None
          in
          expect st T_assign;
          let e = parse_expr_internal st in
          expect st T_semi;
          prolog :=
            { !prolog with variables = !prolog.variables @ [ (v, ty, e) ] }
        end
        else if at_name st "function" then begin
          ignore (next st);
          let fp = List.rev !pragmas in
          pragmas := [];
          let decl = parse_function_decl st fp in
          prolog := { !prolog with functions = !prolog.functions @ [ decl ] }
        end
        else fail (token_pos st) "unknown declaration"
      in
      if recover then (
        try run ()
        with Error (p, m) ->
          add_error p m;
          skip_to_semi st)
      else run ();
      loop ())
    | _ -> ()
  in
  loop ();
  (* pragmas not attached to any declaration precede the query body:
     they are query-level hints *)
  (!prolog, List.rev !errors, List.rev !pragmas)

let parse_query_with ~recover input =
  let st = make_state input in
  let prolog, errors, query_pragmas = parse_prolog ~recover st in
  let body, errors =
    if peek st = T_eof then (None, errors)
    else if recover then (
      try
        let e = parse_expr_internal st in
        (match peek st with
        | T_eof -> ()
        | t -> fail (token_pos st) "trailing tokens: %s" (describe t));
        (Some e, errors)
      with Error (p, m) ->
        (None, errors @ [ Printf.sprintf "offset %d: %s" p m ]))
    else begin
      let e = parse_expr_internal st in
      (match peek st with
      | T_eof -> ()
      | t -> fail (token_pos st) "trailing tokens: %s" (describe t));
      (Some e, errors)
    end
  in
  ({ prolog; body; query_pragmas }, errors)

let parse_query input =
  match parse_query_with ~recover:false input with
  | q, _ -> Ok q
  | exception Error (pos, msg) ->
    Error (Printf.sprintf "XQuery parse error at offset %d: %s" pos msg)

let parse_expr input =
  let st = make_state input in
  match
    let e = parse_expr_internal st in
    (match peek st with
    | T_eof -> ()
    | t -> fail (token_pos st) "trailing tokens: %s" (describe t));
    e
  with
  | e -> Ok e
  | exception Error (pos, msg) ->
    Error (Printf.sprintf "XQuery parse error at offset %d: %s" pos msg)

let parse_query_recovering input =
  match parse_query_with ~recover:true input with
  | q, errors -> (q, errors)
  | exception Error (pos, msg) ->
    ( { prolog = empty_prolog; body = None; query_pragmas = [] },
      [ Printf.sprintf "offset %d: %s" pos msg ] )
