open Aldsp_xml

type t =
  | Start_element of Qname.t
  | End_element
  | Attribute of Qname.t * Atomic.t
  | Atom of Atomic.t
  | Text of string
  | Begin_tuple
  | End_tuple
  | Field_separator
  | Boxed of t array

let rec equal a b =
  match (a, b) with
  | Start_element x, Start_element y -> Qname.equal x y
  | End_element, End_element -> true
  | Attribute (n1, v1), Attribute (n2, v2) ->
    Qname.equal n1 n2 && Atomic.equal v1 v2
  | Atom x, Atom y -> Atomic.equal x y
  | Text x, Text y -> String.equal x y
  | Begin_tuple, Begin_tuple -> true
  | End_tuple, End_tuple -> true
  | Field_separator, Field_separator -> true
  | Boxed x, Boxed y ->
    Array.length x = Array.length y
    && Array.for_all2 (fun a b -> equal a b) x y
  | ( ( Start_element _ | End_element | Attribute _ | Atom _ | Text _
      | Begin_tuple | End_tuple | Field_separator | Boxed _ ),
      _ ) ->
    false

let rec pp ppf = function
  | Start_element n -> Format.fprintf ppf "<%a>" Qname.pp n
  | End_element -> Format.fprintf ppf "</>"
  | Attribute (n, v) -> Format.fprintf ppf "@%a=%a" Qname.pp n Atomic.pp v
  | Atom a -> Format.fprintf ppf "%s(%a)" (Atomic.type_name (Atomic.type_of a)) Atomic.pp a
  | Text s -> Format.fprintf ppf "%S" s
  | Begin_tuple -> Format.pp_print_string ppf "[Tup"
  | End_tuple -> Format.pp_print_string ppf "Tup]"
  | Field_separator -> Format.pp_print_string ppf "|"
  | Boxed ts ->
    Format.fprintf ppf "Boxed(%a)"
      (Format.pp_print_seq ~pp_sep:Format.pp_print_space pp)
      (Array.to_seq ts)
