(** An XML Schema subset: the "shape" language of data services.

    A data service's shape (§2.1 of the paper) is an XML Schema describing
    its business-object type. This module provides just enough of XML
    Schema for ALDSP's data-centric use: named element declarations with
    either simple (atomic) content or a sequence of child element particles
    with occurrence indicators, plus typed attributes. Validation turns an
    untyped tree (e.g. from {!Xml_parser} or a web-service payload) into a
    typed tree, the form all adaptors feed into the runtime. *)

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

val element_decl :
  ?attributes:attribute_decl list -> Qname.t -> content -> element_decl

val attribute_decl :
  ?required:bool -> Qname.t -> Atomic.atomic_type -> attribute_decl

val simple : Qname.t -> Atomic.atomic_type -> element_decl
(** [simple name ty] declares an element with atomic content of type
    [ty]. *)

val particle : ?occurs:occurrence -> element_decl -> particle

val validate : element_decl -> Node.t -> (Node.t, string) result
(** [validate decl node] checks [node] against [decl] and returns the typed
    equivalent: text content of simple-typed elements is parsed into typed
    atomic leaves, attributes are typed, child sequences are checked against
    particles (in order, with occurrence constraints). Unknown elements,
    missing required content, and lexical errors are reported with a path. *)

val pp : Format.formatter -> element_decl -> unit
(** Renders the declaration in a compact XML-Schema-like notation, for
    design-view display and debugging. *)
