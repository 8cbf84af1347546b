(** Qualified names.

    A qualified name pairs a namespace URI with a local name. Prefixes are a
    lexical artifact and are resolved away by the parsers; two qnames are
    equal iff their URIs and local names are equal. *)

type t = {
  uri : string;  (** Namespace URI; [""] means "no namespace". *)
  local : string;  (** Local part. *)
}

val make : ?uri:string -> string -> t
(** [make ?uri local] builds a qname. [uri] defaults to [""]. *)

val local : string -> t
(** [local n] is [make n]: a qname in no namespace. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val to_string : t -> string
(** Clark notation: [{uri}local] when a URI is present, else [local]. *)

val of_string : string -> t
(** Parses Clark notation produced by {!to_string}. *)

val pp : Format.formatter -> t -> unit
