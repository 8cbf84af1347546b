(** Well-known namespaces and names.

    Short canonical URIs are used for readability ("fn", "xs", "fn-bea");
    the parser's default namespace map binds the usual prefixes to them, so
    [fn:data], unprefixed [data], and [fn-bea:async] all resolve here. *)

open Aldsp_xml

val fn_uri : string
val xs_uri : string

val fn : string -> Qname.t

val async : Qname.t
(** [fn-bea:async] *)

val fail_over : Qname.t
(** [fn-bea:fail-over] *)

val timeout : Qname.t
(** [fn-bea:timeout] *)

val default_namespaces : (string * string) list
(** Prefix bindings every compilation starts from: [fn], [xs], [fn-bea]. *)
