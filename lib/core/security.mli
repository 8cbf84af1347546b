(** Fine-grained data security (§7).

    Access control is available at two granularities:

    - {b function level}: who is allowed to call which data service
      functions;
    - {b element level}: an individual subtree of a data service's shape is
      a labeled security resource with its own policy. Unauthorized
      accessors either see nothing (silent removal, legitimate when the
      schema marks the subtree optional) or an administratively-specified
      replacement value.

    Element-level filtering happens at a late stage of query processing —
    {e after} the function cache — so plans and cached function results are
    shared across users, and the filter is applied to cache hits too: on
    every {!Server} entry point, {!filter_tokens} wraps the delivery sink. *)

open Aldsp_xml

type user = { user_name : string; roles : string list }

val admin : user
(** A built-in user with the ["admin"] role. *)

type on_deny =
  | Remove  (** Silently drop the subtree (schema should allow absence). *)
  | Replace of Atomic.t  (** Show a replacement value instead. *)

type resource_policy = {
  resource_label : string;
  resource_path : Qname.t list;
      (** Element path from the result root, e.g. [PROFILE/SSN]. *)
  allowed_roles : string list;
  on_deny : on_deny;
}

type t

val create : ?audit:Audit.t -> unit -> t

val restrict_function : t -> Qname.t -> roles:string list -> unit
(** Only users holding one of [roles] may call the function; unrestricted
    functions are callable by everyone. *)

val add_resource : t -> resource_policy -> unit

val check_call : t -> user -> Qname.t -> (unit, string) result

val filter_tokens :
  t -> user -> Aldsp_tokens.Token_stream.sink -> Aldsp_tokens.Token_stream.sink
(** [filter_tokens t user sink] is a sink that applies every
    element-level policy the user fails to the value delivered into it
    and passes what is left to [sink]'s tokens; items delivered into it
    are expanded into their tokens first. It tracks the names of the open
    elements; at a start tag whose path from the result root matches a
    failing policy (the first such, in the order the policies were
    added), a [Remove] policy skips the whole subtree and a [Replace]
    policy passes the start tag and its attributes, then the replacement
    atom in place of the content. Nothing inside a removed or replaced
    subtree is examined. Each firing records a ["security"] audit event:
    a replacement at its start tag, a removal once its subtree has ended,
    with the subtree's serialized bytes as the detail at
    {!Audit.Detailed}, in document order among the evaluation's own
    events. When no policy fails for the user, the result is [sink]
    itself, so an unrestricted delivery pays nothing and items reach it
    unexpanded. *)
