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
    shared across users, and the filter is applied to cache hits too. *)

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

val filter_result : t -> user -> Item.sequence -> Item.sequence
(** Applies every element-level policy the user fails: matching subtrees
    are removed or replaced. Applied after evaluation and after cache
    hits. *)

val restricts : t -> user -> bool
(** Whether any element-level policy fails for the user; when none does,
    {!filter_result} returns its input unchanged. *)

val policies : t -> resource_policy list
