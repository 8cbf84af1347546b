(** Service Data Objects (§6, Figure 5).

    A data object wraps a business-object instance returned by a data
    service read method. Mutations through {!set_field} / {!remove_field}
    are tracked: the object keeps the new XML data plus a change log
    recording which portions changed and their previous values — exactly
    what a changed SDO sends back to ALDSP on submit. *)

open Aldsp_xml

type change = {
  change_path : Qname.t list;
      (** Element path from the object root, e.g. [PROFILE/LAST_NAME]. *)
  old_value : Atomic.t option;  (** [None]: the element was absent. *)
  new_value : Atomic.t option;  (** [None]: the element was removed. *)
}

(** Object life-cycle: read objects start [Unchanged] and move to
    [Modified] on the first field change; [Created] and [Deleted] objects
    propagate as INSERT and DELETE statements respectively. *)
type status = Unchanged | Modified | Created | Deleted

type t = {
  ds_function : Qname.t;
      (** The data service function this object was read from (its data
          service's lineage provider drives update propagation). *)
  original : Node.t;
  mutable current : Node.t;
  mutable change_log : change list;  (** Oldest first. *)
  mutable status : status;
}

val of_result : ds_function:Qname.t -> Node.t -> t

val create : ds_function:Qname.t -> Node.t -> t
(** A brand-new business object to be inserted on submit. *)

val mark_deleted : t -> unit
(** The object's rows are removed from the affected sources on submit. *)

val get_field : t -> Qname.t list -> Atomic.t option
(** Reads the typed value at a path of the current data. *)

val set_field : t -> Qname.t list -> Atomic.t -> (unit, string) result
(** Replaces the simple content of the element at the path, recording the
    change. Setting the same value is a no-op. *)

val remove_field : t -> Qname.t list -> (unit, string) result
(** Removes an (optional) element, recording the change. *)

val is_changed : t -> bool

val serialize_change_log : t -> string
(** The wire form of the change log: one [<change>] element per entry,
    with the path and the old and new values. *)
