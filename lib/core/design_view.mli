(** A textual rendering of a data service's design view (Figure 1).

    The graphical designer shows the data service's shape in the center,
    its read and navigation methods on the left, and the underlying data
    services it depends on on the right. This module produces the same
    information as text: the shape (from the registered schema, or
    reconstructed from the lineage provider's return type), the methods by
    kind with their signatures, and the dependencies discovered by
    scanning the function bodies for calls into other data services. *)

val render : Metadata.t -> string -> (string, string) result
(** [render registry name] renders the named data service's design view;
    fails when the service is unknown. *)
