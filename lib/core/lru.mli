(** A string-keyed map that remembers use: at capacity, adding a new key
    evicts the least recently used entry. Recency is a monotonically
    increasing tick per touch: each entry carries its latest tick and a
    tick -> key map gives the victim, so a touch or an eviction is
    O(log n). Not synchronized: {!Plan_cache} and {!Function_cache} call
    it under their own locks. *)

type 'a t

val create : capacity:int -> 'a t
(** Holds at most [max capacity 1] entries. *)

val find : 'a t -> string -> 'a option
(** Refreshes the entry's recency on hit. *)

val add : 'a t -> string -> 'a -> bool
(** Inserts or replaces, as the most recently used entry. A new key at
    capacity first evicts the least recently used entry; the result says
    whether it did. *)

val remove_if : 'a t -> (string -> 'a -> bool) -> unit
(** Drops every entry the predicate holds for. *)

val length : 'a t -> int
