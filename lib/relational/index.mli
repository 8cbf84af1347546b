(** Hash indexes over table rows.

    An index maps a normalized key — the tuple of a row's values at the
    indexed columns — to the ids of the rows carrying that key, in
    ascending (insertion) order. Normalization follows
    {!Sql_value.compare_sql}: all numeric types collapse to their float
    image (so [Int 1] and [Float 1.0] share a bucket), [-0.]/NaN are
    canonicalized, and strings/booleans/NULL keep their own key space.
    Because normalization can identify values the exact SQL comparison
    distinguishes (two huge ints with one float image), a probe returns
    {e candidates}: callers re-verify with the real predicate, so false
    positives are harmless and false negatives impossible.

    The module is storage-agnostic — it never touches {!Table.t} — so the
    table layer owns index registration and maintenance. *)

type t

type key
(** A normalized key tuple. *)

val create :
  ?unique:bool ->
  name:string ->
  cols:string list ->
  positions:int array ->
  unit ->
  t
(** [cols] are the indexed column names and [positions] their offsets in a
    row, in key order. [unique] is informational (primary keys). *)

val name : t -> string
val columns : t -> string list
val positions : t -> int array
val unique : t -> bool

val distinct_keys : t -> int
(** Number of distinct keys with at least one live entry — the exact
    number-of-distinct-values statistic for the indexed column tuple,
    maintained incrementally (a delete that empties a bucket drops it).
    Distinct values that share a normalized key (two huge ints with one
    float image) count once, so this is an NDV {e estimate} in the same
    sense a probe is a candidate generator. *)

val numeric_range : t -> (float * float) option
(** [Some (min, max)] over the normalized numeric key values of a
    single-column numeric index; [None] for multi-column indexes,
    non-numeric keys, or an empty index. Widened incrementally on insert;
    a delete at an endpoint triggers a lazy O(distinct keys) recompute on
    the next call. NaN keys are excluded. *)

val add : t -> int -> Sql_value.t array -> unit
(** [add t id row] indexes [row] (a full table row) under its key. *)

val remove : t -> int -> Sql_value.t array -> unit
(** Removes the entry for [id]; [row] must be the indexed row value. *)

val same_key : t -> Sql_value.t array -> Sql_value.t array -> bool
(** Whether two full table rows normalize to the same key: an update
    between them leaves this index as it is. *)

val probe : t -> Sql_value.t array -> int list
(** Candidate row ids whose key may SQL-equal the given values (in index
    column order), ascending. A NULL probe value matches nothing
    (three-valued equality can never be True against NULL). *)

val probe_many : t -> Sql_value.t array list -> int array
(** The distinct candidate ids of all the probe tuples, ascending: what
    {!probe} returns for each tuple, merged. *)

val probe_grouping : t -> Sql_value.t array -> int list
(** Like {!probe} but with grouping equality: NULL matches NULL. Used for
    primary-key uniqueness, which treats NULL keys as comparable. *)

val canon_float : float -> float
(** The float image every numeric key normalizes through: one NaN, and
    [-0.] folded into [0.], so equal numbers hash alike. *)

val key_of_values : Sql_value.t array -> key
(** Normalizes a value tuple; exposed so the executor's hash join can
    reuse the same key semantics for its build/probe tables. *)

val hash_value : Sql_value.t -> int
(** The hash of one value's normalized key part: values that compare
    equal under {!Sql_value.compare_sql} hash alike. *)

(** The hashtable functor instance over normalized keys, for hash joins. *)
module Key_tbl : Hashtbl.S with type key = key
