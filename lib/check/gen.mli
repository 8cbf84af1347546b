(** Seeded random generation of core XQuery expressions over a
    {!Catalog.t}, in a structured form the shrinker can reduce.

    The shapes mirror what the paper's processor must keep invariant
    under optimization: FLWORs over relational, CSV and web-service
    sources, nested element construction, the [fn-bea:] adaptors of
    §5.4–5.6, order-by, FLWGOR group-by and quantified predicates. Every
    query renders to deterministic text: service calls hit the pure
    rating service, timeouts use generous budgets, and group-by is always
    paired with an order on its key, so the reference and optimized
    pipelines must agree byte-for-byte. *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

(** Predicate over [$c] bound to CUSTOMER rows. *)
type pred =
  | P_true  (** no [where] clause; the shrinker's floor *)
  | P_str of string * cmp * string  (** string field vs quoted literal *)
  | P_since of cmp * int
  | P_some_order  (** [some $q in ORDER_T() satisfies ...] *)
  | P_exists_order  (** [fn:exists(for $q in ORDER_T() ...)] *)
  | P_and of pred * pred
  | P_or of pred * pred

type adaptor =
  | A_plain
  | A_failover  (** [fn-bea:fail-over(rating, -1)] *)
  | A_timeout  (** [fn-bea:timeout(rating, 60000, -1)]: generous budget *)

(** Return expression of a CUSTOMER scan. *)
type ret =
  | R_last_name
  | R_cid
  | R_pair
  | R_orders  (** nested construction over the customer's orders *)
  | R_count
  | R_attrs
      (** computed attributes: one atom, two atoms joined with a space,
          and an optional one that a NULL FIRST_NAME drops *)
  | R_optional  (** [<F?>] over FIRST_NAME: absent when it is NULL *)
  | R_rating of adaptor  (** calls the rating web service per row *)

type order = O_none | O_cid | O_last_desc | O_since_desc

type query =
  | Scan of { pred : pred; order : order; ret : ret }
  | Join_orders of { field : string; cmp : cmp; lit : string }
      (** same-database join CUSTOMER ⋈ ORDER_T *)
  | Join_cards of { limit_filter : bool; whole_card : bool }
      (** cross-database join CUSTOMER ⋈ CREDIT_CARD — the PP-k shape;
          [whole_card] returns the whole card element, so the right
          side's row reconstruction stays live (a field-only return lets
          the optimizer drop it and prune the unread columns) *)
  | Group_by of { key : string }  (** FLWGOR, ordered by its key *)
  | View_filter of { field : string; cmp : cmp; lit : string }
      (** predicate over the [getSummary()] data-service view *)
  | Subseq of { order : order; start : int; len : int }
  | Aggregate of { pred : pred }  (** nested [sum] per customer *)
  | Region_scan of { min_pop : int }  (** the CSV source *)
  | Async_lets of { n : int }
      (** [n] independent [fn-bea:async] rating lets (§5.4) *)
  | By_id of { lit : string }
      (** [getSummaryByID("lit")]: a data-service call with a literal
          argument, which the plan cache lifts into a bound parameter *)

val generate : Random.State.t -> query

val render : query -> string
(** Deterministic XQuery text; equal queries render equally. *)

val swap_literal : query -> query option
(** The same call shape with a different literal from the generator's
    string literals, for a scenario whose literal the plan cache lifts
    ([By_id]); [None] for every other scenario. *)

val size : query -> int
(** Rendered length; {!shrink_candidates} only proposes smaller sizes. *)

val shrink_candidates : query -> query list
(** Strictly smaller variants to try when this query's scenario fails,
    ordered most-aggressive first. Empty when already minimal. *)
