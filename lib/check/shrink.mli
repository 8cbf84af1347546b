(** Greedy counterexample minimization.

    A failing scenario — catalog spec, runtime configuration, structured
    query — is reduced along all three axes: the query through
    {!Gen.shrink_candidates}, the catalog toward one customer and empty
    satellite tables, the configuration toward the reference knobs
    (one worker, [k = 1], no prefetch). Every candidate strictly
    decreases the scenario's size, so minimization terminates; a bound on
    re-checks keeps the worst case cheap. *)

type scenario = {
  spec : Catalog.spec;
  config : Oracle.config;
  query : Gen.query;
}

val minimize :
  ?max_checks:int -> fails:(scenario -> bool) -> scenario -> scenario * int
(** Greedy descent: repeatedly move to the first candidate that still
    fails. Returns the (locally) minimal scenario and the number of
    [fails] evaluations spent. [max_checks] defaults to 400. *)
