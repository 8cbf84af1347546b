(** The fuzzing harness: seeded scenario generation, oracle comparison,
    fault scenarios, shrinking, and the counterexample/corpus text
    format.

    Determinism contract: every scenario derives all randomness from
    [Random.State.make [| seed; index |]], and a catalog is rebuilt from
    its recorded spec alone, so [run ~seed] is fully reproducible and a
    single scenario replays standalone from its [(seed, index)] pair or
    from its printed counterexample. *)

type kind = K_oracle | K_fault | K_mutation | K_concurrent

type counterexample = {
  cx_seed : int;
  cx_index : int;
  cx_kind : kind;
  cx_scenario : Shrink.scenario;  (** Already shrunk for oracle/mutation. *)
  cx_report : string;  (** Human-readable description of the failure. *)
  cx_shrink_checks : int;  (** Re-checks the shrinker spent. *)
}

val check : ?mutate:bool -> Shrink.scenario -> string option
(** Builds the catalog and compares reference vs subject on the rendered
    query; [Some report] on disagreement. [mutate] plants the
    dropped-Where bug into the subject (see {!Oracle.run_mutated}). *)

val scenario_of : seed:int -> index:int -> Shrink.scenario
(** The deterministic scenario for this seed/index pair. *)

val run :
  ?mutate:bool ->
  ?with_faults:bool ->
  ?log:(string -> unit) ->
  seed:int ->
  count:int ->
  unit ->
  (int, counterexample) result
(** [count] scenarios from [seed]: oracle comparisons, with every fifth
    index additionally running a randomized fault scenario when
    [with_faults] (default true). Stops at the first failure, shrunk.
    [Ok n] is the number of scenarios that ran. *)

val concurrent_queries :
  seed:int -> index:int -> count:int -> Shrink.scenario -> string list
(** The deterministic [count]-query corpus a concurrent scenario replays:
    the scenario's own query plus more from a sibling RNG stream. *)

val run_concurrent :
  ?sessions:int ->
  ?queries:int ->
  ?log:(string -> unit) ->
  seed:int ->
  count:int ->
  unit ->
  (int, counterexample) result
(** [count] concurrent scenarios from [seed]: each builds the
    deterministic catalog/config for its index, derives a [queries]-query
    corpus (the scenario's own query plus more from a sibling RNG
    stream), and runs {!Oracle.compare_concurrent} with [sessions]
    (default 16) session threads against one shared subject server.
    Failures are reported unshrunk ([K_concurrent]): an interleaving
    property of the whole list would not survive single-query
    shrinking. *)

val cx_to_string : counterexample -> string
(** The corpus text format: [kind:]/[seed:]/[index:]/[spec:]/[config:]/
    [query:] lines followed by the report as [#] comments. *)

type corpus_entry = {
  ce_spec : Catalog.spec;
  ce_config : Oracle.config;
  ce_query : string;  (** Raw text: replay does not need the structured form. *)
  ce_rating_faults : Aldsp_concurrency.Fault_schedule.fault list;
      (** From an optional [rating-faults:] line of space-separated
          per-call events, [ok] or [fail]; empty without one.
          Passed to {!Oracle.compare_query}'s [rating_faults]. *)
}

val corpus_entry_of_string : string -> (corpus_entry, string) result
(** Parses a corpus entry: the spec, config and query lines and the
    optional rating-faults line. [#] comment lines and
    [kind:]/[seed:]/[index:] lines are ignored. *)

val replay_corpus : string -> (unit, string) result
(** Replays one corpus entry's spec/config/query through the oracle
    comparison; [Error] if the entry (a previously shrunk
    counterexample) disagrees again. *)
