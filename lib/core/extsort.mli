(** Bounded-memory external merge sort (ROADMAP item: spill-to-disk for
    unclustered group-by and sort).

    The blocking operators of the executor — ORDER BY and the unclustered
    GROUP BY fallback — route their input through {!sort}. With no budget
    the sort is the familiar in-memory {!List.stable_sort} (byte-identical
    behaviour, zero I/O, zero extra allocation). With a budget of [n]
    rows, input is accumulated [n] rows at a time; each full run is
    stable-sorted in memory and spilled to a temp file as Marshal-framed
    chunks, and the run files are merged back lazily as a ['a Seq.t], so
    downstream operators keep streaming while peak resident rows stay
    bounded by the budget.

    Properties the executor relies on:
    - {b Stability}: equal elements come out in input order, whatever mix
      of in-memory runs, spills and merge passes produced them. Runs are
      stable-sorted, and every merge breaks ties toward the
      earlier-numbered run.
    - {b Bounded fan-in}: a merge reads at most [max_fanin] runs at once
      (intermediate passes re-spill), so file descriptors and resident
      merge frames stay bounded however many runs the input produced.
    - {b Cancellation}: spill writes, merge reads and every produced
      element poll the ambient {!Cancel} token; a cancelled sort removes
      its temp files before re-raising.
    - {b Cleanup}: the per-sort temp directory is removed when the output
      sequence is exhausted, and on any exception (including
      [Cancel.Cancelled]) raised while producing it.

    The output sequence of a spilled sort reads from files and is
    single-consumption; the executor wraps each sort in a fresh pipeline
    so this never observable. Elements must be marshalable (no closures —
    the executor forces [Later] bindings to values before sorting). *)

(** Live accounting for one sort, updated as the sort runs. All zero when
    the input fit in the budget (or no budget was set). *)
type stats = {
  mutable runs_spilled : int;  (** Run files written, all passes. *)
  mutable rows_spilled : int;  (** Rows written to disk, all passes. *)
  mutable bytes_spilled : int;  (** Marshal frame bytes written. *)
  mutable merge_fanin : int;  (** Fan-in of the widest merge performed. *)
  mutable peak_resident : int;
      (** Peak rows held in memory at once: the run accumulator while
          spilling, loaded merge frames while merging. *)
}

val zero_stats : unit -> stats

val sort :
  ?stats:stats ->
  ?temp_dir:string ->
  ?max_fanin:int ->
  budget_rows:int option ->
  cmp:('a -> 'a -> int) ->
  'a Seq.t ->
  'a Seq.t
(** [sort ~budget_rows ~cmp input] sorts [input] stably under [cmp].
    [budget_rows = None] (or a budget the input never exceeds) is a plain
    in-memory stable sort. Otherwise runs of [budget_rows] rows spill to
    fresh files under [temp_dir] (default: the system temp dir) and merge
    back lazily. The sort is lazy either way: nothing is consumed, sorted
    or spilled until the first element of the result is forced. *)

(** / *)

(** Run-file framing, exposed for tests and tooling: a run file is a
    sequence of Marshal frames, each an ['a array] chunk of at most
    [chunk_rows] elements, in run order. *)

val write_run_file : chunk_rows:int -> string -> 'a array -> int
(** Writes one sorted run to [path]; returns bytes written. Polls the
    ambient cancel token between frames. *)

val read_run_file : string -> 'a list
(** Reads a whole run file back (test helper; the merge itself streams
    frame by frame). *)
