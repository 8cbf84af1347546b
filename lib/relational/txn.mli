(** Transactions and the XA-style two-phase commit used by submit.

    "In the event that all data sources are relational and can participate
    in a two-phase commit (XA) protocol, the entire submit is executed as an
    atomic transaction across the affected sources" (§6). The in-memory
    engine implements this with an undo log per participant: begin opens a
    {!Table.log} covering the database's tables, and every row the calling
    thread inserts, updates or deletes there is logged with its before
    image; prepare validates; commit discards the log; rollback replays it
    backwards. Begin and commit cost O(tables), rollback O(rows written),
    and a rollback leaves other sessions' committed writes in place. The
    coordinator drives the classic two phases and rolls everything back if
    any participant fails to prepare. *)

type txn

val begin_txn : Database.t -> txn
(** Opens an undo log over the database's tables on the calling thread:
    the writes that thread makes to them until commit or rollback are the
    transaction's. *)

val commit : txn -> unit
val rollback : txn -> unit

(** Two-phase-commit outcome for a multi-source unit of work. *)
type outcome = Committed | Rolled_back of string

val with_transaction :
  Database.t -> (unit -> ('a, string) result) -> ('a, string) result
(** Single-source convenience: commits on [Ok], rolls back on [Error]. *)

val two_phase_commit :
  participants:Database.t list ->
  work:(unit -> (unit, string) result) ->
  outcome
(** Runs [work] with all participants enlisted; on error every participant
    is rolled back, so partial updates never become visible (§6). *)
