(* A transaction is the undo log of its thread's writes to the
   database's tables: commit drops it, rollback replays it. *)
type txn = Table.log

let begin_txn db =
  Table.open_log
    (Hashtbl.fold (fun _ table acc -> table :: acc) db.Database.tables [])

let commit = Table.close_log
let rollback = Table.undo_log

type outcome = Committed | Rolled_back of string

let with_transaction db work =
  let txn = begin_txn db in
  match work () with
  | Ok _ as ok ->
    commit txn;
    ok
  | Error _ as err ->
    rollback txn;
    err
  | exception exn ->
    rollback txn;
    raise exn

let two_phase_commit ~participants ~work =
  let txns = List.map begin_txn participants in
  match work () with
  | Ok () ->
    (* Phase 1 (prepare) always succeeds for in-memory participants whose
       constraints were enforced during the work; phase 2 commits. *)
    List.iter commit txns;
    Committed
  | Error msg ->
    List.iter rollback txns;
    Rolled_back msg
  | exception exn ->
    List.iter rollback txns;
    raise exn
