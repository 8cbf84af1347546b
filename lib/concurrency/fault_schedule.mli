(** A scripted fault schedule for a simulated source, the substrate of
    the slow- and failing-source experiments (§5.4-5.6). A database holds
    one for its statements, a web service one for its calls: the [n]-th
    access after {!set} consumes the [n]-th event, and once the script is
    exhausted every access proceeds. The differential harness uses it to
    test fail-over, timeout and retry deterministically. *)

(** One scripted event: proceed normally, stall then proceed, fail at
    once, or stall then fail (a slow transport error). Stalls are in
    seconds. *)
type fault = Proceed | Delay of float | Fail | Fail_after of float

type t

val create : unit -> t

val set : t -> fault list -> unit
(** Replaces the script. *)

val remaining : t -> int
(** Events of the script not yet consumed. *)

val next_fails : t -> bool
(** Consumes the next event (none: proceed), sleeps its stall with
    {!Cancel.sleepf}, so a deadline interrupts it, and says whether the
    access fails. Consumption is atomic: pool workers share a source. *)
