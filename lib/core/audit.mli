(** Auditing (§7).

    "The ALDSP runtime has a fairly extensive set of auditing capabilities
    that utilize an auditing security service. Auditing can be
    administratively enabled in order to monitor security decisions, data
    values, and other operational behavior at varying levels of detail." *)

type level = Off | Summary | Detailed

type event = {
  category : string;  (** e.g. "security", "service-call", "update" *)
  summary : string;
  detail : string option;  (** Only recorded at [Detailed] level. *)
}

type t

val create : ?level:level -> unit -> t
val level : t -> level

val record : t -> category:string -> ?detail:string -> string -> unit
(** No-op at [Off]; drops [detail] at [Summary]. *)

val events : t -> event list
(** Oldest first. *)
