(** NFEvents (§IV-A): the notifications control logic transitions on.
    System events originate outside the NF (packet arrival); user events
    are raised by NFActions (e.g. ["hash_done"]). *)

type t =
  | Packet_arrival  (** system event: a packet entered the function stream *)
  | Match_success
  | Match_fail
  | Emit_packet
  | Drop_packet
  | User of string  (** module-defined event *)
  | Faulted of string
      (** containment marker: the task was quarantined by the fault plane;
          carries the {!Fault.reason} wire name. Never fed to
          {!Program.step} — executors terminate faulted tasks directly. *)

(** Stable wire name, as used in specification transitions. *)
val to_key : t -> string

(** Total inverse of {!to_key}; unknown names become [User]. *)
val of_key : string -> t

val equal : t -> t -> bool
