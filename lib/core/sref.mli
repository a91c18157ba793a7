(** Resolved NFState references (§IV-A): a region of the simulated address
    space tagged with its state class. NFActions reach all state through
    references held in their NFTask — the isolation boundary of the
    programming model. *)

type state_class =
  | Match_state  (** flow-classification structures (hash tables, trees) *)
  | Per_flow
  | Sub_flow  (** e.g. PDRs within a PFCP session *)
  | Packet_state
  | Control_state  (** per-NF-instance, shared across flows *)
  | Temp_state  (** per-packet intermediates *)

val class_name : state_class -> string

type t = { cls : state_class; addr : int; bytes : int }

(** @raise Invalid_argument on negative size. *)
val make : cls:state_class -> addr:int -> bytes:int -> t

val pp : Format.formatter -> t -> unit
