(** GTP-U (user-plane GPRS tunnelling): the 8-byte mandatory header the UPF
    puts between core network and RAN. *)

val header_bytes : int

(** Well-known UDP port 2152. *)
val udp_port : int

val msg_gpdu : int

type t = { msg_type : int; length : int; teid : int32 }

val make : ?msg_type:int -> teid:int32 -> length:int -> unit -> t

(** Encode the header from its fields. Allocates nothing. *)
val encode_fields : Bytes.t -> off:int -> msg_type:int -> length:int -> teid:int32 -> unit

(** {!encode_fields} of a record. *)
val encode : t -> Bytes.t -> off:int -> unit

(** @raise Invalid_argument on an unsupported version nibble. *)
val decode : Bytes.t -> off:int -> t

(** Bytes a GTP-U tunnel adds to an inner IP packet (outer IPv4 + UDP +
    GTP-U). *)
val encap_overhead : int
