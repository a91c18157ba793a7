(** Ethernet II framing: MAC addresses and the 14-byte header. *)

(** A MAC address in the low 48 bits. *)
type mac = int

val header_bytes : int
val ethertype_ipv4 : int

type t = { dst : mac; src : mac; ethertype : int }

(** Encode the header at [off] (14 bytes) from its fields. *)
val encode_fields : Bytes.t -> off:int -> dst:mac -> src:mac -> ethertype:int -> unit

(** {!encode_fields} of a record. *)
val encode : t -> Bytes.t -> off:int -> unit

val decode : Bytes.t -> off:int -> t
