(** Minimal UDP and TCP header handling — enough for stateful NFs that
    match and rewrite ports. *)

val udp_header_bytes : int
val tcp_header_bytes : int

type udp = { src_port : int; dst_port : int; length : int }

type tcp_flags = { syn : bool; ack : bool; fin : bool; rst : bool }

type tcp = {
  src_port : int;
  dst_port : int;
  seq : int32;
  ack_seq : int32;
  flags : tcp_flags;
  window : int;
}

(** Encode a UDP header from its fields (zero checksum). Allocates
    nothing. *)
val encode_udp_fields :
  Bytes.t -> off:int -> src_port:int -> dst_port:int -> length:int -> unit

(** {!encode_udp_fields} of a record. *)
val encode_udp : udp -> Bytes.t -> off:int -> unit

val decode_udp : Bytes.t -> off:int -> udp

(** Encode a 20-byte TCP header (no options, zero checksum) from its
    fields. Allocates nothing. *)
val encode_tcp_fields :
  Bytes.t -> off:int -> src_port:int -> dst_port:int -> seq:int32 -> ack_seq:int32 ->
  flags:tcp_flags -> window:int -> unit

(** {!encode_tcp_fields} of a record. *)
val encode_tcp : tcp -> Bytes.t -> off:int -> unit

val decode_tcp : Bytes.t -> off:int -> tcp

(** Total decodes with bounds checks: a truncated transport header is a
    typed error, never an out-of-bounds exception. *)
val decode_udp_result : Bytes.t -> off:int -> (udp, string) result

val decode_tcp_result : Bytes.t -> off:int -> (tcp, string) result

(** Port rewrites/reads valid for both UDP and TCP (same offsets). *)
val rewrite_src_port : Bytes.t -> off:int -> port:int -> unit
val src_port : Bytes.t -> off:int -> int
val dst_port : Bytes.t -> off:int -> int
