(** IPv4 header encode/decode (no options) with real checksum handling,
    including the incremental rewrites NAT-style functions perform. *)

(** Address in network byte order. *)
type addr = int32

val header_bytes : int
val proto_icmp : int
val proto_tcp : int
val proto_udp : int

type t = {
  src : addr;
  dst : addr;
  proto : int;
  ttl : int;
  total_len : int;
  ident : int;
  dscp : int;
}

val make :
  ?ttl:int -> ?ident:int -> ?dscp:int -> src:addr -> dst:addr -> proto:int ->
  total_len:int -> unit -> t

(** Parse dotted-quad notation. @raise Invalid_argument on malformed input. *)
val addr_of_string : string -> addr

val addr_to_string : addr -> string

(** Encode at [off] from the header's fields, computing the header
    checksum. Allocates nothing. *)
val encode_fields :
  Bytes.t -> off:int -> src:addr -> dst:addr -> proto:int -> ttl:int -> total_len:int ->
  ident:int -> dscp:int -> unit

(** {!encode_fields} of a record. *)
val encode : t -> Bytes.t -> off:int -> unit

(** Total decode: truncation and a non-4 version nibble are typed errors,
    never exceptions. *)
val decode_result : Bytes.t -> off:int -> (t, string) result

(** @raise Invalid_argument if the version nibble is not 4. *)
val decode : Bytes.t -> off:int -> t

(** Verify the header checksum of an encoded header. *)
val header_valid : Bytes.t -> off:int -> bool

(** In-place source/destination rewrite with RFC 1624 incremental checksum
    update — the NAT/LB fast path. The source is the low 32 bits of an
    [int], so the NAT mapper, whose NF-C values are ints, boxes no
    [int32]. *)
val rewrite_src : Bytes.t -> off:int -> src:int -> unit

val rewrite_dst : Bytes.t -> off:int -> dst:addr -> unit
