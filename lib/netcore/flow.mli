(** Network flows: 5-tuples and 64-bit match keys. *)

type t = {
  src_ip : Ipv4.addr;
  dst_ip : Ipv4.addr;
  src_port : int;
  dst_port : int;
  proto : int;
}

val make :
  src_ip:Ipv4.addr -> dst_ip:Ipv4.addr -> src_port:int -> dst_port:int -> proto:int -> t

val equal : t -> t -> bool

(** Mixed 64-bit key used by the cuckoo flow tables. Equal flows yield equal
    keys; lookups additionally compare full tuples, so key collisions are
    harmless. *)
val key64 : t -> int64

(** [write_key64 t buf off] stores {!key64} as 8 little-endian bytes at
    [off] of [buf], allocating nothing (the classifier's key slot). *)
val write_key64 : t -> Bytes.t -> int -> unit

val pp : Format.formatter -> t -> unit
