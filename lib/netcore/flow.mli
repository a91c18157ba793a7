(** Network flows: 5-tuples, 64-bit match keys, RSS steering. *)

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

(** Swap endpoints (the reverse direction of a bidirectional flow). *)
val reverse : t -> t

(** Mixed 64-bit key used by the cuckoo flow tables. Equal flows yield equal
    keys; lookups additionally compare full tuples, so key collisions are
    harmless. *)
val key64 : t -> int64

(** RSS: deterministic queue in [\[0, cores)].
    @raise Invalid_argument when [cores <= 0]. *)
val rss : t -> cores:int -> int

val pp : Format.formatter -> t -> unit
