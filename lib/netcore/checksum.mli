(** RFC 1071 Internet checksum and RFC 1624 incremental update. *)

(** Checksum of a byte range (with the checksum field zeroed by the
    caller). *)
val of_bytes : Bytes.t -> off:int -> len:int -> int

(** [update ~old_csum ~old_field ~new_field] recomputes a checksum after one
    16-bit field changed, without touching the rest of the data. *)
val update : old_csum:int -> old_field:int -> new_field:int -> int

(** [valid buf ~off ~len] checks a range that includes its checksum field. *)
val valid : Bytes.t -> off:int -> len:int -> bool
