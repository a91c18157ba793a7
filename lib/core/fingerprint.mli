(** Stable 64-bit digests of observable state (FNV-1a), used by the
    differential oracle to compare final NF state across executors without
    shipping the state itself. Callers must feed data in a canonical order
    (e.g. sort hash-table keys first) so equal state yields equal digests. *)

type t

val feed_int : t -> int -> unit
val feed_int64 : t -> int64 -> unit
val feed_bool : t -> bool -> unit

(** Strings/bytes are length-prefixed so concatenation ambiguity cannot
    produce colliding feeds. *)
val feed_string : t -> string -> unit

val feed_sub : t -> bytes -> off:int -> len:int -> unit
val feed_int_array : t -> int array -> unit
val feed_int64_array : t -> int64 array -> unit

(** [of_fn feed] runs [feed] on a fresh accumulator and returns the hex. *)
val of_fn : (t -> unit) -> string
