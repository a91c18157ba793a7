(** Deterministic splitmix64 pseudo-random number generator.

    Every stochastic component of the simulator threads one of these values
    explicitly so that workloads and experiments are reproducible. *)

type t

(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)
val create : int -> t

(** [bits t] is a non-negative 62-bit integer. *)
val bits : t -> int

(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument] if
    [bound <= 0]. *)
val int : t -> int -> int

(** [int_in_range t ~lo ~hi] is uniform in [\[lo, hi\]] (inclusive). *)
val int_in_range : t -> lo:int -> hi:int -> int

(** [float t bound] is uniform in [\[0, bound)]. *)
val float : t -> float -> float

val bool : t -> bool

(** In-place Fisher-Yates shuffle. *)
val shuffle : t -> 'a array -> unit
