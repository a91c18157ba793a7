(** Maglev consistent hashing (Eisenbud et al., NSDI'16): the connection
    scheduler used by the stateful load balancer. Near-perfect balance and
    minimal disruption under backend-set changes. *)

type t

(** @raise Invalid_argument unless [table_size] is prime, positive and at
    least [n_backends]. *)
val build : ?table_size:int -> n_backends:int -> unit -> t

val table_size : t -> int

(** Backend index for a 64-bit flow key. *)
val lookup : t -> int64 -> int

(** Per-backend fraction of table slots (balance diagnostics). *)
val shares : t -> float array

(** Fraction of slots mapping to a different backend in the other table —
    the disruption metric Maglev minimises.
    @raise Invalid_argument for different table sizes. *)
val disruption : t -> t -> float
