(** Zipf(s) sampler over ranks [0 .. n-1] (rank 0 most popular), via
    inverse-CDF binary search on a precomputed table. *)

type t

(** @raise Invalid_argument when [n <= 0] or [s < 0]. [s = 0] is uniform. *)
val create : n:int -> s:float -> t

(** Sample a rank. *)
val sample : t -> Memsim.Rng.t -> int

(** Probability mass of rank [i]. *)
val pmf : t -> int -> float
