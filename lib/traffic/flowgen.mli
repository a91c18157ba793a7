(** Synthetic flow universes and packet streams: a fixed population of
    distinct 5-tuples; packets sample a flow (uniform or Zipf) and a wire
    size, then materialise real header bytes. *)

type size_model =
  | Fixed of int
  | Mix of (int * int) list  (** (wire_bytes, weight) *)

(** The classic simple IMIX: 7:4:1 of 64/576/1500-byte frames. *)
val imix : size_model

val mean_size : size_model -> float

type popularity = Uniform | Zipf of float

type t

(** Deterministic per seed.
    @raise Invalid_argument when [n_flows <= 0], or when the size model has
    a non-positive size or weight or is an empty [Mix]. *)
val create :
  ?seed:int -> ?popularity:popularity -> ?size_model:size_model -> n_flows:int ->
  unit -> t

val n_flows : t -> int
val flows : t -> Netcore.Flow.t array
val flow : t -> int -> Netcore.Flow.t

(** A pull is two draws, in this order: {!next_idx} samples a flow's
    universe index, then {!packet} builds that flow's packet (drawing its
    wire size). No pair is built. *)
val next_idx : t -> int

(** Flow [i]'s packet as a work item's option: with [arena], the recycled
    slot's stored [Some] ({!Netcore.Packet.make_some}). *)
val packet : ?arena:Netcore.Packet.Arena.t -> t -> int -> Netcore.Packet.t option

(** One pull's packet, fresh: {!next_idx} then {!packet}. *)
val next : t -> Netcore.Packet.t

(** Pre-generate an RX burst. *)
val batch : t -> int -> Netcore.Packet.t array

(** Deterministic seeded alpha sweep over ONE shared flow universe: the
    population (and its rank shuffle) is built once — million-flow
    capable — and each alpha gets its own generator with an
    independently seeded rng, so sweep points differ only in skew.
    [0.] is uniform.
    @raise Invalid_argument when [n_flows <= 0], an alpha is negative,
    or the size model is rejected as by {!create}. *)
val alpha_sweep :
  ?seed:int -> ?size_model:size_model -> n_flows:int -> float list ->
  (float * t) list
