(** CAIDA-like synthetic traces (see DESIGN.md's substitution table): real
    CAIDA captures cannot ship, so this reproduces the two properties the
    experiments depend on — heavy-tailed (Zipf ~1.1) flow popularity and a
    backbone-like packet-size mix. *)

val size_model : Flowgen.size_model
val mean_wire_bytes : float

val create : ?seed:int -> n_flows:int -> unit -> Flowgen.t
