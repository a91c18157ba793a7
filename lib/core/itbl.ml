(* Int-keyed hash tables with an identity hash. Packet ids and flow ids
   are dense small ints, so the key itself spreads them over the buckets;
   the functorized table also skips polymorphic hashing and compare. *)

include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x
end)
