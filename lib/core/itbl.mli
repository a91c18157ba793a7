(** Int-keyed hash tables with an identity hash — for dense int keys
    such as packet ids and flow ids. Iteration order differs from the
    polymorphic [Hashtbl]'s, so callers that fold must not depend on it. *)

include Hashtbl.S with type key = int
