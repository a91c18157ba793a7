(** Prefetch policy (§V "Cache Management"): symbolic targets attached by
    the compiler to every control state, resolved at the scheduler's Fetch
    step — via the NFTask's references — into concrete (address, size)
    blocks for the software prefetcher.

    Targets are symbolic so the redundant-prefetch-removal pass can compare
    them across control states. *)

type target =
  | Packet_header of int  (** first [n] bytes of the packet buffer *)
  | Match_addrs  (** whatever the previous match step resolved *)
  | Per_flow of Structures.State_arena.t * (string * int) list
      (** this module's per-flow entry at [task.matched]; a non-empty
          [(field, bytes)] list selects slices only *)
  | Sub_flow of Structures.State_arena.t * (string * int) list
      (** as [Per_flow], at [task.sub_matched] *)
  | Fixed of Sref.t  (** a fixed region, e.g. control state *)

val class_of : target -> [ `Packet | `Match_addrs | `Per_flow | `Sub_flow | `Fixed ]

(** Structural equality (arenas by label). *)
val equal_target : target -> target -> bool

(** [resolve targets task ~at] writes the blocks of [targets], in order,
    into [task]'s block array from block [at] on ({!Nftask.set_block}) and
    returns the index past the last one. Unresolvable targets (no match
    yet, no packet) write nothing — the action will simply demand-fetch. *)
val resolve : target list -> Nftask.t -> at:int -> int

val pp_target : Format.formatter -> target -> unit
