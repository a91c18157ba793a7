(** NFActions (§IV-A): event handlers classified by the state they touch.
    A body performs real packet/table logic on the OCaml side and charges
    its memory traffic to the execution context. *)

type kind = Match_action | Data_action | Config_action

(** Prefetchable resources an action redefines — the kill set of the
    redundant-prefetch-removal pass (§VI-B). *)
type resource = [ `Match_addrs | `Per_flow | `Sub_flow | `Packet ]

type t = {
  name : string;
  kind : kind;
  base_cycles : int;  (** compute cost excluding memory-hierarchy time *)
  base_instrs : int;
  invalidates : resource list;
  body : Exec_ctx.t -> Nftask.t -> Event.t;
}

val make :
  ?kind:kind -> ?base_cycles:int -> ?base_instrs:int -> ?invalidates:resource list ->
  name:string -> (Exec_ctx.t -> Nftask.t -> Event.t) -> t

(** Run the action, charging its base computation first. *)
val execute : t -> Exec_ctx.t -> Nftask.t -> Event.t
