(** Shared helpers for NFAction bodies: charging packet / per-flow /
    sub-flow accesses against the simulated hierarchy with the right state
    class. Reads of per-flow/sub-flow state return the match index they
    used. *)

open Gunfu

val packet_read : Exec_ctx.t -> Nftask.t -> bytes:int -> unit
val packet_write : Exec_ctx.t -> Nftask.t -> bytes:int -> unit

(** Read the match block ([Nftask.match_addr]) as match state; nothing
    when none is set. *)
val match_read : Exec_ctx.t -> Nftask.t -> unit

(** @raise Failure when no match result is present (a wiring bug). *)
val matched_exn : Nftask.t -> string -> int

val per_flow_read : Exec_ctx.t -> Nftask.t -> Structures.State_arena.t -> name:string -> int
val per_flow_write : Exec_ctx.t -> Nftask.t -> Structures.State_arena.t -> name:string -> int
val sub_flow_read : Exec_ctx.t -> Nftask.t -> Structures.State_arena.t -> name:string -> int
