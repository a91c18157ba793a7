(** Network monitor: per-flow packet/byte accounting — the
    read-modify-write per-flow pattern. *)

open Gunfu

val spec : Spec.module_spec Lazy.t

type t = {
  name : string;
  classifier : Classifier.t;
  arena : Structures.State_arena.t;
  pkt_count : int array;
  byte_count : int array;
  mutable next_free : int;
      (** first unused counter slot (bump allocator; imports append here) *)
}

val state_bytes : int

val create :
  Memsim.Layout.t -> name:string -> ?arena:Structures.State_arena.t -> n_flows:int ->
  unit -> t

val populate : t -> Netcore.Flow.t array -> unit
val unit : t -> Nf_unit.t
val program : ?opts:Compiler.opts -> t -> Program.t

(** (packets, bytes) accounted for a flow index. *)
val stats : t -> int -> int * int
