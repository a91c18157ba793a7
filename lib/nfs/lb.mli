(** Stateful L4 load balancer: Maglev consistent hashing assigns each new
    flow a backend; the per-flow state pins it there, and the data action
    rewrites the destination address. *)

open Gunfu

val spec : Spec.module_spec Lazy.t

type t = {
  name : string;
  classifier : Classifier.t;
  arena : Structures.State_arena.t;
  backends : Netcore.Ipv4.addr array;
  maglev : Structures.Maglev.t;
  assignment : int array;  (** flow index -> backend index *)
  mutable next_free : int;
      (** first unused assignment slot (bump allocator; imports append
          here) *)
}

val state_bytes : int

val create :
  Memsim.Layout.t -> name:string -> ?arena:Structures.State_arena.t ->
  n_flows:int -> unit -> t

val populate : t -> Netcore.Flow.t array -> unit

(** Backend address a flow index is pinned to. *)
val backend_of : t -> int -> Netcore.Ipv4.addr

val unit : t -> Nf_unit.t
val program : ?opts:Compiler.opts -> t -> Program.t
