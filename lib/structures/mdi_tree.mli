(** Multi-dimensional interval (MDI) tree — the sub-flow match structure
    (Fig 6(a)): maps a 5-tuple to a PDR.

    A balanced BST over the discriminating dimension (source port in the
    MGW workload); every node checks the remaining dimensions. Nodes occupy
    one cache line each, shuffled in simulated memory, so a lookup is a
    genuine pointer chase whose next address is only known after reading
    the parent — the access pattern behind Fig 2/10. *)

type range = { lo : int; hi : int }

(** @raise Invalid_argument when [lo > hi]. *)
val range : lo:int -> hi:int -> range

val full_range : range

type rule = {
  src_ip : range;
  src_port : range;
  dst_port : range;
  proto : range;
  value : int;
}

type key = { k_src_ip : int; k_src_port : int; k_dst_port : int; k_proto : int }

type t

val node_bytes : int

(** Build from rules disjoint along [src_port].
    @raise Invalid_argument on overlap or a negative rule value. *)
val create : Memsim.Layout.t -> label:string -> rules:rule list -> unit -> t

val size : t -> int
val depth : t -> int

(** Root node index; [-1] for an empty tree. *)
val root : t -> int

(** Simulated address of a node's cache line. *)
val node_addr : t -> int -> int

(** One node visit — the granular tree-walk action. The caller charges the
    read of [node_addr] before calling. Allocation-free, so the outcome is
    one int: the matched rule's value ([>= 0]), {!miss}, or a descent
    whose child {!descend_to} decodes. *)
val step :
  t -> node:int -> src_ip:int -> src_port:int -> dst_port:int -> proto:int -> int

(** [-1]: the walk ends without a match. *)
val miss : int

(** The child node a descending {!step} result ([<= -2]) names. *)
val descend_to : int -> int

(** Full walk; returns the matched value and the node path (root first). *)
val lookup_path : t -> key -> int option * int list

val lookup : t -> key -> int option

module Forest : sig
  (** Many members (sessions) sharing one rule shape, each with private
      node addresses: 130k sessions of PDR state without 16M OCaml
      records. *)
  type forest

  val create :
    Memsim.Layout.t -> label:string -> rules:rule list -> members:int -> unit -> forest

  val shape : forest -> t
  val members : forest -> int

  (** @raise Invalid_argument when [member] is out of range. *)
  val node_addr : forest -> member:int -> int -> int
end
