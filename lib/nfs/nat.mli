(** Network address translator (Fig 6(e)): flow classifier + flow mapper.
    The mapper NFAction is written in NF-C (Listings 2/4) and rewrites the
    source IP/port from the per-flow mapping on the real header bytes, with
    incremental checksum update. *)

open Gunfu

val mapper_spec : Spec.module_spec Lazy.t
val learner_spec : Spec.module_spec Lazy.t

type t = {
  name : string;
  classifier : Classifier.t;
  arena : Structures.State_arena.t;
  map_ip : Netcore.Ipv4.addr array;  (** translated source per flow *)
  map_port : int array;
  allocator_sref : Sref.t;  (** the dynamic learner's control state *)
  mutable next_free : int;
  mutable learned : int;  (** mappings created by the miss path *)
  keys : int64 array;  (** installed flow key per slot; 0 = slot unused *)
  last_seen : int array;  (** cycle of the slot's last data-path use *)
  mutable free_slots : int list;  (** recycled by {!expire} *)
  overflow : Structures.Cuckoo.overflow_policy;
      (** how the learner resolves match-table overflow *)
}

val state_bytes : int

(** [?arena] substitutes a packed-group view for the private arena.
    [?overflow] (default [Drop_new]) picks the learner's policy when the
    match table rejects an insert: drop the new flow's packet, evict the
    stalest resident (its mapping slot is recycled), or shed the flow with
    a contained [Fault.Fault (Table_overflow, _)]. *)
val create :
  Memsim.Layout.t -> name:string -> ?arena:Structures.State_arena.t ->
  ?overflow:Structures.Cuckoo.overflow_policy -> n_flows:int -> unit -> t

(** Install mappings (public address pool + sequential ports) and populate
    the classifier. *)
val populate : t -> Netcore.Flow.t array -> unit

val unit : t -> Nf_unit.t

(** NAT with the miss path wired to a learner that allocates a mapping and
    installs the match-state entry at runtime (a config action); packets of
    unknown flows are translated, not dropped. Per-flow ordering in the
    scheduler guarantees single allocation per flow. *)
val dynamic_unit : t -> Nf_unit.t

val program : ?opts:Compiler.opts -> t -> Program.t
val dynamic_program : ?opts:Compiler.opts -> t -> Program.t

(** Idle-timeout sweep: evict mappings unused for [idle_cycles], recycling
    their slots; returns the number expired. *)
val expire : t -> now:int -> idle_cycles:int -> int
