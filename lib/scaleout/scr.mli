(** State-Compute Replication executor family (Xu et al., arXiv
    2309.14647): every core holds a full per-flow state replica, packets
    are sprayed with no flow affinity, and completions broadcast compact
    absolute state-update records ({!Update_log}) that peers apply lazily,
    coalesced, in per-flow sequence order. A quiescent barrier ends every
    run and proves replica convergence. The engine is an
    {!Gunfu.Exec.flow_free} executor — rtc or batch-N, by type: executors
    that hold in-flight flows across pulls, like the rr/rf schedulers,
    would deadlock on cross-core sequence chains. *)

open Gunfu

(** One core's full replica: the program built on that core's layout with
    the whole universe populated, plus single-flow export (the update
    payload), update application (upsert through the Migration apply
    surface), commutative counters (summed at digest time), and a
    location-independent per-flow digest. *)
type replica = {
  sc_worker : Worker.t;
  sc_program : Program.t;
  sc_pool : Netcore.Packet.Pool.pool;
  sc_export : int -> (string * string) list;
  sc_apply : Update_log.record -> unit;
  sc_counters : unit -> (string * int) list;
  sc_flow_digest : Fingerprint.t -> int -> unit;
}

type stats = {
  st_records : int;  (** update records emitted *)
  st_applied : int;  (** records applied on peers, barrier included *)
  st_coalesced : int;  (** superseded in a pending set before applying *)
  st_stale : int;  (** offered but already superseded by local state *)
  st_max_lag : int;  (** largest sequence gap bridged by one apply *)
  st_barrier_applied : int;  (** applies performed by the final barrier *)
  st_windows : int;  (** execution windows across all cores *)
}

type result = {
  sr_runs : Metrics.run array;
      (** per core, from one {!Exec.session} per replica that every
          window feeds, so the bracket spans the applies between windows;
          no latency summary (pool samples through [on_complete]); it
          closes before the quiescent barrier — the barrier proves
          convergence, it is not data-path work (its applies still count
          in {!stats}) *)
  sr_merged : Metrics.run;  (** {!Metrics.merge_parallel} of the above *)
  sr_stats : stats;
  sr_planes : Fault.t array;
  sr_logs : Update_log.t array;  (** per-core emitted-record counts *)
  sr_replica_digests : string array;
      (** post-barrier whole-universe digests, per replica *)
  sr_converged : bool;  (** all replica digests pairwise equal *)
  sr_state_digest : string;
      (** per-flow state + containment from replica 0, commutative
          counters summed — comparable with an RSS/rtc reference *)
}

(** Drive [items] (the global arrival stream) through [replicas] under the
    spray in [slots] ({!Spray.assign} on the same items). [universe] bounds
    flow hints and sizes only the digests: per-run tables are sized by
    the distinct flows of [items]. [arm] is called at each delivery with the item's global
    index to arm fault injections spray-independently; [on_complete] sees
    every completion with its global index and per-flow sequence. Each
    delivery is a copy of the item's packet in the replica's ring of one
    record per window slot (1 under rtc, [b] under batch-[b]), so the
    packet [arm] and [on_complete] see is overwritten by a later
    delivery: keep what it says, not the packet. Each
    applied update costs 8 simulated cycles and 6 instructions. [digest] (default [true]) computes the post-barrier
    replica digests and global state digest; pass [false] in benches
    over huge universes, where the O(universe x cores) convergence proof
    would dwarf the measured work ([sr_replica_digests] is then empty,
    [sr_converged] is [false] and [sr_state_digest] is [""]).
    @raise Invalid_argument on empty replicas, slot/item length mismatch,
    a non-positive batch, a flow hint at or above [universe] (before any
    work), or a spray whose sequence numbers cannot be scheduled. *)
val run :
  ?arm:(plane:Fault.t -> g:int -> Netcore.Packet.t -> unit) ->
  ?on_complete:(core:int -> g:int -> seq:int -> Nftask.t -> unit) ->
  ?digest:bool ->
  engine:Exec.flow_free ->
  replicas:replica array ->
  slots:Spray.slot array ->
  universe:int ->
  Workload.item list ->
  result
