(** Multi-core platform (§VII-C): share-nothing per-core runtimes; RSS
    steers each flow to one core, so cores hold disjoint state and scale
    independently. The LLC capacity is partitioned across cores. *)

type t

(** @raise Invalid_argument when [cores <= 0]. *)
val create : ?cfg:Worker.cfg -> cores:int -> unit -> t

(** The per-core worker configuration actually in effect (LLC share
    already partitioned across the cores). *)
val config : t -> Worker.cfg

val cores : t -> int
val worker : t -> int -> Worker.t
val workers : t -> Worker.t array

(** Run one experiment on every core; [setup] builds the per-core NF and
    traffic slice, [execute] runs it (typically [Exec.run e]). Merge
    results with {!Metrics.merge_parallel}. *)
val run :
  t ->
  setup:(Worker.t -> int -> Program.t * Workload.source) ->
  execute:(Worker.t -> Program.t -> Workload.source -> Metrics.run) ->
  Metrics.run list

(** Epoch-based checkpointing and bounded replay logging — the platform
    half of crash recovery. Every [epoch] pulls a core exports its
    per-flow state (an opaque payload; the Migration layer above lib/core
    produces it) and trims its replay log; between checkpoints each pulled
    item is logged. An adopter restores the last checkpoint and replays
    the suffix. Journaling is pure bookkeeping (no simulated-memory
    traffic), so enabling it leaves runs byte-identical. *)
module Recovery : sig
  type plan = { epoch : int; log_capacity : int }

  val default_plan : plan

  (** RSS pinning: the core owning a flow hint ([hint mod cores]; hint-less
      items fall to core 0).
      @raise Invalid_argument when [cores <= 0]. *)
  val owner : cores:int -> int -> int

  (** One logged pull: packet clone (same id — replay must present the
      same packet to the dedup policy and fault plane), workload hint/aux,
      and the injection that was armed for it, if any. *)
  type entry = {
    e_pkt : Netcore.Packet.t option;
    e_hint : int;
    e_aux : int;
    e_inj : Fault.injection option;
  }

  type 'a journal

  (** @raise Invalid_argument when [epoch <= 0] or [log_capacity < epoch]. *)
  val journal : plan -> 'a journal

  (** [true] when a checkpoint is due before the next pull (pulls #0,
      #epoch, #2*epoch, ...). *)
  val boundary : 'a journal -> bool

  (** Install a fresh checkpoint and trim the replay log. *)
  val checkpoint : 'a journal -> 'a -> unit

  (** Append one pulled item to the replay log. If the capacity bound is
      hit (impossible when checkpointing at every boundary), the oldest
      entry is dropped and counted in {!overflowed}. *)
  val record : 'a journal -> entry -> unit

  val last_checkpoint : 'a journal -> 'a option

  (** Entries since the last checkpoint, oldest first. *)
  val suffix : 'a journal -> entry list

  val recorded : 'a journal -> int
  val trimmed : 'a journal -> int
  val overflowed : 'a journal -> int
end
