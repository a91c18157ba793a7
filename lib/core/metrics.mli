(** Per-run measurements: the quantities the paper's figures report —
    throughput, IPC, per-level cache misses per packet, state-access time
    share. *)

(** Per-packet latency distribution, in cycles from arrival to
    completion. *)
type latency = {
  l_count : int;
  l_mean : float;
  l_p50 : int;
  l_p90 : int;
  l_p99 : int;
  l_max : int;
}

(** Sample collector used by the executors. *)
module Collector : sig
  type t

  val create : unit -> t
  val record : t -> int -> unit

  (** [None] when no samples were recorded. *)
  val summarize : t -> latency option
end

type run = {
  label : string;
  packets : int;
  drops : int;
  cycles : int;
  instrs : int;
  wire_bytes : int;
  switches : int;  (** NFTask switches (0 under RTC) *)
  mem : Memsim.Memstats.t;  (** counter delta over the run *)
  freq_ghz : float;
  state_cycles : int array;  (** memory cycles per {!Sref.state_class} *)
  latency : latency option;  (** per-packet latency, if collected *)
  faulted : int;  (** completions quarantined by the fault plane *)
  faults : (string * Fault.reason * int) list;
      (** per-NF per-reason fault taxonomy, sorted (see {!Fault.counts}) *)
  degraded : bool;  (** at least one flow was poisoned during the run *)
  imbalance : (float * float) option;
      (** (offered, served) per-core max-to-mean load ratios, [Some] only
          on merged multi-core runs: 1.0 is perfect balance, [cores] is one
          core carrying everything (skew collapse) *)
}

(** Convert a cycle count to nanoseconds at the run's clock. *)
val cycles_to_ns : run -> int -> float

val mpps : run -> float
val gbps : run -> float

(** Aggregate over [cores] replicas, capped at the 100 Gbps line rate. *)
val gbps_scaled : run -> cores:int -> float

val ipc : run -> float
val cycles_per_packet : run -> float
val per_packet : run -> int -> float
val l1_misses_per_packet : run -> float
val l2_misses_per_packet : run -> float
val llc_misses_per_packet : run -> float

(** Fraction of run time stalled on the given state classes. *)
val state_access_share : run -> Sref.state_class list -> float

val pp_row : Format.formatter -> run -> unit

(** Per-core (offered, served) max-to-mean load ratios over a run set —
    offered counts packets pulled, served counts completions that made the
    wire (packets - drops - faulted). *)
val load_imbalance : run list -> float * float

(** Combine concurrent per-core runs: counts add, cycles take the max
    (latency distributions are not merged), and {!run.imbalance} is
    computed over the inputs.
    @raise Invalid_argument on an empty list. *)
val merge_parallel : run list -> run

(** Combine sequential legs on one core (the adaptive driver's epochs):
    counts and cycles both add. The fault taxonomy comes from the last leg
    (cumulative when the legs share one plane); [?faults] overrides it
    when they don't. Latency distributions are not merged.
    @raise Invalid_argument on an empty list. *)
val merge_sequential :
  ?label:string -> ?faults:(string * Fault.reason * int) list -> run list -> run

val pp_latency : Format.formatter -> run -> unit
