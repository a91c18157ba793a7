(** The telemetry plane's span tracer: a bounded ring buffer of per-packet
    lifecycle spans with cycle timestamps, plus exact (never-lossy)
    attribution books folded as events arrive.

    Install/inert, like the fault plane: executors take an optional
    [?telemetry] plane and every hook charges nothing, so a run without a
    plane — and one with a plane attached — is cycle-for-cycle identical to
    a plane-free build. The ring may drop old spans on overflow (see
    {!dropped}); the attribution books are plain counters and always exact,
    so the profiler reconciles against {!Memsim.Memstats} on runs of any
    length. *)

(** Serving cache level of one demand access; [Inflight] = found in an
    MSHR (prefetched, fill not yet landed; paid the residual wait). *)
type level = L1 | L2 | Llc | Dram | Inflight

val level_name : level -> string

(** Lifecycle phase of a span. [State_access]/[Mshr_wait] come from the
    memory-hierarchy tap; the rest from executor hooks. *)
type phase =
  | Pull
  | Parse
  | Prefetch_issue
  | State_access
  | Mshr_wait
  | Action_body
  | Task_switch
  | Complete
  | Decision  (** adaptive-controller reconfiguration (runtime span) *)

val phase_name : phase -> string

type span = {
  sp_ts : int;  (** start, in simulated cycles *)
  sp_dur : int;  (** 0 for instants *)
  sp_phase : phase;
  sp_task : int;  (** executor slot id; -1 = runtime outside any task *)
  sp_unit : int;  (** run-local packet sequence number; -1 = runtime *)
  sp_flow : int;  (** workload flow hint; -1 = unknown *)
  sp_nf : string;  (** NF instance, "" outside an action *)
  sp_cs : string;  (** qualified control state, "" outside an action *)
  sp_cls : Sref.state_class option;  (** state class of a memory span *)
  sp_level : level option;  (** serving level of a memory span *)
  sp_note : string;
      (** terminal event key on [Complete], line count on [Prefetch_issue] *)
}

(** HDR-style log-linear histogram: exact below 16, then 16 sub-buckets
    per power of two (relative error bounded by 1/16, constant memory). *)
module Hist : sig
  type t

  val create : unit -> t
  val record : t -> int -> unit
  val count : t -> int
  val max_value : t -> int
  val mean : t -> float

  (** Nearest-rank percentile over bucket lower bounds. *)
  val percentile : t -> int -> int
end

(** Scheduler/MSHR occupancy sample (one per task switch, ring-bounded). *)
type occupancy = { oc_ts : int; oc_active : int; oc_mshr : int }

type t

(** [capacity] is the span ring's size (default 65536 spans). *)
val create : ?capacity:int -> unit -> t

(** {2 Executor hooks} — called by the [?telemetry]-enabled executors and
    the {!Exec_ctx} memory-hierarchy tap. All O(1), none charges cycles. *)

val on_pull : t -> ts:int -> dur:int -> task:int -> flow:int -> unit
val on_parse : t -> ts:int -> task:int -> unit
val set_task : t -> task:int -> unit
val on_action_start : t -> ts:int -> nf:string -> cs:string -> unit
val on_action_end : t -> ts:int -> unit

(** State class of the demand access about to be charged. *)
val set_cls : t -> Sref.state_class option -> unit

val on_mem : t -> ts:int -> cycles:int -> level:level -> unit
val on_prefetch : t -> ts:int -> dur:int -> lines:int -> unit
val on_switch : t -> ts:int -> dur:int -> task:int -> unit
val on_occupancy : t -> ts:int -> active:int -> mshr:int -> unit
val on_complete : t -> ts:int -> task:int -> note:string -> latency:int -> unit

(** Adaptive-controller decision (runtime span, no task/unit/flow); [note]
    is the move label. *)
val on_decision : t -> ts:int -> note:string -> unit

(** {2 Accessors} *)

val total_spans : t -> int

(** Spans lost to ring overflow ([max 0 (total - capacity)]); the
    attribution books below are unaffected. *)
val dropped : t -> int

val pulls : t -> int
val completes : t -> int

(** Retained spans, oldest first. *)
val spans : t -> span array

val level_count : t -> level -> int
val level_cycles : t -> level -> int
val mem_cycles : t -> int

(** Cycles the spans account for, without double counting (demand traffic
    inside an action is part of the action span). Always [<=] the run's
    cycles: transition, dispatch, and scan overheads are not spanned. *)
val attributed_cycles : t -> int

val pull_cycles : t -> int
val action_cycles : t -> int
val prefetch_cycles : t -> int
val switch_cycles : t -> int
val mem_outside_cycles : t -> int

(** [(nf, control state, class name, level, serves, cycles)], sorted. *)
val mem_rows : t -> (string * string * string * level * int * int) list

(** [(nf, control state, executions, cycles)], sorted. *)
val action_rows : t -> (string * string * int * int) list

val latencies : t -> Hist.t
val occupancy : t -> occupancy array

(** [(samples, active-task sum, in-flight MSHR sum)] over every occupancy
    sample ever taken — exact under ring overflow, so windowed means are
    computable by delta. *)
val occupancy_totals : t -> int * int * int

(** Decision spans recorded via {!on_decision}. *)
val decisions : t -> int
