(** Run-to-completion with batched software prefetching — the
    CuckooSwitch / G-opt style prior art of §II-C. Per RX batch: a prefetch
    pass pre-runs each packet's pure match prefix (key extraction + first
    hash) and prefetches the resolved first bucket plus the headers; a
    processing pass then runs each packet to completion. Control-flow-
    dependent accesses after the first bucket (second bucket, key store,
    tree descent, per-flow state, later NFs) remain demand misses — the
    divergence limitation the interleaved model removes. *)

val default_batch : int

(** [on_complete] observes each finished task just before it is retired —
    the differential oracle's tap. [fault] supplies the run's
    fault-injection plane (a fresh empty plane when omitted). [telemetry]
    attaches the span tracer for the duration of the run; its hooks never
    charge cycles, so traced and untraced runs are cycle-identical.
    [quiesce] is polled before each batch fill (batch boundaries are
    quiescent); once it answers [true] the run returns with
    pulled = completed.
    @raise Invalid_argument when [batch <= 0]. *)
val run :
  ?label:string -> ?batch:int -> ?quiesce:(unit -> bool) -> ?fault:Fault.t ->
  ?telemetry:Trace.t -> ?on_complete:(Nftask.t -> unit) -> Worker.t ->
  Program.t -> Workload.source -> Metrics.run

(** {2 Sessions}

    A session is one run fed several sources in turn: the per-run state
    (engine core, the batch's tasks, the pre-runnable prefix, measurement
    bracket) is built once, each {!feed} drains one source to completion
    in batches, and {!close} returns everything fed as one
    {!Metrics.run}. [run] is [session], one [feed], [close]. Every feed
    starts a fresh batch: a window shorter than [batch] is one partial
    batch, exactly as a [run] over that window alone. *)

type session

(** The hooks of {!run}. [quiesce] is polled before each batch fill of
    every feed; a feed it pauses returns with pulled = completed.
    @raise Invalid_argument when [batch <= 0]. *)
val session :
  ?label:string -> ?batch:int -> ?quiesce:(unit -> bool) -> ?fault:Fault.t ->
  ?telemetry:Trace.t -> ?on_complete:(Nftask.t -> unit) -> Worker.t ->
  Program.t -> session

(** Run [source] to exhaustion (or to a pause) on the session's core. *)
val feed : session -> Workload.source -> unit

(** Close the measurement bracket: every packet fed, in one run. *)
val close : session -> Metrics.run
