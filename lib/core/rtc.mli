(** The per-packet run-to-completion baseline (§II-B): the execution model
    of BESS / FastClick / L25GC / Free5GC. Each packet runs start-to-finish
    with no yielding; every state access demand-fetches and stalls for the
    full latency of whatever level serves it. Executes the same compiled
    {!Program} (prefetch policies ignored), so comparisons isolate exactly
    the execution model. *)

(** [on_complete] observes each finished task (terminal event, packet,
    flow hint) just before it is retired — the differential oracle's tap.
    [fault] supplies the run's fault-injection plane; when omitted a fresh
    empty plane is used, so containment is always on but behaviour is
    byte-identical to a plane-less run. [telemetry] attaches the span
    tracer for the duration of the run; its hooks never charge cycles, so
    traced and untraced runs are cycle-identical. [quiesce] is polled
    before each pull (every RTC pull boundary is quiescent); once it
    answers [true] the run returns with pulled = completed. *)
val run :
  ?label:string -> ?quiesce:(unit -> bool) -> ?fault:Fault.t ->
  ?telemetry:Trace.t -> ?on_complete:(Nftask.t -> unit) -> Worker.t ->
  Program.t -> Workload.source -> Metrics.run

(** {2 Sessions}

    A session is one run fed several sources in turn: the per-run state
    (engine core, task, measurement bracket) is built once, each {!feed}
    drains one source to completion, and {!close} returns everything fed
    as one {!Metrics.run}. [run] is [session], one [feed], [close]. *)

type session

(** The hooks of {!run}. [quiesce] is polled before each pull of every
    feed; a feed it pauses returns with pulled = completed. *)
val session :
  ?label:string -> ?quiesce:(unit -> bool) -> ?fault:Fault.t ->
  ?telemetry:Trace.t -> ?on_complete:(Nftask.t -> unit) -> Worker.t ->
  Program.t -> session

(** Run [source] to exhaustion (or to a pause) on the session's core. *)
val feed : session -> Workload.source -> unit

(** Close the measurement bracket: every packet fed, in one run. *)
val close : session -> Metrics.run
