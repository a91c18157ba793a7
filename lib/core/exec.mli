(** The executor descriptor: which single-core execution model runs a
    program, with its parameters. Every caller that chooses an executor —
    the oracle matrix, the adaptive driver, SCR replicas, the director,
    the CLI and the bench harness — names it with a value of this type and
    runs it through {!run}. *)

(** The interleaved function-stream executor ({!Scheduler}): task-selection
    policy, NFTask count and prefetch distance. *)
type il = { policy : Scheduler.policy; n_tasks : int; distance : int }

(** Executors that hold no flow in flight across pulls: every pull
    boundary (rtc) or batch boundary (batch-N) is quiescent. Only these may
    run State-Compute Replication replicas, whose dependency-ready windows
    would deadlock on an executor that keeps a flow in flight across pulls
    (see [Scaleout.Scr]). *)
type flow_free = [ `Rtc | `Batch of int ]

type t = [ flow_free | `Il of il ]

(** [il n]: the paper's interleaved executor — round-robin, [n] tasks,
    prefetch distance 1. *)
val il : int -> t

(** Canonical label: ["rtc"], ["batch-N"], ["il-rr-N-dD"], ["il-rf-N-dD"]. *)
val label : [< t ] -> string

(** Parse a canonical label, or the short forms ["ilN"] (= [il-rr-N-d1])
    and ["batch"] (= [batch-32]). Malformed input, non-positive task or
    batch counts and negative distances are [Error]; never raises. *)
val of_string : string -> (t, string) result

(** Run [source] on [worker] under the executor: {!session}, one {!feed},
    {!close}. The hooks go to {!Engine.create} unchanged. [label] defaults
    to ["<program>/rtc"], ["<program>/batch-rtc"] or
    ["<program>/interleaved-N"]. [quiesce] is polled at the loop's
    quiescent points; once it answers [true] the run returns with
    pulled = completed. [fault] is the fault-injection plane (a fresh
    empty one when omitted: behaviour is then byte-identical to a
    plane-less run). [telemetry] attaches the span tracer, which never
    charges cycles. [on_complete] observes each finished task just before
    it is retired — the differential oracle's tap.
    @raise Invalid_argument on a non-positive batch width or task count,
    or a negative prefetch distance, before [source] is pulled. *)
val run :
  ?label:string -> ?quiesce:(unit -> bool) -> ?fault:Fault.t ->
  ?telemetry:Trace.t -> ?on_complete:(Nftask.t -> unit) -> [< t ] -> Worker.t ->
  Program.t -> Workload.source -> Metrics.run

(** {2 Sessions}

    One {!Engine.t} with the executor's loop built over it: the core,
    tasks and measurement bracket are built once and every {!feed} drains
    one source through them. Feeding windows one by one is equivalent to
    one {!run} per window on the same worker with the same [fault] plane:
    the same completions in the same order, the same simulated cycles and
    memory traffic. The difference is the result:
    {!close} returns one {!Metrics.run} bracketing everything since
    {!session}, including work charged to the worker between feeds. SCR
    replicas run their windows this way. Only flow-free executors have
    sessions: every feed ends quiescent, with no flow held in flight
    across feeds. *)

type session

(** A session on [worker] with the default label; [fault] and
    [on_complete] as in {!run}.
    @raise Invalid_argument on a non-positive batch width. *)
val session :
  ?fault:Fault.t -> ?on_complete:(Nftask.t -> unit) -> [< flow_free ] -> Worker.t ->
  Program.t -> session

(** Drain [source] to completion on the session's core. *)
val feed : session -> Workload.source -> unit

(** Close the measurement bracket: everything fed, in one run. *)
val close : session -> Metrics.run
