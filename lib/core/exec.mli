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

(** Run [source] on [worker] under the executor. The hooks are passed to
    the engine unchanged (see {!Rtc.run}, {!Batch_rtc.run} and
    {!Scheduler.run}). *)
val run :
  ?label:string -> ?quiesce:(unit -> bool) -> ?fault:Fault.t ->
  ?telemetry:Trace.t -> ?on_complete:(Nftask.t -> unit) -> [< t ] -> Worker.t ->
  Program.t -> Workload.source -> Metrics.run
