(** The per-run core shared by the three single-core executors ({!Rtc},
    {!Batch_rtc}, {!Scheduler}). The paper's execution models run the same
    compiled program and differ only in how NFTasks are scheduled
    (Algorithm 1, §II-B), so everything but the scheduling loop lives
    here, built once per run from the run's hooks: the default label, the
    measurement snapshot, the fault plane, trace attachment, the
    specialized dispatch, task load, action dispatch, completion
    accounting and the final {!Worker.finish}.

    Every operation charges simulated cycles exactly where the executors
    always have, and the telemetry hooks never charge cycles, so traced
    and untraced runs are cycle-identical. *)

type t

(** Snapshot the worker, take the run's fault plane (a fresh empty one
    when [fault] is omitted), attach [telemetry] and select the dispatch:
    dense Δ when the program is specialized, fused action runners only
    while untraced (a traced run keeps the interpreted body so spans and
    error ordering are untouched). [name] prefixes error messages;
    [label] defaults to ["<program>/<kind>"]. *)
val create :
  name:string -> kind:string -> ?label:string -> ?quiesce:(unit -> bool) ->
  ?fault:Fault.t -> ?telemetry:Trace.t -> ?on_complete:(Nftask.t -> unit) ->
  Worker.t -> Program.t -> t

(** Whether the quiesce hook asks the run to pause (never without one). *)
val want_pause : t -> bool

(** The attached tracer, for the loop's own spans (task, switch,
    occupancy). *)
val trace : t -> Trace.t option

(** Count one task switch into the run's metrics. *)
val count_switch : t -> unit

(** Δ: the next control state (specialized table or interpreter). *)
val step : t -> int -> Event.t -> int

(** Whether control state [cs] has an action. *)
val has_action : t -> int -> bool

(** Whether [task] is quarantined (its event is [Faulted]). *)
val faulted : Nftask.t -> bool

(** Load one work item into [task]: rx/tx charge, pull and parse spans,
    then the fault plane's load-time check, which marks a quarantined task
    with a [Faulted] event. *)
val load : t -> Nftask.t -> Workload.item -> unit

(** Run the action of control state [cs] on [task], setting its event —
    the fused runner, or the guarded interpreted action with its spans.
    @raise Invalid_argument when [cs] has no action. *)
val execute : t -> Nftask.t -> int -> unit

(** Finish [task]: fault disposition, drop / wire-byte / latency
    accounting, the complete span, the [on_complete] tap, then retire. *)
val complete : t -> Nftask.t -> unit

(** Run the scheduling loop with the trace attached (detached however the
    loop exits) and close the measurement bracket. *)
val run : t -> (unit -> unit) -> Metrics.run
