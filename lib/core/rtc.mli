(** The per-packet run-to-completion baseline (§II-B): the execution model
    of BESS / FastClick / L25GC / Free5GC. Each packet runs start-to-finish
    with no yielding; every state access demand-fetches and stalls for the
    full latency of whatever level serves it. Executes the same compiled
    {!Program} (prefetch policies ignored), so comparisons isolate exactly
    the execution model. *)

(** The loop over [core]: builds the one task every packet reuses and
    returns the feed, which runs a source to exhaustion. The core's
    quiesce hook is polled before each pull (every RTC pull boundary is
    quiescent); once it answers [true] the feed returns with
    pulled = completed. *)
val loop : Engine.t -> Workload.source -> unit

(** One session, one feed, closed: [Exec.run `Rtc] without a label,
    quiesce hook or fault plane. *)
val run :
  ?telemetry:Trace.t -> ?on_complete:(Nftask.t -> unit) -> Worker.t -> Program.t ->
  Workload.source -> Metrics.run
