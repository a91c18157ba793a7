(** The interleaved function-stream executor — Algorithm 1 of the paper.

    A fixed set of NFTasks is multiplexed round-robin on one core. The
    Fetch step resolves the next action's NFState targets and issues their
    prefetches immediately, overlapping the fills with the other streams'
    execution; a task whose fills are still in flight is skipped (its
    P-state says so) until they land. Finished NFTasks are re-initialised
    in place, and per-flow ordering is preserved: two packets of one flow
    are never in flight concurrently. *)

(** Task-selection policy: the paper's round-robin, or a ready-first scan
    that skips tasks whose fills are still in flight (charging one cycle
    per skipped slot). *)
type policy = Round_robin | Ready_first

(** The loop over [core]: builds the [n_tasks] NFTasks and the per-flow
    stash and returns the feed, which runs a source until it drains.
    [prefetch_distance] tunes the Fetch step: 0 issues nothing (every
    access demand-fetches), 1 is the paper's policy, and [d >= 2] also
    issues the resolvable targets of FSM successor states up to [d - 1]
    transitions ahead (fire-and-forget). The core's quiesce hook is polled
    at pull boundaries; once it answers [true] the feed stops pulling,
    drains every in-flight task and stashed item, and returns with
    pulled = completed — the adaptive driver's reconfiguration point.
    @raise Invalid_argument when [n_tasks <= 0] or [prefetch_distance < 0]. *)
val loop :
  policy:policy -> prefetch_distance:int -> n_tasks:int -> Engine.t -> Workload.source ->
  unit

(** One session, one feed, closed: [Exec.run (`Il _)] without a label,
    quiesce hook or fault plane. [policy] defaults to [Round_robin] and
    [prefetch_distance] to 1. *)
val run :
  ?policy:policy -> ?prefetch_distance:int -> ?telemetry:Trace.t ->
  ?on_complete:(Nftask.t -> unit) -> Worker.t -> Program.t -> n_tasks:int ->
  Workload.source -> Metrics.run
