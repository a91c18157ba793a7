(** The adaptive oracle axis.

    Drives a recovery case ({!Recovery.rcase} — generated program or
    on-disk spec composition) through the closed-loop adaptive runtime
    ({!Adaptive.Driver}) and requires behavioural equality with the
    single-core run-to-completion reference: identical per-flow
    emit-content streams, identical completion/drop/fault/wire-byte
    totals, and an identical location-independent state digest — plus
    {!Oracle.check_invariants} on the adaptive observation (single-core
    configurations) and {!Invariants.check_adaptive} on the decision log,
    proving every reconfiguration landed at a quiescent boundary.

    The plant mirrors the recovery engine's delivery semantics (items
    traced once, packets cloned per pull, fault plans armed at the
    GLOBAL stream index), so the injection schedule is identical however
    the controller reshapes execution. *)

open Gunfu

(** One adaptive pass over a case: pass observables (observation, merged
    per-flow streams, state digest) plus the raw driver outcome.
    [scr] arms the SCR hand-off rule with that core count and supplies
    the plant's hand-off surface (case-built full replicas seeded from a
    quiescent export, counter deltas folded back on return); [initial]
    is the starting configuration, [epoch] (default 256) the window
    length in pulls. *)
val adaptive_pass :
  ?plan:Faultgen.t ->
  ?scr:int ->
  ?params:Adaptive.Policy.params ->
  ?epoch:int ->
  initial:Adaptive.Config.t ->
  items:Workload.item list ->
  Recovery.rcase ->
  Recovery.pass * Adaptive.Driver.outcome

(** What only the adaptive axis reports. *)
type extra = {
  epoch : int;
  moves : int;
  final : Adaptive.Config.t;
  decisions : Adaptive.Driver.decision list;
  run : Metrics.run;
}

(** Run the single-core reference and the adaptive pass over the same
    traced stream and compare. The repro replays through [gunfu_cli adapt]
    with the same epoch, rate, hand-off and initial configuration
    ([params] has no command-line form). @raise Invalid_argument when
    both [plan] and [scr] are given — re-cloning inside the sprayed
    platform would detach armed injections from their packets. *)
val check_rcase :
  ?plan:Faultgen.t ->
  ?scr:int ->
  ?params:Adaptive.Policy.params ->
  ?epoch:int ->
  ?initial:Adaptive.Config.t ->
  Recovery.rcase ->
  extra Recovery.outcome
