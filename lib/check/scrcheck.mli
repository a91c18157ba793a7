(** The State-Compute Replication oracle axis.

    Drives a recovery case ({!Recovery.rcase} — generated program or
    on-disk spec composition) through the SCR executor family
    ({!Scaleout.Scr}) on a multi-core platform and requires behavioural
    equality with a single-core run-to-completion reference: identical
    per-flow emit-content streams (SCR emits merged in global-arrival
    order), identical completion/drop/fault/wire-byte totals and an
    identical location-independent state digest — plus
    {!Oracle.check_invariants} on every core's observation,
    {!Invariants.check_scr} on the update stream, and the model's
    replica-convergence invariant.

    Replicas are built from the case's own per-core instance builder
    with [owned] = the full universe (the SCR state model); fault plans
    arm at each item's global stream index, so the injection schedule is
    spray-independent. *)

(** One SCR platform pass: the pass observables (per-core observations,
    merged per-flow streams, state digest) and the raw engine result. *)
val scr_pass :
  ?plan:Faultgen.t ->
  ?spray:Scaleout.Spray.policy ->
  ?engine:Gunfu.Exec.flow_free ->
  ?items:Gunfu.Workload.item list ->
  cores:int ->
  Recovery.rcase ->
  Recovery.pass * Scaleout.Scr.result

(** What only the SCR axis reports. *)
type extra = {
  cores : int;
  engine : string;  (** executor label of the per-core engine *)
  stats : Scaleout.Scr.stats;
  converged : bool;  (** replica digests equal after the barrier *)
}

(** Run the single-core reference and the SCR pass and compare.
    [spray] defaults to round-robin, [engine] to rtc. The repro replays
    through [gunfu_cli scr] with the same cores, rate, spray and engine. *)
val check_rcase :
  ?plan:Faultgen.t ->
  ?spray:Scaleout.Spray.policy ->
  ?engine:Gunfu.Exec.flow_free ->
  cores:int ->
  Recovery.rcase ->
  extra Recovery.outcome
