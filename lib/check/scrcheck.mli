(** The State-Compute Replication oracle axis.

    Drives a recovery case ({!Recovery.rcase} — generated program or
    on-disk spec composition) through the SCR executor family
    ({!Scaleout.Scr}) on a multi-core platform and requires behavioural
    equality with a single-core run-to-completion reference: identical
    per-flow emit-content streams (SCR emits merged in global-arrival
    order), identical completion/drop/fault/wire-byte totals and an
    identical location-independent state digest — plus
    {!Invariants.check} on every core's observation,
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

type outcome = {
  so_case : string;
  so_cores : int;
  so_packets : int;
  so_engine : string;
  so_stats : Scaleout.Scr.stats;
  so_reference : Recovery.pass;
  so_scr : Recovery.pass;
  so_converged : bool;
  so_violations : (string * Invariants.violation) list;
  so_divergence : string option;
  so_repro : string;
}

(** Run the single-core reference and the SCR pass and compare.
    [spray] defaults to round-robin, [engine] to rtc. *)
val check_rcase :
  ?plan:Faultgen.t ->
  ?spray:Scaleout.Spray.policy ->
  ?engine:Gunfu.Exec.flow_free ->
  cores:int ->
  Recovery.rcase ->
  outcome

(** No violations and no divergence. *)
val passed : outcome -> bool

val pp_outcome : Format.formatter -> outcome -> unit
