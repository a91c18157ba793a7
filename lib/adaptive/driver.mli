(** The closed loop: run a plant (program + worker + source + fault plane)
    under the current {!Config}, cut a {!Window} every [epoch] pulls, feed
    it to the {!Policy}, and apply any proposed move at a quiescent pull
    boundary — the engines' [?quiesce] hook stops source pulls and drains
    every in-flight task first, so a reconfiguration can never be observed
    by the data path. Every decision (hold or move) is recorded in the
    decision log and traced as a {!Gunfu.Trace.Decision} span.

    When the policy proposes an SCR hand-off, the driver exports the
    single-core state into full per-core replicas (the PR 8/9 snapshot
    surface, supplied by the plant), sprays subsequent epochs through
    {!Scaleout.Scr.run}, and on return folds replica state back into the
    single-core instance — both edges are quiescent by construction.

    A run in which the policy never proposes a move executes as one
    uninterrupted engine call: byte-identical to an uncontrolled run. *)

open Gunfu

(** SCR hand-off surface, supplied by plants that can scale out. *)
type scr_surface = {
  ss_cores : int;
  ss_universe : int;  (** flow-hint universe for {!Scaleout.Scr.run} *)
  ss_engine : Exec.flow_free;
  ss_spray : Scaleout.Spray.policy;
  ss_spawn : unit -> Scaleout.Scr.replica array;
      (** fresh full replicas seeded with the single-core instance's
          *current* state (quiescent export) *)
  ss_collect : Scaleout.Scr.replica array -> unit;
      (** fold converged replica state back into the single-core
          instance *)
}

type plant = {
  pl_worker : Worker.t;
  pl_program : Program.t;
  pl_source : Workload.source;
  pl_plane : Fault.t;  (** shared across every leg of the run *)
  pl_scr : scr_surface option;
}

type decision = {
  d_index : int;  (** window sequence number *)
  d_cycles : int;  (** cumulative simulated cycles at the cut *)
  d_pulled : int;  (** items pulled when the decision was taken *)
  d_completed : int;  (** completions when the move was applied *)
  d_signals : Window.signals;
  d_move : Policy.move option;  (** [None] = hold *)
  d_from : Config.t;
  d_to : Config.t;
  d_quiescent : bool;  (** pulled = completed when the move landed *)
}

val pp_decision : Format.formatter -> decision -> unit

type outcome = {
  o_run : Metrics.run;  (** sequential merge over all legs *)
  o_legs : Metrics.run list;  (** chronological *)
  o_decisions : decision list;  (** chronological; holds included *)
  o_moves : int;  (** decisions that applied a move *)
  o_final : Config.t;
  o_trace : Trace.t;
}

(** [run ~policy plant] drives the plant until the source drains.
    [epoch] (default 2048) is the window length in pulls; [telemetry]
    supplies the trace (fresh when omitted — the window fold needs one
    attached, which is free: telemetry hooks never charge cycles).
    [on_complete] taps every completion, as in the engines.
    @raise Invalid_argument when [epoch <= 0], or when the policy proposes
    an SCR hand-off and the plant has no [pl_scr]. *)
val run :
  ?epoch:int -> ?label:string -> ?telemetry:Trace.t ->
  ?on_complete:(Nftask.t -> unit) -> policy:Policy.t -> plant -> outcome
