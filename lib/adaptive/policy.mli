(** The controller's decision table: window signals in, knob move out —
    deterministic, with three layers of hysteresis so it never flaps:
    a deadband between every rule's high and low water marks, a
    consecutive-window confirmation streak, and a post-move cooldown. A
    throughput guard reverts any move whose first full window regresses
    kpps and pins the offending rule for the rest of the run. *)

open Gunfu

type move =
  | To of Exec.t  (** switch to that single-core executor *)
  | Tasks_up
  | Tasks_down
  | Distance_up
  | Distance_down
  | Switch_policy of Scheduler.policy
  | Scr_handoff
  | Scr_return
  | Revert  (** throughput guard: undo the previous move *)

val move_label : move -> string

type params = {
  hi_mem : float;  (** mem-cycle share above which latency hiding pays *)
  lo_mem : float;  (** ... below which interleave overhead dominates *)
  hi_switch : float;  (** switch-overhead share that justifies narrowing *)
  hi_occ : float;  (** mean in-flight fills that signal MSHR pressure *)
  hi_skew : float;  (** top-flow share above which RSS would collapse *)
  lo_skew : float;
  hi_imb : float;  (** projected RSS max-to-mean that warrants SCR *)
  confirm : int;  (** consecutive matching windows before a move *)
  cooldown : int;  (** windows to hold after any move *)
  regress : float;  (** revert when post-move kpps < (1-regress) * pre *)
  min_tasks : int;
  max_tasks : int;
  max_distance : int;
  batch : int;  (** batch width of the compute-bound terminal config *)
}

val default_params : params

type t

(** [scr] enables the {!Scr_handoff} rule with that core count; without it
    the controller never leaves the single core. *)
val create : ?params:params -> ?scr:int -> initial:Config.t -> unit -> t

val config : t -> Config.t
val params : t -> params

(** Feed one closed window; [Some move] means the driver must pause at the
    next quiescent boundary and apply it ([config] already reflects the
    move). [None] is a hold. *)
val decide : t -> Window.signals -> move option
