(** Executor configuration — the knob vector the adaptive controller
    retunes online: a single-core executor ({!Gunfu.Exec.t}: rtc / batch /
    interleaved with its width, task-selection policy and prefetch
    distance) or the SCR scale-out hand-off on that many cores (rtc engine
    per replica). *)

open Gunfu

type t = [ Exec.t | `Scr of int ]

(** The controller's neutral starting point: interleaved round-robin,
    8 tasks, distance 1. *)
val default : t

(** Stable short label, e.g. ["il-rr-8-d1"] or ["scr-4"] — used in run
    labels, decision logs and bench series. *)
val label : t -> string

(** Whether the configuration runs on the single core (everything but
    [`Scr]). *)
val single_core : t -> bool
