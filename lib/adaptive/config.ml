(* Executor configuration: the knob vector the adaptive controller retunes
   online. One value of this type fully determines how the driver runs the
   next epoch — a single-core executor descriptor, or the SCR scale-out
   hand-off. *)

open Gunfu

type t = [ Exec.t | `Scr of int ]

let default = (Exec.il 8 :> t)

let label = function
  | #Exec.t as e -> Exec.label e
  | `Scr cores -> Printf.sprintf "scr-%d" cores

let single_core = function #Exec.t -> true | `Scr _ -> false
