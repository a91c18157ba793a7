(** Composition glue: a unit is one network function's worth of module
    instances (typically classifier + data module) with declared entry and
    exit points; [chain] wires units into an SFC-level NF specification
    (Fig 6(e)/(f)). *)

open Gunfu

type t = {
  instances : Compiler.instance list;
  entry : string;  (** instance receiving the packet *)
  exits : (string * string) list;  (** (instance, event) leaving the unit *)
  internal : Spec.transition list;
}

(** The standard classifier + data-module unit, wired on MATCH_SUCCESS. *)
val classified : classifier:Compiler.instance -> data_instance:Compiler.instance -> t

(** Chain units: unit k's exits feed unit k+1's entry; the last exits end
    the chain. @raise Invalid_argument on an empty list. *)
val chain : name:string -> t list -> Spec.nf_spec * Compiler.instance list

(** Compile a chain and return its {!Gunfu.Compiler.view}. *)
val view : ?opts:Compiler.opts -> name:string -> t list -> Compiler.view

(** The {!view}'s program. *)
val compile : ?opts:Compiler.opts -> name:string -> t list -> Program.t
