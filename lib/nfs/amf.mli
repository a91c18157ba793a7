(** 5G Access and Mobility Management Function — the state-complexity case
    (EXP B / Fig 12). The per-UE context exceeds 20 cache lines; each
    initial-registration message touches a different slice, declared by the
    fetching function so the runtime prefetches precisely it and data
    packing co-locates it. Handlers drive a real per-UE registration state
    machine. *)

open Gunfu

(** UE-context fields (name, bytes); ~1.3 KiB total. *)
val context_fields : (string * int) list

val spec : Spec.module_spec Lazy.t

type t = {
  name : string;
  classifier : Classifier.t;
  arena : Structures.State_arena.t;
  packed : bool;
  n_ues : int;
  progress : int array;  (** per-UE position in the registration sequence *)
  registrations : int array;  (** completed registrations per UE *)
  mutable protocol_errors : int;  (** out-of-order NAS messages seen *)
}

(** [packed] selects the data-packed context layout (§VI-B). *)
val create : Memsim.Layout.t -> name:string -> ?packed:bool -> n_ues:int -> unit -> t

val populate : t -> unit
val program : ?opts:Compiler.opts -> t -> Program.t

(** Cache lines a message's handler touches under this instance's layout. *)
val lines_per_message : t -> Traffic.Mgw.amf_msg -> int
