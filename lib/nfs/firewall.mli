(** Stateful firewall: an ordered rule policy is evaluated once at flow
    admission; the verdict is the per-flow state every later packet reads.
    Deep SFC positions use different policies (paper §VII-B). *)

open Gunfu

val spec : Spec.module_spec Lazy.t

type verdict = Accept | Deny

type rule = {
  src_ip_mask : Netcore.Ipv4.addr * Netcore.Ipv4.addr;  (** (value, mask) *)
  dst_port_range : int * int;
  proto : int option;  (** [None] = any *)
  rule_verdict : verdict;
}

type policy = { rules : rule list; default : verdict }

(** First-match evaluation. *)
val evaluate : policy -> Netcore.Flow.t -> verdict

(** Permissive, with a denied source slice so the DROP path is exercised. *)
val default_policy : policy

val strict_policy : policy

type t = {
  name : string;
  classifier : Classifier.t;
  arena : Structures.State_arena.t;
  policy : policy;
  verdicts : bool array;  (** true = accept *)
  mutable next_free : int;
      (** first unused verdict slot (bump allocator; imports append here) *)
}

val state_bytes : int

val create :
  Memsim.Layout.t -> name:string -> ?arena:Structures.State_arena.t -> ?policy:policy ->
  n_flows:int -> unit -> t

val populate : t -> Netcore.Flow.t array -> unit
val unit : t -> Nf_unit.t
val program : ?opts:Compiler.opts -> t -> Program.t
