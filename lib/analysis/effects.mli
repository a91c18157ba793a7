(** Abstract interpretation of NF-C action bodies: the per-action read /
    write sets by state scope, temp-register liveness facts, and the
    events the body can emit. This is the effects half of the analyzer —
    a walk of the {!Gunfu.Nfc} AST that visits both branches of every
    [if] (may-information) while tracking definite assignment
    (must-information) for TempState. *)

open Gunfu

type access = {
  a_scope : Nfc.scope;
  a_field : string;
  a_write : bool;  (** assignment target (reads have [a_write = false]) *)
}

type t = {
  accesses : access list;
      (** every (scope, field, read/write) the body may perform, both
          branches of conditionals included; source order, deduplicated *)
  temp_exposed : string list;
      (** TempState fields read on some path before the body itself has
          written them — their value leaks in from a previous state *)
  temp_written : string list;
      (** TempState fields definitely written on every terminating or
          falling-through path (the must-set later states can rely on) *)
  emits : string list;
      (** event keys ({!Gunfu.Event.to_key}) the body may raise via
          [Emit]/[Drop] *)
  falls_through : bool;
      (** some path reaches the end of the body without [Emit]/[Drop]
          (the runtime then raises the compiler's default event) *)
}

(** Parse and walk; [Error msg] on NF-C syntax errors. *)
val of_source : string -> (t, string) result

(** May the body touch (any field of) [scope]? With [~write:true],
    restrict to assignments. *)
val touches : t -> ?write:bool -> Nfc.scope -> bool
