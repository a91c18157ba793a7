(** Symbolic execution of NF-C action bodies.

    [summarize] enumerates an action's symbolic paths: a path condition
    over the entry values of state fields, the per-field writes the path
    performs (in terms of entry values), and the path's exit — the emitted
    event key, a drop, fall-through to the default event, or a raise from
    modulo-by-zero. The decision procedure ([decide]) covers the
    linear-arithmetic/boolean fragment via interval + congruence
    reasoning, with a sound [Unknown] everywhere else; checkers that hit
    [Unknown] fall back to the dynamic oracle. *)

open Gunfu

type sexpr =
  | Const of int
  | Var of Nfc.scope * string  (** the field's value at action entry *)
  | SBin of Nfc.binop * sexpr * sexpr

val sexpr_equal : sexpr -> sexpr -> bool
val pp_sexpr : Format.formatter -> sexpr -> unit

(** Constant folding plus the algebraic identities (x+0, x*1, x*0, x-x,
    reflexive comparisons) that make compiled conditions decidable.
    Modulo by constant zero is deliberately not folded — the raise is
    part of the path's meaning. *)
val simplify : sexpr -> sexpr

type decision = True | False | Unknown

(** A path condition: each entry is a branch condition and the polarity
    it took ([true] = nonzero). *)
type pc = (sexpr * bool) list

(** Decide whether [e] is nonzero under the path condition, by constant
    folding plus interval/congruence facts harvested from it. *)
val decide : pc -> sexpr -> decision

type exit_kind =
  | Exit_emit of string  (** event key, via [Event.to_key] *)
  | Exit_drop
  | Exit_fall  (** end of body: the runtime raises the default event *)
  | Exit_raise  (** modulo by a divisor proven zero on this path *)

type path = {
  p_pc : pc;
  p_writes : (Nfc.scope * string * sexpr) list;
      (** program order, last write per field *)
  p_exit : exit_kind;
  p_may_raise : bool;
      (** some modulo divisor could not be proven nonzero *)
}

type summary = {
  s_paths : path list;
  s_weight : int;  (** the compile-time cost model: [Nfc.stmt_weight] sum *)
  s_decided : (int * Nfc.expr * bool) list;
      (** [If] conditions statically decided, to the same truth value, on
          every path reaching them: (source-order index, condition,
          truth). Feeds the constant-condition lint. *)
  s_truncated : bool;
      (** path budget exhausted; checkers must treat as [Unknown] *)
}

val max_paths : int
val summarize : Nfc.t -> summary

(** The distinct event keys a summary can hand the control logic, in
    path order. [Exit_raise] paths are contained by the fault plane and
    contribute no key. *)
val exit_keys : summary -> string list

val pp_pc : Format.formatter -> pc -> unit
val pp_writes : Format.formatter -> (Nfc.scope * string * sexpr) list -> unit
