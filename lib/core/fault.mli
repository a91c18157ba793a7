(** Fault-injection plane and containment policy.

    A plane instance travels with one executor run. It carries (a) the
    injected-fault schedule, armed per packet id by the generator before
    the run (see [Check.Faultgen]), and (b) the containment state: per-NF
    per-reason fault counts, per-flow consecutive-fault counters, the set
    of poisoned flows and the degraded flag. Executors create a fresh,
    empty plane when none is supplied, which makes containment always-on
    while keeping fault-free runs byte-identical to the pre-plane
    behaviour (an empty plane never changes an outcome or a charge).

    Determinism across executors is the design constraint: injections are
    keyed by packet id (pull order is executor-independent), action faults
    fire on a per-packet action countdown *before* the body runs, and
    poisoning is evaluated at completion time (per-flow completion order is
    an oracle invariant; load order relative to same-flow completions is
    not). *)

type reason =
  | Parse_error  (** truncated / corrupted packet *)
  | Table_overflow  (** state-structure insert rejected under [Shed_flow] *)
  | Action_raise  (** NFAction body raised (injected or organic) *)
  | Mshr_stall  (** injected MSHR starvation — timing-only, no quarantine *)
  | Poisoned  (** flow quarantined after repeated consecutive faults *)

(** Stable wire name ("parse", "overflow", "action", "mshr", "poisoned");
    the payload of [Event.Faulted]. *)
val reason_to_key : reason -> string

(** Raised by NF code and state structures to signal a *contained* fault;
    the string names the NF instance for the taxonomy. {!guard} converts it
    (and any other exception escaping an action body) into
    [Event.Faulted]. *)
exception Fault of reason * string

type injection =
  | Corrupt_packet
      (** the packet's bytes were mangled at the source: quarantine the
          task at load with [Parse_error] *)
  | Raise_at of { countdown : int; reason : reason }
      (** the [countdown]-th guarded action of the packet (0 = first)
          faults before executing *)
  | Stall_mshrs of int
      (** occupy every free MSHR for the given cycles at load time,
          starving subsequent prefetches (timing/stats only) *)
  | Kill_core
      (** the worker pulling this packet dies after processing it. A
          platform-level fault: the recovery engine (lib/check/recovery)
          interprets it by truncating the victim's stream and re-homing its
          flows; executors and {!on_load} ignore it, so a kill schedule
          leaking into a single-core run is inert. *)

type t

(** A plane that poisons a flow after 3 consecutive faulted completions. *)
val create : unit -> t

(** Arm an injection for the packet with the given id (call before the
    executor pulls it from the source). *)
val inject : t -> packet_id:int -> injection -> unit

(** Completions quarantined by the plane (the [faulted] leg of the
    conservation invariant: emits + drops + faulted = offered). *)
val faulted : t -> int

val degraded : t -> bool
val poisoned_flows : t -> int

(** The (nf, reason, occurrences) taxonomy, sorted — deterministic across
    executors for identical schedules. *)
val counts : t -> (string * reason * int) list

(** Load-time hook, called once per task right after [Nftask.load] and the
    rx/tx charge. Applies load-time injections; [Some reason] means the
    task must be quarantined without executing any action. *)
val on_load : t -> mem:Memsim.Hierarchy.t -> now:int -> Nftask.t -> reason option

(** Exception barrier around one [Action.execute]: armed countdowns fire
    before the body runs; [Fault] and any other exception from the body are
    converted to [Event.Faulted] and counted under [nf] (the control
    state's instance name). [Stack_overflow] / [Out_of_memory] are
    re-raised. *)
val guard : t -> nf:string -> Action.t -> Exec_ctx.t -> Nftask.t -> Event.t

(** [true] when the plane's injection machinery could influence a guarded
    action (any injection registered or countdown armed). On an inert plane
    {!guard} degenerates to the bare exception barrier; the specialized
    executors re-check per action (planes can go live mid-run as the
    generator arms injections at pull time) and skip the per-action
    hashtable probe while inert. *)
val live : t -> bool

(** The conversion {!guard} applies to a caught fault: count the reason
    under [nf] and return the quarantine event. Exposed for the
    specializer's fused runners, which inline the exception barrier. *)
val convert : t -> nf:string -> reason -> Event.t

(** Completion hook, called exactly once per finishing task. [faulted] is
    the reason the task already faulted with ([None] for a normal
    completion); the result is the final disposition after poisoning — a
    normal completion of a poisoned flow becomes [Some Poisoned]. Updates
    consecutive-fault counters, the poisoned set and the degraded flag. *)
val complete : t -> flow:int -> faulted:reason option -> reason option

(** One flow's containment state, field by field: its consecutive-fault
    counter and whether it is poisoned. *)
val consecutive_faults : t -> int -> int

val poisoned : t -> int -> bool

(** Per-flow containment snapshot for [flows]: (flow, consecutive-fault
    counter, poisoned). Exported at checkpoint time so a core adopting the
    flows can resume poisoning from exactly where the dead core left it. *)
val export_containment : t -> int list -> (int * int * bool) list

(** Install one flow's containment state. A poisoned flow stays poisoned
    and sets the degraded flag. *)
val restore_flow : t -> flow:int -> consec:int -> poisoned:bool -> unit

(** Install a containment snapshot (inverse of {!export_containment}):
    {!restore_flow} on each entry. *)
val restore_containment : t -> (int * int * bool) list -> unit

(** The reason encoded in a task's event, when it is [Event.Faulted]. *)
val reason_of_event : Event.t -> reason option
