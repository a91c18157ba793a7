(** Crash-tolerant scale-out: core-failure injection with checkpoint/replay
    recovery.

    A recovery case shards one generated (or spec-assembled) program across
    a share-nothing multi-core platform (RSS pinning via
    {!Gunfu.Platform.Recovery.owner}). The chaos axis kills one core right
    after a scheduled global pull ({!Faultgen.decide_kill}); a survivor
    adopts the dead core's flows by restoring its last epoch checkpoint
    (Migration-layer snapshots for every stateful NF family), replaying the
    journaled suffix with the victim's recorded fault injections re-armed,
    and absorbing the redirected remainder. Replayed completions are
    deduplicated by run-local packet id and verified content-equal to the
    victim's originals (exactly-once emits).

    The recovered run is judged against a failure-free reference — the same
    platform, sharding and injection schedule without the kill — on
    per-flow emit-content streams and a location-independent state digest,
    plus {!Invariants.check_recovery}'s replay-aware conservation law.
    Per-core executors are RTC: pull boundaries are quiescent, which is
    what makes the journal's checkpoint snapshots consistent. *)

open Gunfu

(** One core's copy of the program, populated with only its owned flows,
    plus the recovery engine's state-plane closures (export/import through
    the Migration layer keyed by universe flow ids, commutative counters
    with additive restore, location-independent per-flow digest). *)
type core_instance = {
  ci_worker : Worker.t;
  ci_program : Program.t;
  ci_pool : Netcore.Packet.Pool.pool;
  ci_export : int list -> (string * string) list;
  ci_import : (string * string) list -> unit;
  ci_apply : (string * string) list -> unit;
      (** SCR update upsert: overwrite resident flows, admit absent ones —
          unlike [ci_import], safe on an instance that already holds the
          flow. *)
  ci_counters : unit -> (string * int) list;
  ci_restore : (string * int) list -> unit;
  ci_flow_digest : Fingerprint.t -> int -> unit;
}

type rcase = {
  r_name : string;
  r_seed : int;
  r_packets : int;
  r_universe : int;  (** flow/session universe size; hints are [0, universe) *)
  r_cfg : Worker.cfg;  (** per-core config before LLC partitioning *)
  r_trace : unit -> Workload.item list;
      (** the global input stream, pristine packets — traced once per check
          and shared (as clones) by both passes so packet ids line up *)
  r_build : Worker.t -> owned:int array -> core_instance;
  r_selector : string;
      (** the command-line flags that select this case
          ([--programs 1 --profile P] or [--spec NAME]) *)
}

(** GSYN1, the synthetic unit's per-flow state: key, universe flow id,
    sequence number and scratch accumulator. *)
val syn_codec : Progen.syn_state Nfs.Migration.codec

(** The generated program behind [seed] (chain or synthetic, via
    {!Progen.recipe}) as a recovery case. *)
val gen_rcase : seed:int -> profile:string -> packets:int -> rcase

(** A recovery case over an on-disk composition ({!Progen.spec_names}):
    catalog chains rebuild per core via the spec files; [upf_downlink]
    starts each core's UPF empty and installs its owned PFCP sessions
    through the admission path. *)
val spec_rcase : specs_dir:string -> name:string -> seed:int -> packets:int -> rcase

type content = int * int * string * bool * int * string

(** One full platform pass: live cores' observations (core order), the
    merged per-flow emit-content streams, and the location-independent
    state digest. *)
type pass = {
  p_obs : (string * Oracle.observation) list;
  p_streams : (int * content list) list;
  p_digest : string;
}

(** The failure-free platform pass. [~journal:true] turns on
    checkpoint/replay bookkeeping on every core without consuming it —
    journaling is pure reads and clones, so the observations must be
    byte-identical with it on or off (the inertness pin). [?items]
    supplies a pre-drawn trace instead of calling [r_trace] — required
    when a caller compares two passes of a case whose generator is
    stateful (the UPF composition's mobile gateway). *)
val observe_platform :
  ?plan:Faultgen.t -> ?journal:bool -> ?rplan:Platform.Recovery.plan ->
  ?items:Workload.item list -> cores:int -> rcase -> pass

(** Completion/drop/fault/wire-byte totals over a pass's live cores. *)
val pass_totals : pass -> int * int * int * int

(** First behavioural difference between the reference and the [variant]
    pass (the label in the message), or [None]: with [~totals] (default
    off) the {!pass_totals} first, then the per-flow streams and the state
    digest. *)
val diff_passes :
  ?totals:bool -> variant:string -> reference:pass -> pass -> string option

(** {!Oracle.violations} of every live core's observation. *)
val pass_violations : pass -> (string * Oracle.violation) list

(** {2 The platform outcome}

    One record for the recovery, SCR and adaptive axes; [oc_extra] holds
    what only one axis reports. *)
type 'x outcome = {
  oc_case : string;
  oc_packets : int;
  oc_summary : string;  (** the axis's counters, rendered *)
  oc_verdict : string;  (** what a passing line says *)
  oc_reference : pass;  (** the failure-free / single-core reference *)
  oc_variant : pass;  (** the recovered, SCR or adaptive pass *)
  oc_violations : (string * Oracle.violation) list;
  oc_divergence : string option;
  oc_repro : string;  (** one-command replay of the case under this axis *)
  oc_extra : 'x;
}

(** No violations and no divergence. *)
val passed : 'x outcome -> bool

(** [CASE SUMMARY: VERDICT]; a failing line names the divergence or the
    first violation and ends in [replay: gunfu_cli ...]. *)
val pp_outcome : Format.formatter -> 'x outcome -> unit

(** [gunfu_cli COMMAND] plus the case's selector, seed and packets, plus
    [flags]. *)
val repro : rcase -> command:string -> string list -> string

(** {2 The recovery axis} *)

type kill = {
  k_cores : int;
  k_kill : (int * int) option;  (** (victim core, global kill index) *)
  k_replayed : int;  (** journal-suffix completions replayed by the adopter *)
  k_checkpoints : int;  (** checkpoints the victim took *)
}

(** Run the failure-free reference and the killed-and-recovered pass and
    compare. The kill schedule comes from [?kill] (explicit), else
    [?plan]'s {!Faultgen.decide_kill}, else no kill (the passes coincide).
    [?plan] also drives packet-fault injection, keyed by global stream
    index so the schedule is sharding-independent. *)
val check_case :
  ?plan:Faultgen.t -> ?kill:int * int -> ?rplan:Platform.Recovery.plan -> cores:int ->
  rcase -> kill outcome

(** {2 Building blocks of the SCR and adaptive axes} *)

(** One instance per core of a fresh [cores]-core platform built from the
    case's config, core [c] holding the flows [owned c]. *)
val instances : rcase -> cores:int -> owned:(int -> int array) -> core_instance array

(** A core instance as an SCR replica. *)
val replica : core_instance -> Scaleout.Scr.replica

(** Named counters summed across cores, sorted by name. *)
val sum_counters : (string * int) list list -> (string * int) list

(** Location-independent final-state digest: every universe flow's NF
    state read from core [owner_of flow], its containment state in that
    core's plane, then the counters summed over [live] cores. *)
val state_digest :
  universe:int -> owner_of:(int -> int) -> live:(int -> bool) -> core_instance array ->
  Fault.t array -> string

(** The traced stream as one core's source: each pull clones the pristine
    packet into [pool] and arms [plan] at the item's global index. *)
val deliver :
  ?plan:Faultgen.t -> plane:Fault.t -> pool:Netcore.Packet.Pool.pool ->
  Workload.item list -> Workload.source

(** {2 Case selection}

    One selection for every axis command: [--spec NAME|all] or [programs]
    generated seeds from [seed] over [profile] (default all profiles).
    Oracle cases sweep seed-major, platform cases profile-major. @raise
    Invalid_argument with a one-line message on a non-positive [packets]
    or [programs], an unknown composition or an unknown profile. *)
type _ cases = Oracle_cases : Oracle.case cases | Platform_cases : rcase cases

val select :
  'c cases -> specs_dir:string -> programs:int -> seed:int -> packets:int ->
  ?profile:string -> ?spec:string -> unit -> 'c list
