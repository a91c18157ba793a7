(** Differential execution oracle: run one program + workload through every
    executor (RTC as the semantic reference; Batch_rtc over several batch
    sizes; Scheduler over both policies × several task counts) and diff the
    observable behaviour — emitted packet streams, drop/emit/byte counts,
    per-flow output order, final NF state — and check the
    executor-independent invariants on every observation of the same scan.
    Divergences come with a minimized, seed-replayable repro.

    Executors mutate packets and NF state in place, so a {!case} builds a
    fresh {!instance} (worker, program, state, workload) per run from its
    deterministic seed. *)

open Gunfu

type emit = {
  e_flow : int;  (** workload flow hint; -1 = unordered *)
  e_aux : int;
  e_event : string;  (** terminal event key *)
  e_dropped : bool;
  e_wire : int;
  e_pkt : string;  (** fingerprint of the final header bytes; [""] if none *)
  e_pktid : int;  (** run-local packet id, for order checks *)
  e_clock : int;  (** simulated completion time *)
}

type observation = {
  o_label : string;
  o_run : Metrics.run;
  o_emits : emit list;  (** completion order *)
  o_inputs : (int * int) list;  (** (pktid, flow) in pull order *)
  o_state : string;  (** final NF-state digest *)
  o_mshr_pending : int;  (** outstanding fills at end of run *)
  o_mshr_limit : int;
}

type instance = {
  worker : Worker.t;
  program : Program.t;
  source : Workload.source;
  digest : Fingerprint.t -> unit;
}

type case = {
  c_name : string;
  c_seed : int;
  c_profile : string;
  c_packets : int;
  c_build : packets:int -> instance;  (** fresh system under test *)
  c_selector : string;
      (** the command-line flags that select this case
          ([--programs 1 --profile P] or [--spec NAME]) *)
}

type divergence = {
  d_case : string;
  d_seed : int;
  d_profile : string;
  d_exec : string;
  d_packets : int;  (** minimized workload length *)
  d_detail : string;
  d_repro : string;
}

type violation = { v_rule : string; v_detail : string }

(** One scan of a case through the executor matrix. *)
type scan = {
  sc_reference : observation;  (** the interpreted RTC reference *)
  sc_violations : (string * violation) list;
      (** invariant violations of every observation, tagged with its label *)
  sc_divergence : divergence option;  (** the first divergence, minimized *)
  sc_repro : string;  (** replays the whole case *)
}

(** The semantic reference: [`Rtc]. *)
val reference : Exec.t

(** Everything compared against {!reference}: batch sizes {1,8,32}, both
    scheduler policies × n_tasks {1,2,4,8,16}. *)
val executors : Exec.t list

val executor_names : string list

val packet_fingerprint : Netcore.Packet.t -> string

(** What a packet's journey must look like regardless of executor (or,
    for the recovery plane, regardless of which core processed it): the
    packet id is deliberately excluded — ids are run-local. *)
val emit_content : emit -> int * int * string * bool * int * string

(** Emit contents grouped per flow hint in completion order, sorted by
    flow — the per-flow stream comparison surface. *)
val per_flow_streams :
  emit list -> (int * (int * int * string * bool * int * string) list) list

(** {2 The completion recorder}

    Every axis observes a run the same way: one {!emit} per completion,
    one (pktid, flow) input per pull, the memory system's MSHR state at
    the end. *)

(** The emit for a completed task at simulated time [clock]. *)
val emit_of_task : clock:int -> Nftask.t -> emit

(** Assemble an observation; MSHR occupancy is read from [ctx] now.
    [state] defaults to [""] (the platform axes digest state per pass). *)
val observation :
  label:string -> ?state:string -> inputs:(int * int) list -> Exec_ctx.t ->
  Metrics.run -> emit list -> observation

(** [record ~label ctx source exec] runs [exec ~on_complete source'] where
    [source'] taps [source]'s inputs and [on_complete] records emits at
    [ctx]'s clock, then assembles the observation; [state] is read after
    the run. *)
val record :
  label:string -> ?state:(unit -> string) -> Exec_ctx.t -> Workload.source ->
  (on_complete:(Nftask.t -> unit) -> Workload.source -> Metrics.run) -> observation

(** Run one executor over a fresh instance, recording all observables.
    With [~specialize:true] the compiled hot path (see {!Specialize}) is
    installed on the instance's program before the run and the label gains
    a ["+spec"] suffix; with [false] (the default) any payload is stripped,
    so the interpreted baseline genuinely interprets even on a shared
    program. With [?plan], a fresh fault plane is created for the run, the
    source is instrumented with the plan's deterministic injection schedule
    (see {!Faultgen.instrument}) and the plane is handed to the executor —
    so two observations of the same case under the same plan see identical
    fault schedules. [?telemetry] attaches the span tracer for the run;
    because its hooks never charge cycles, the observation is identical
    with or without it (the inertness test pins this). *)
val observe :
  ?specialize:bool -> ?plan:Faultgen.t -> ?telemetry:Trace.t -> Exec.t -> instance ->
  observation

(** {2 Executor-independent invariants}

    Checked on every observation: packet conservation (pulled = emitted +
    dropped + faulted, counters agree), per-flow order preservation,
    monotone simulated clock, and memory-hierarchy accounting (per-level
    serves sum to line accesses, counters non-negative, outstanding fills
    within the MSHR budget). *)

(** A completion the fault plane quarantined ([FAULT[reason]] event). *)
val emit_faulted : emit -> bool

val check_conservation : observation -> violation list
val check_flow_order : observation -> violation list
val check_clock : observation -> violation list
val check_memstats : observation -> violation list

(** All of the above. *)
val check_invariants : observation -> violation list

(** {!check_invariants}, each violation tagged with the observation's label. *)
val violations : observation -> (string * violation) list

val pp_violation : Format.formatter -> violation -> unit

(** {2 Diffing and the scan} *)

(** First behavioural difference against the reference observation, or
    [None] when identical. Under faults this additionally diffs the
    faulted-completion counts, the degraded flags and the per-NF
    per-reason taxonomy. *)
val diff_observations : reference:observation -> observation -> string option

(** Rebuild + rerun reference and [exec] on a [packets]-long prefix. The
    reference is always interpreted; [?specialize] applies to [exec]. *)
val diverges :
  ?plan:Faultgen.t -> ?specialize:bool -> case -> Exec.t -> packets:int ->
  string option

(** Smallest prefix length still diverging (binary search; repro aid, not
    a minimality proof). *)
val minimize :
  ?plan:Faultgen.t -> ?specialize:bool -> case -> Exec.t -> packets:int -> int

(** [gunfu_cli COMMAND SELECTOR --seed S --packets N FLAGS...]: the case
    supplies selector, seed and packets, the axis its command and flags. *)
val repro :
  command:string -> selector:string -> seed:int -> packets:int -> string list -> string

(** [[--rate-ppm R]] for a plan, [[]] without: every axis command derives
    its plan from the case seed, so the rate is all a repro carries. *)
val plan_flags : Faultgen.t option -> string list

(** Run the case through every executor, checking {!check_invariants} on
    each observation and diffing it against the reference; the first
    divergence is minimized unless [~minimized:false]. With
    [~specialize:true] the scan widens to the full 28-way matrix: all 14
    executors interpreted plus all 14 under the specialized hot path (the
    reference included), every one diffed against the interpreted
    reference and labelled with a ["+spec"] suffix. [?plan] runs the whole
    comparison under that injection schedule — the chaos mode: executors
    must agree even while faulting. Repros replay through [chaos
    --rate-ppm] under a plan (which the command derives from the case
    seed) and through [check], plus [--specialize], otherwise. *)
val check_case :
  ?minimized:bool -> ?specialize:bool -> ?plan:Faultgen.t -> case -> scan

val pp_divergence : Format.formatter -> divergence -> unit
