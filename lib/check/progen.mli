(** Deterministic generation of random-but-valid NF programs and
    adversarial traffic for the differential oracle: catalog chains drawn
    from the shipped NF families, synthetic random-DAG modules behind a
    real classifier, and cases built from the compositions under [specs/].
    Everything is a pure function of its seed, so a reported divergence is
    replayable from [(seed, profile, packets)] alone.

    Generated programs avoid cross-flow-order-dependent state (e.g. the
    dynamic NAT learner's shared allocator), whose final state legitimately
    differs between legal interleavings. *)

(** ["uniform"; "zipf"; "burst"; "mix"]. *)
val profiles : string list

(** Composition names accepted by {!spec_case}. *)
val spec_names : string list

(** Workload over [gen]'s flow universe in the given profile; [burst]
    produces single-flow runs, [mix] tightly interleaved hot flows.
    @raise Invalid_argument on unknown profiles. *)
val make_source :
  profile:string -> seed:int -> gen:Traffic.Flowgen.t ->
  pool:Netcore.Packet.Pool.pool -> packets:int -> Gunfu.Workload.source

(** A generated oracle case (chain or synthetic, chosen by the seed).
    @raise Gunfu.Compiler.Compile_error when its program fails
    {!check_recipe}. *)
val case : seed:int -> profile:string -> packets:int -> Oracle.case

(** [--programs 1 --profile P]: the command-line selector of a generated
    case, oracle or platform. *)
val gen_selector : profile:string -> string

(** {2 Recovery-plane building blocks}

    The core-failure engine rebuilds one instance of a generated program
    per simulated core, each populated with only the flows that core owns
    — so the pieces behind {!case} (shape draws, flow universe, unit
    assembly) are exposed as data here. *)

(** The flow universe a generated case draws traffic from. *)
val flowgen_for : profile:string -> seed:int -> n_flows:int -> Traffic.Flowgen.t

(** The deliberately small memory system generated cases run under
    (pressure makes reordering bugs observable). *)
val small_mem_cfg : Memsim.Hierarchy.config

val fresh_worker : unit -> Gunfu.Worker.t

(** Catalog chain families drawn by the chain shape. *)
type family = F_nat | F_lb | F_fw | F_nm

val chain_spec : family list -> Gunfu.Spec.nf_spec
val builtin_modules : (string * Gunfu.Spec.module_spec) list Lazy.t

(** Per-state shape of the synthetic random DAG. *)
type sstate = { s_hi : int option; s_drop : bool }

(** The synthetic shape's draws plus the module spec they determine. *)
type syn_shape = {
  syn_k : int;
  syn_states : sstate array;
  syn_mspec : Gunfu.Spec.module_spec;
  syn_flows : int;
  syn_opts : Gunfu.Compiler.opts;
}

(** The synthetic unit's mutable state: arrays indexed by local slot,
    [syn_ident] mapping each slot to the flow's universe id (what the
    action mixer keys on — flow behaviour is placement-independent). *)
type syn_state = {
  syn_classifier : Nfs.Classifier.t;
  syn_seqs : int array;
  syn_scratch : int array;
  syn_total : int ref;
  syn_ident : int array;
  mutable syn_next : int;
}

(** The unit behind the shape, its oracle digest, and its state handle.
    [ident] gives each populated slot's universe flow id (default: the
    slot index). *)
val synthetic_unit :
  Memsim.Layout.t -> seed:int -> sh:syn_shape -> ?ident:int array ->
  flows:Netcore.Flow.t array -> unit ->
  Nfs.Nf_unit.t * (Gunfu.Fingerprint.t -> unit) * syn_state

(** The generated program behind a seed as data: the whole draw
    sequence of {!case}, so [recipe ~seed] describes the program
    [case ~seed ...] would build. *)
type gen_recipe =
  | Chain of { families : family list; n_flows : int; opts : Gunfu.Compiler.opts }
  | Synthetic of { shape : syn_shape }

val recipe : seed:int -> gen_recipe

(** Compile the recipe's program under its own opts and run
    {!Analysis.Register.check} on it: every generated program must be
    lint-clean and pass translation validation. {!case} calls it once
    per case. @raise Gunfu.Compiler.Compile_error otherwise. *)
val check_recipe : seed:int -> gen_recipe -> unit

(** The UPF downlink assembly behind the [upf_downlink] spec case: the
    shipped UPF's instances with module FSMs substituted from [specs_dir].
    With [capacity >= 0] the UPF starts empty (sessions arrive through the
    PFCP admission path — the recovery/storm variant); default is the
    pre-populated oracle shape. *)
val upf_assembly :
  ?capacity:int -> Memsim.Layout.t -> specs_dir:string -> mgw:Traffic.Mgw.t ->
  Nfs.Upf.t * Gunfu.Compiler.instance list * Gunfu.Spec.nf_spec

(** One case per composition in [specs_dir] (nat, sfc4, upf_downlink),
    executing the on-disk module FSMs. [opts] overrides the compiler
    options (default {!Gunfu.Compiler.default_opts}). *)
val spec_cases :
  ?opts:Gunfu.Compiler.opts -> specs_dir:string -> seed:int -> packets:int -> unit ->
  Oracle.case list

(** @raise Invalid_argument on unknown composition names. *)
val spec_case :
  ?opts:Gunfu.Compiler.opts -> specs_dir:string -> name:string -> seed:int ->
  packets:int -> unit -> Oracle.case

(** Compiler options with every optimization pass enabled — what the
    translation-validation entry points compile with. *)
val verify_opts : Gunfu.Compiler.opts

(** The generated program at [seed] — the same shape (chain or
    synthetic) the oracle would fuzz — compiled with {!verify_opts} and
    with the specialized hot path installed. *)
val gen_view : seed:int -> Gunfu.Compiler.view

(** A composition in [specs_dir] — the same assembly {!spec_case}
    executes — compiled with [opts] and with the specialized hot path
    installed: the input of both the lint and the verifyeq subcommands.
    Accepts any catalog-buildable composition plus ["upf_downlink"]. *)
val spec_view :
  opts:Gunfu.Compiler.opts -> specs_dir:string -> name:string -> unit ->
  Gunfu.Compiler.view

(** A random well-formed NF-C program (pure function of [seed]), built
    through {!Gunfu.Nfc.of_body} — the subject of the
    parse-print round-trip property. *)
val random_nfc : seed:int -> Gunfu.Nfc.t
