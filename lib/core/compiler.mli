(** The director compiler (§VI): specifications + the NFAction
    implementation library -> an executable {!Program}.

    Passes: flattening of module FSMs along the NF-level wiring;
    redundant-matching removal (classifier instances repeating an earlier
    instance's key reuse its match result and disappear); and
    redundant-prefetch removal (a forward must-analysis strips prefetch
    targets already fetched on every path and not invalidated since). *)

exception Compile_error of string

(** A module instance: its spec, the action implementation per control
    state, the binding from spec state names to prefetch targets, and — for
    classifiers — the key kind they match on (equal key kinds make a later
    classifier redundant). *)
type instance = {
  i_name : string;
  i_spec : Spec.module_spec;
  i_actions : (string * Action.t) list;
  i_bindings : (string * Prefetch.target) list;
  i_key_kind : string option;
}

type opts = {
  match_removal : bool;
  prefetch_dedup : bool;
  prefetching : bool;  (** [false]: compile with empty prefetch policies *)
  lint : bool;
      (** run the static analyzer (the [analysis] library, reached
          through {!set_lint_hook}) on every compile: it prints findings
          and fails compilation on error-severity ones *)
  verify_passes : bool;
      (** translation validation (the [analysis] library's symbolic
          checker, reached through {!set_verify_hook}): prove each
          optimization pass preserved observations. A refuted pass fails
          the compile; [Unknown] verdicts only warn — the dynamic oracle
          still covers them. *)
  specialize : bool;
      (** attach the specialized hot path ({!Specialize.install}) to the
          compiled program *)
}

(** prefetching on, dedup on, match removal off, lint off, verification
    off, specialize off. *)
val default_opts : opts

(** What the analyzer sees: the compile pipeline stopped just before
    prefetch dedup — instances and NF wiring post match-removal, the
    flattened FSM, and per-state info with the full declared prefetch
    policy. *)
type lint_input = {
  li_name : string;
  li_instances : instance list;
  li_nf : Spec.nf_spec;
  li_fsm : Fsm.t;
  li_info : Program.cs_info array;
  li_start : int;
  li_done : int;
  li_opts : opts;
}

(** Install the analyzer, run on every compile whose [opts.lint] is set.
    The hook is expected to print warning-severity findings and raise
    {!Compile_error} on error-severity findings. *)
val set_lint_hook : (lint_input -> unit) -> unit

(** Build a {!lint_input} without running dedup or the hook (the [lint]
    subcommand's entry point). @raise Compile_error / {!Spec.Spec_error}
    like {!compile}. *)
val lint_view :
  ?opts:opts -> name:string -> instance list -> Spec.nf_spec -> lint_input

(** What the translation validator sees: the spec-level program before
    any pass ([vi_orig_*]), the post-match-removal form, the declared
    per-state prefetch policy before dedup stripped it, and the finished
    {!Program.t} (with the specialized hot path installed when
    [vi_opts.specialize]). *)
type verify_input = {
  vi_name : string;
  vi_opts : opts;
  vi_orig_instances : instance list;
  vi_orig_nf : Spec.nf_spec;
  vi_instances : instance list;
  vi_nf : Spec.nf_spec;
  vi_pre_dedup : Prefetch.target list array;
  vi_program : Program.t;
}

(** Install the translation validator. The hook is expected to print
    warning-severity findings and raise {!Compile_error} on refutations
    when [vi_opts.verify_passes] is set. *)
val set_verify_hook : (verify_input -> unit) -> unit

(** Run the full compile pipeline (validation, match removal, flattening,
    dedup, specialization) WITHOUT the lint/verify hooks and return the
    validator's input — for standalone checking (CLI, fuzzing) where the
    caller interprets the verdicts itself.
    @raise Compile_error / {!Spec.Spec_error} like {!compile}. *)
val verify_view :
  ?opts:opts -> name:string -> instance list -> Spec.nf_spec -> verify_input

(** @raise Compile_error (or {!Spec.Spec_error}) on invalid specs, missing
    action implementations, missing prefetch bindings, or — with
    [opts.lint] set — error-severity analyzer findings. *)
val compile : ?opts:opts -> name:string -> instance list -> Spec.nf_spec -> Program.t

(** Exposed for tests: the match-removal rewrite on the instance graph. *)
val remove_redundant_matching :
  instance list -> Spec.nf_spec -> instance list * Spec.nf_spec

(** The forward must-analysis behind redundant-prefetch removal, on the
    shared {!Dataflow} fixpoint: per-state prefetch targets available on
    entry ([ins]) / exit ([outs]) along every path from [start]. The
    analyzer's cold-access and short-distance lints reuse it. *)
val prefetch_availability :
  Program.cs_info array -> Fsm.t -> start:int -> Prefetch.target list Dataflow.result
