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
}

(** prefetching on, dedup on, match removal off. *)
val default_opts : opts

(** One compile, as the static analyzer and the translation validator see
    it: the spec-level program before any pass ([v_orig_*]), the
    post-match-removal form, the declared per-state prefetch policy
    before dedup stripped it, and the finished {!Program.t}. *)
type view = {
  v_name : string;
  v_opts : opts;
  v_orig_instances : instance list;
  v_orig_nf : Spec.nf_spec;
  v_instances : instance list;
  v_nf : Spec.nf_spec;
  v_pre_dedup : Prefetch.target list array;
  v_program : Program.t;
}

(** Run the compile pipeline (validation, match removal, flattening,
    prefetch dedup) and return its {!view}.
    @raise Compile_error (or {!Spec.Spec_error}) on invalid specs, missing
    action implementations or missing prefetch bindings. *)
val view : ?opts:opts -> name:string -> instance list -> Spec.nf_spec -> view

(** The {!view}'s program. @raise Compile_error like {!view}. *)
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
