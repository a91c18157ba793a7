(** NF catalog: build runnable network functions directly from on-disk
    specifications (the Fig 4 workflow), matching instance names of the
    form [<prefix>_<role>] to the shipped implementation families
    (cls/map/lrn/fwd/flt/acc). Supplied module specs replace the built-in
    ones, so the file's FSM genuinely drives execution. *)

open Gunfu

exception Catalog_error of string

type built = {
  program : Program.t;
  populate : Netcore.Flow.t array -> unit;  (** install all per-flow state *)
  nf_names : string list;  (** NF prefixes in chain order *)
  digest : Fingerprint.t -> unit;
      (** fold the chain's observable NF state (mappings, assignments,
          verdicts, counters) into a stable fingerprint, in chain order *)
  snapshots : snapshotter list;
      (** one per stateful NF, chain order — the recovery plane's
          family-agnostic checkpoint/re-home/compare surface *)
}

(** Per-NF state migration capability. [sn_flow_digest] feeds one flow's
    observable state — location-independent, unlike {!built.digest} which
    is slot-layout-sensitive — making state comparable between an NF that
    learned the flow and one that adopted it after a core failure. *)
and snapshotter = {
  sn_name : string;  (** NF prefix *)
  sn_export : Netcore.Flow.t list -> string;
  sn_evict : Netcore.Flow.t list -> unit;
  sn_import : string -> int;
  sn_apply : string -> int;
      (** SCR update upsert: overwrite a resident flow's state in place,
          admit an absent one (see {!Migration.apply}) *)
  sn_flow_digest : Fingerprint.t -> Netcore.Flow.t -> unit;
}

(** @raise Catalog_error on unknown roles, missing specs or mismatched
    compositions; @raise Gunfu.Compiler.Compile_error downstream. *)
val build :
  Memsim.Layout.t -> nf:Spec.nf_spec -> modules:(string * Spec.module_spec) list ->
  n_flows:int -> ?opts:Compiler.opts -> unit -> built

(** @raise Sys_error ["<path>: is a directory"] on a directory. *)
val read_file : string -> string

(** All module specs parseable from [dir]'s [.yaml] files. *)
val load_modules : string -> (string * Spec.module_spec) list

(** Parse [nf_file], load module specs from [specs_dir], validate, build. *)
val build_from_files :
  Memsim.Layout.t -> nf_file:string -> specs_dir:string -> n_flows:int ->
  ?opts:Compiler.opts -> unit -> built

(** Same assembly as {!build}, returning the whole
    {!Gunfu.Compiler.view} — what the static analyzer and the
    translation validator read. *)
val view :
  Memsim.Layout.t -> nf:Spec.nf_spec -> modules:(string * Spec.module_spec) list ->
  n_flows:int -> ?opts:Compiler.opts -> unit -> Compiler.view

(** {!view} over files, parsed and validated as {!build_from_files} does. *)
val view_from_files :
  Memsim.Layout.t -> nf_file:string -> specs_dir:string -> n_flows:int ->
  ?opts:Compiler.opts -> unit -> Compiler.view
