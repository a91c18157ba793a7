(** The director (§III, Fig 4): orchestration and control plane — the
    specification registry, configuration-template generation, compilation
    and deployment onto per-core runtimes, and the exchange of operational
    statistics with runtime agents. *)

exception Director_error of string

type config = (string * string) list

(** Builds the per-core data plane from an operator-filled configuration. *)
type builder = config -> Worker.t -> core:int -> Program.t * Workload.source

type deployment

type t

val create : unit -> t

(** @raise Director_error on duplicates; @raise Spec.Spec_error on invalid
    specs. *)
val register_module : t -> Spec.module_spec -> unit

val register_nf : t -> Spec.nf_spec -> unit
val find_module : t -> string -> Spec.module_spec option
val find_nf : t -> string -> Spec.nf_spec option

(** The template an operator must fill: the union of the parameters of
    every module the NF instantiates. @raise Director_error on unknown
    NFs. *)
val config_template : t -> string -> config

(** @raise Director_error when a template parameter is missing. *)
val validate_config : config -> config -> unit

(** Start per-core runtimes holding the configuration.
    @raise Director_error on duplicate deployment names. *)
val deploy :
  t -> name:string -> cores:int -> ?cfg:Worker.cfg -> config:config ->
  builder:builder -> unit -> deployment

(** Run under an executor; runtime agents report statistics back.
    Returns the merged cross-core run. *)
val run : deployment -> Exec.t -> Metrics.run
