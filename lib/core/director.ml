(* The director (§III, Fig 4): orchestration and control plane. It holds
   the specification registry, generates configuration templates from
   module parameters, compiles NFs, deploys them onto per-core runtimes and
   exchanges operational statistics with the runtime agents.

   The runtime agent's side of the protocol is deliberately in-process:
   deployments hold direct references to their workers. *)

exception Director_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Director_error s)) fmt

type config = (string * string) list

(* Builds the per-core data plane from an operator-filled configuration:
   instantiates substrate state on the worker and returns the compiled
   program plus the core's traffic slice. *)
type builder =
  config -> Worker.t -> core:int -> Program.t * Workload.source

type deployment = {
  d_name : string;
  d_platform : Platform.t;
  d_config : config;
  d_builder : builder;
}

type t = {
  mutable modules : Spec.module_spec list;
  mutable nfs : Spec.nf_spec list;
  mutable deployments : deployment list;
}

let create () = { modules = []; nfs = []; deployments = [] }

let register_module t spec =
  Spec.validate_module spec;
  if List.exists (fun m -> m.Spec.m_name = spec.Spec.m_name) t.modules then
    fail "module %s already registered" spec.Spec.m_name;
  t.modules <- spec :: t.modules

let register_nf t nf =
  Spec.validate_nf nf ~known_modules:(List.map (fun m -> m.Spec.m_name) t.modules);
  t.nfs <- nf :: t.nfs

let find_module t name = List.find_opt (fun m -> m.Spec.m_name = name) t.modules
let find_nf t name = List.find_opt (fun n -> n.Spec.n_name = name) t.nfs

(* Configuration generator (§III): the template an operator must fill —
   the union of the parameters of every module the NF instantiates. *)
let config_template t nf_name =
  match find_nf t nf_name with
  | None -> fail "unknown NF %s" nf_name
  | Some nf ->
      List.concat_map
        (fun (_, mtype) ->
          match find_module t mtype with
          | None -> fail "NF %s uses unregistered module %s" nf_name mtype
          | Some m -> m.Spec.m_parameters)
        nf.Spec.n_modules
      |> List.sort_uniq compare
      |> List.map (fun p -> (p, ""))

let validate_config template config =
  List.iter
    (fun (key, _) ->
      if not (List.mem_assoc key config) then fail "configuration missing parameter %s" key)
    template

(* Deploy: start per-core runtimes and hand each its configuration. *)
let deploy t ~name ~cores ?(cfg = Worker.default_cfg) ~config ~builder () =
  if List.exists (fun d -> d.d_name = name) t.deployments then
    fail "deployment %s already exists" name;
  let d =
    {
      d_name = name;
      d_platform = Platform.create ~cfg ~cores ();
      d_config = config;
      d_builder = builder;
    }
  in
  t.deployments <- d :: t.deployments;
  d

(* Run the deployment under an executor; runtime agents report their
   statistics back to the director. *)
let run (d : deployment) (exec : Exec.t) =
  let setup w core = d.d_builder d.d_config w ~core in
  Metrics.merge_parallel (Platform.run d.d_platform ~setup ~execute:(Exec.run exec))
