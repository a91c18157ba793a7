(* The NF catalog: builds runnable network functions directly from on-disk
   specifications (the Fig 4 workflow — architects write YAML, the director
   compiles it against the NFAction implementation library).

   Instances follow the shipped naming convention: "<prefix>_<role>" where
   the role suffix picks the implementation family —

     cls -> flow classifier     map -> NAT mapper     lrn -> NAT learner
     fwd -> LB forwarder        flt -> firewall       acc -> monitor

   Each prefix becomes one NF object; the module specs supplied (typically
   parsed from specs/*.yaml) replace the built-in ones, so the file's FSM
   genuinely drives execution. *)

open Gunfu

exception Catalog_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Catalog_error s)) fmt

type built = {
  program : Program.t;
  populate : Netcore.Flow.t array -> unit;
  nf_names : string list;  (* prefixes, in chain order *)
  digest : Fingerprint.t -> unit;
  snapshots : snapshotter list;  (* one per stateful NF, chain order *)
}

(* Per-NF state migration capability: what the recovery plane needs to
   checkpoint an NF, re-home its flows and compare state across homes
   without knowing the family. [sn_flow_digest] feeds the *per-flow*
   observable state (location-independent, unlike {!built.digest} which is
   slot-layout-sensitive) — the basis of the oracle's recovery axis. *)
and snapshotter = {
  sn_name : string;  (* NF prefix *)
  sn_export : Netcore.Flow.t list -> string;
  sn_evict : Netcore.Flow.t list -> unit;
  sn_import : string -> int;
  sn_apply : string -> int;  (* SCR update upsert: overwrite-or-admit *)
  sn_flow_digest : Fingerprint.t -> Netcore.Flow.t -> unit;
}

(* Observable state per family, fed in chain order so two runs of the same
   composition produce equal digests iff their final NF state is equal. *)
let digest_nat (nat : Nat.t) fp =
  Fingerprint.feed_string fp nat.Nat.name;
  Array.iter (fun ip -> Fingerprint.feed_int64 fp (Int64.of_int32 ip)) nat.Nat.map_ip;
  Fingerprint.feed_int_array fp nat.Nat.map_port;
  Fingerprint.feed_int fp nat.Nat.next_free;
  Fingerprint.feed_int fp nat.Nat.learned;
  Fingerprint.feed_int64_array fp nat.Nat.keys

let digest_lb (lb : Lb.t) fp =
  Fingerprint.feed_string fp lb.Lb.name;
  Fingerprint.feed_int_array fp lb.Lb.assignment

let digest_fw (fw : Firewall.t) fp =
  Fingerprint.feed_string fp fw.Firewall.name;
  Array.iter (Fingerprint.feed_bool fp) fw.Firewall.verdicts

let digest_nm (nm : Monitor.t) fp =
  Fingerprint.feed_string fp nm.Monitor.name;
  Fingerprint.feed_int_array fp nm.Monitor.pkt_count;
  Fingerprint.feed_int_array fp nm.Monitor.byte_count

(* One NF's codec bound to the instance. *)
let snap name (c : 'nf Migration.codec) (nf : 'nf) =
  {
    sn_name = name;
    sn_export = Migration.export c nf;
    sn_evict = Migration.evict c nf;
    sn_import = Migration.import c nf;
    sn_apply = Migration.apply c nf;
    sn_flow_digest = Migration.flow_digest c nf;
  }

let prefix_of inst =
  match String.rindex_opt inst '_' with
  | Some i -> (String.sub inst 0 i, String.sub inst (i + 1) (String.length inst - i - 1))
  | None -> fail "instance %s does not follow the <prefix>_<role> convention" inst

(* Which NF family a prefix's role set denotes. *)
type family = Nat_f | Lb_f | Fw_f | Nm_f

let family_of_roles prefix roles =
  let has r = List.mem r roles in
  if not (has "cls") then fail "NF %s has no classifier instance" prefix
  else if has "map" then Nat_f
  else if has "fwd" then Lb_f
  else if has "flt" then Fw_f
  else if has "acc" then Nm_f
  else fail "cannot infer the NF family of %s from roles %s" prefix (String.concat "," roles)

(* Instantiate the NF objects a composition needs and substitute the
   supplied module specs — everything [build] does short of compiling, so
   {!view} can compile without the populate and digest closures. *)
let assemble layout ~(nf : Spec.nf_spec) ~modules ~n_flows =
  (* Group instances by prefix, preserving chain order. *)
  let order = ref [] in
  let roles : (string, (string * string) list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (inst, mtype) ->
      let prefix, role = prefix_of inst in
      if not (Hashtbl.mem roles prefix) then order := prefix :: !order;
      Hashtbl.replace roles prefix
        ((role, mtype) :: Option.value ~default:[] (Hashtbl.find_opt roles prefix)))
    nf.Spec.n_modules;
  let order = List.rev !order in
  (* One NF object per prefix; collect its compiler instances + populate +
     state digest. *)
  let populates = ref [] in
  let digests = ref [] in
  let snaps = ref [] in
  let instances =
    List.concat_map
      (fun prefix ->
        let role_list = Hashtbl.find roles prefix in
        let role_names = List.map fst role_list in
        let has_learner = List.mem "lrn" role_names in
        match family_of_roles prefix role_names with
        | Nat_f ->
            let nat = Nat.create layout ~name:prefix ~n_flows () in
            populates := Nat.populate nat :: !populates;
            digests := digest_nat nat :: !digests;
            snaps := snap prefix Migration.nat nat :: !snaps;
            let u = if has_learner then Nat.dynamic_unit nat else Nat.unit nat in
            u.Nf_unit.instances
        | Lb_f ->
            let lb = Lb.create layout ~name:prefix ~n_flows () in
            populates := Lb.populate lb :: !populates;
            digests := digest_lb lb :: !digests;
            snaps := snap prefix Migration.lb lb :: !snaps;
            (Lb.unit lb).Nf_unit.instances
        | Fw_f ->
            let fw = Firewall.create layout ~name:prefix ~n_flows () in
            populates := Firewall.populate fw :: !populates;
            digests := digest_fw fw :: !digests;
            snaps := snap prefix Migration.firewall fw :: !snaps;
            (Firewall.unit fw).Nf_unit.instances
        | Nm_f ->
            let nm = Monitor.create layout ~name:prefix ~n_flows () in
            populates := Monitor.populate nm :: !populates;
            digests := digest_nm nm :: !digests;
            snaps := snap prefix Migration.monitor nm :: !snaps;
            (Monitor.unit nm).Nf_unit.instances)
      order
  in
  (* Use the on-disk module specs: the file's FSM drives execution. *)
  let instances =
    List.map
      (fun (inst : Compiler.instance) ->
        match List.assoc_opt inst.Compiler.i_spec.Spec.m_name modules with
        | Some on_disk -> { inst with Compiler.i_spec = on_disk }
        | None ->
            fail "NF %s needs module type %s but no spec was supplied" nf.Spec.n_name
              inst.Compiler.i_spec.Spec.m_name)
      instances
  in
  (* Every instance the composition names must exist, with matching type. *)
  List.iter
    (fun (inst_name, mtype) ->
      match List.find_opt (fun i -> i.Compiler.i_name = inst_name) instances with
      | None -> fail "composition names instance %s which the catalog did not build" inst_name
      | Some i ->
          if i.Compiler.i_spec.Spec.m_name <> mtype then
            fail "instance %s is a %s, composition says %s" inst_name
              i.Compiler.i_spec.Spec.m_name mtype)
    nf.Spec.n_modules;
  (instances, List.rev !populates, List.rev !digests, order, List.rev !snaps)

let build layout ~(nf : Spec.nf_spec) ~modules ~n_flows
    ?(opts = Compiler.default_opts) () =
  let instances, populates, digests, order, snaps =
    assemble layout ~nf ~modules ~n_flows
  in
  let program = Compiler.compile ~opts ~name:nf.Spec.n_name instances nf in
  {
    program;
    populate = (fun flows -> List.iter (fun p -> p flows) populates);
    nf_names = order;
    digest = (fun fp -> List.iter (fun d -> d fp) digests);
    snapshots = snaps;
  }

(* Convenience: read and build from files. A directory opens fine on
   Linux but fails the length query with EOVERFLOW, so name it first. *)
let read_file path =
  if Sys.file_exists path && Sys.is_directory path then
    raise (Sys_error (path ^ ": is a directory"));
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_modules dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".yaml")
  |> List.filter_map (fun f ->
         match Spec.module_spec_of_string (read_file (Filename.concat dir f)) with
         | m -> Some (m.Spec.m_name, m)
         | exception Spec.Spec_error _ -> None (* NF compositions live here too *))

let load_composition ~nf_file ~specs_dir =
  let nf = Spec.nf_spec_of_string (read_file nf_file) in
  let modules = load_modules specs_dir in
  Spec.validate_nf nf ~known_modules:(List.map fst modules);
  (nf, modules)

let build_from_files layout ~nf_file ~specs_dir ~n_flows ?opts () =
  let nf, modules = load_composition ~nf_file ~specs_dir in
  build layout ~nf ~modules ~n_flows ?opts ()

(* The analyzers' path: same assembly as {!build}, returning the whole
   compiler view. *)
let view layout ~(nf : Spec.nf_spec) ~modules ~n_flows ?opts () =
  let instances, _, _, _, _ = assemble layout ~nf ~modules ~n_flows in
  Compiler.view ?opts ~name:nf.Spec.n_name instances nf

let view_from_files layout ~nf_file ~specs_dir ~n_flows ?opts () =
  let nf, modules = load_composition ~nf_file ~specs_dir in
  view layout ~nf ~modules ~n_flows ?opts ()
