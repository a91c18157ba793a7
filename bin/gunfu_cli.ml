(* gunfu — command-line driver for the GuNFu platform.

     gunfu_cli run --nf sfc4 --model il16 --flows 131072 --packets 50000
     gunfu_cli run --nf upf --model rtc --cores 4
     gunfu_cli inspect --nf nat --match-removal
     gunfu_cli check-spec path/to/module.yaml
     gunfu_cli list
*)

open Cmdliner

type nf_kind =
  | Nat_nf
  | Lb_nf
  | Fw_nf
  | Nm_nf
  | Upf_nf
  | Upf_uplink_nf
  | Amf_nf
  | Sfc_nf of int

let nf_of_string = function
  | "nat" -> Ok Nat_nf
  | "lb" -> Ok Lb_nf
  | "fw" -> Ok Fw_nf
  | "nm" -> Ok Nm_nf
  | "upf" -> Ok Upf_nf
  | "upf-uplink" -> Ok Upf_uplink_nf
  | "amf" -> Ok Amf_nf
  | s when String.length s = 4 && String.sub s 0 3 = "sfc" -> (
      match int_of_string_opt (String.sub s 3 1) with
      | Some n when n >= 2 && n <= 6 -> Ok (Sfc_nf n)
      | _ -> Error (`Msg "sfc length must be 2..6"))
  | s -> Error (`Msg ("unknown NF: " ^ s))

let nf_names = "nat, lb, fw, nm, upf, upf-uplink, amf, sfc2..sfc6"

let model_forms =
  "rtc, batch (= batch-32), batch-N, ilN (= il-rr-N-d1), il-rr-N-dD, il-rf-N-dD"

(* Build the requested NF on a worker; returns the program and a source
   factory. *)
let build nf ~flows ~packed ~opts worker =
  let layout = Gunfu.Worker.layout worker in
  let pool = Netcore.Packet.Pool.create layout ~count:1024 in
  let flow_src gen ~count = Gunfu.Workload.of_flowgen gen ~pool ~count in
  let simple_gen () =
    Traffic.Flowgen.create ~seed:1 ~n_flows:flows
      ~size_model:(Traffic.Flowgen.Fixed 128) ()
  in
  match nf with
  | Nat_nf ->
      let gen = simple_gen () in
      let nat = Nfs.Nat.create layout ~name:"nat" ~n_flows:flows () in
      Nfs.Nat.populate nat (Traffic.Flowgen.flows gen);
      (Nfs.Nat.program ~opts nat, flow_src gen)
  | Lb_nf ->
      let gen = simple_gen () in
      let lb = Nfs.Lb.create layout ~name:"lb" ~n_flows:flows () in
      Nfs.Lb.populate lb (Traffic.Flowgen.flows gen);
      (Nfs.Lb.program ~opts lb, flow_src gen)
  | Fw_nf ->
      let gen = simple_gen () in
      let fw = Nfs.Firewall.create layout ~name:"fw" ~n_flows:flows () in
      Nfs.Firewall.populate fw (Traffic.Flowgen.flows gen);
      (Nfs.Firewall.program ~opts fw, flow_src gen)
  | Nm_nf ->
      let gen = simple_gen () in
      let nm = Nfs.Monitor.create layout ~name:"nm" ~n_flows:flows () in
      Nfs.Monitor.populate nm (Traffic.Flowgen.flows gen);
      (Nfs.Monitor.program ~opts nm, flow_src gen)
  | Upf_nf ->
      let mgw = Traffic.Mgw.create ~seed:2 ~n_sessions:flows ~n_pdrs:16 () in
      let upf =
        Nfs.Upf.create layout ~name:"upf" ~sessions:(Traffic.Mgw.sessions mgw)
          ~n_pdrs:16 ()
      in
      Nfs.Upf.populate upf;
      (Nfs.Upf.program ~opts upf, fun ~count -> Gunfu.Workload.of_mgw_downlink mgw ~pool ~count)
  | Upf_uplink_nf ->
      let mgw = Traffic.Mgw.create ~seed:2 ~n_sessions:flows ~n_pdrs:16 () in
      let upf =
        Nfs.Upf.create layout ~name:"upf" ~sessions:(Traffic.Mgw.sessions mgw)
          ~n_pdrs:16 ()
      in
      Nfs.Upf.populate upf;
      let ran_ip = Netcore.Ipv4.addr_of_string "10.200.1.1" in
      let upf_ip = Netcore.Ipv4.addr_of_string "10.200.0.1" in
      ( Nfs.Upf.uplink_program ~opts upf,
        fun ~count ->
          Gunfu.Workload.limited count (fun () ->
              let si, pkt = Traffic.Mgw.next_uplink mgw ~ran_ip ~upf_ip in
              Netcore.Packet.Pool.assign pool pkt;
              { Gunfu.Workload.packet = Some pkt; aux = 0; flow_hint = si }) )
  | Amf_nf ->
      let gen = Traffic.Mgw.amf_create ~seed:3 ~n_ues:flows () in
      let amf = Nfs.Amf.create layout ~name:"amf" ~packed ~n_ues:flows () in
      Nfs.Amf.populate amf;
      (Nfs.Amf.program ~opts amf, fun ~count -> Gunfu.Workload.of_amf gen ~pool ~count)
  | Sfc_nf length ->
      let gen = simple_gen () in
      let sfc = Nfs.Sfc.create layout ~length ~packed ~n_flows:flows () in
      Nfs.Sfc.populate sfc (Traffic.Flowgen.flows gen);
      (Nfs.Sfc.program ~opts sfc, flow_src gen)

(* ----- run command ----- *)

let run_cmd nf model flows packets cores packed match_removal no_prefetch specialize =
  let opts =
    {
      Gunfu.Compiler.match_removal;
      prefetch_dedup = true;
      prefetching = not no_prefetch;
      lint = `Off;
      verify_passes = `Off;
      specialize;
    }
  in
  try
    if cores = 1 then begin
      let worker = Gunfu.Worker.create ~id:0 () in
      let program, source = build nf ~flows ~packed ~opts worker in
      let r = Gunfu.Exec.run model worker program (source ~count:packets) in
      Fmt.pr "%a@." Gunfu.Metrics.pp_row r;
      `Ok ()
    end
    else begin
      let platform = Gunfu.Platform.create ~cores () in
      let setup w _core =
        let program, source = build nf ~flows:(max 1024 (flows / cores)) ~packed ~opts w in
        (program, source ~count:(packets / cores))
      in
      let runs = Gunfu.Platform.run platform ~setup ~execute:(Gunfu.Exec.run model) in
      let merged = Gunfu.Metrics.merge_parallel runs in
      Fmt.pr "%a@." Gunfu.Metrics.pp_row merged;
      Fmt.pr "aggregate over %d cores, capped at the 100G line rate: %.2f Gbps@." cores
        (Gunfu.Metrics.gbps_scaled merged ~cores:1);
      `Ok ()
    end
  with Invalid_argument msg -> `Error (false, msg)

(* ----- inspect command ----- *)

let inspect_cmd nf match_removal =
  let opts = { Gunfu.Compiler.default_opts with Gunfu.Compiler.match_removal } in
  let worker = Gunfu.Worker.create ~id:0 () in
  let program, _ = build nf ~flows:1024 ~packed:false ~opts worker in
  Fmt.pr "%a@." Gunfu.Program.pp program;
  `Ok ()

(* ----- check-spec command ----- *)

let check_spec_cmd path =
  let read_file p =
    let ic = open_in p in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  match read_file path with
  | exception Sys_error e -> `Error (false, e)
  | src -> (
      try
        let looks_like_nf =
          List.exists
            (fun line -> String.length line >= 3 && String.sub line 0 3 = "nf:")
            (String.split_on_char '\n' src)
        in
        if looks_like_nf then begin
          let nf = Gunfu.Spec.nf_spec_of_string src in
          Fmt.pr "NF spec %s: %d module instances, %d transitions - OK@."
            nf.Gunfu.Spec.n_name
            (List.length nf.Gunfu.Spec.n_modules)
            (List.length nf.Gunfu.Spec.n_transitions)
        end
        else begin
          let m = Gunfu.Spec.module_spec_of_string src in
          Gunfu.Spec.validate_module m;
          Fmt.pr "module spec %s (%s): %d control states, %d transitions - OK@."
            m.Gunfu.Spec.m_name m.Gunfu.Spec.m_category
            (List.length (Gunfu.Spec.control_states_of m))
            (List.length m.Gunfu.Spec.m_transitions)
        end;
        `Ok ()
      with Gunfu.Spec.Spec_error msg -> `Error (false, "spec error: " ^ msg))

(* ----- compose command: build and run an NF from on-disk YAML ----- *)

let compose_cmd nf_file specs_dir model flows packets =
  try
    let worker = Gunfu.Worker.create ~id:0 () in
    let layout = Gunfu.Worker.layout worker in
    let built =
      Nfs.Catalog.build_from_files layout ~nf_file ~specs_dir ~n_flows:flows ()
    in
    Fmt.pr "composed %s from %s: NFs [%s]@."
      (Gunfu.Program.name built.Nfs.Catalog.program)
      nf_file
      (String.concat "; " built.Nfs.Catalog.nf_names);
    let gen =
      Traffic.Flowgen.create ~seed:1 ~n_flows:flows
        ~size_model:(Traffic.Flowgen.Fixed 128) ()
    in
    built.Nfs.Catalog.populate (Traffic.Flowgen.flows gen);
    let pool = Netcore.Packet.Pool.create layout ~count:1024 in
    let source = Gunfu.Workload.of_flowgen gen ~pool ~count:packets in
    let r = Gunfu.Exec.run model worker built.Nfs.Catalog.program source in
    Fmt.pr "%a@." Gunfu.Metrics.pp_row r;
    `Ok ()
  with
  | Nfs.Catalog.Catalog_error msg -> `Error (false, "catalog: " ^ msg)
  | Gunfu.Spec.Spec_error msg -> `Error (false, "spec: " ^ msg)
  | Gunfu.Compiler.Compile_error msg -> `Error (false, "compile: " ^ msg)
  | Invalid_argument msg -> `Error (false, msg)
  | Sys_error msg -> `Error (false, msg)

(* ----- check command: the differential execution oracle ----- *)

let check_cmd programs seed packets profile spec specs_dir no_minimize specialize =
  try
    (* Interpreted scan runs all 14 executors (reference included);
       --specialize widens to the 28-way matrix: every executor additionally
       runs under the compiled hot path, diffed against the interpreted
       reference. *)
    let n_variants =
      List.length Check.Oracle.executor_names
      + if specialize then List.length Check.Oracle.executor_names else 0
    in
    let cases =
      match spec with
      | Some "all" -> Check.Progen.spec_cases ~specs_dir ~seed ~packets ()
      | Some name -> (
          try [ Check.Progen.spec_case ~specs_dir ~name ~seed ~packets () ]
          with Invalid_argument m -> raise (Gunfu.Spec.Spec_error m))
      | None -> (
          match profile with
          | Some p when not (List.mem p Check.Progen.profiles) ->
              invalid_arg
                (Printf.sprintf "unknown profile %s (expected one of: %s)" p
                   (String.concat ", " Check.Progen.profiles))
          | Some p ->
              List.init programs (fun i ->
                  Check.Progen.case ~seed:(seed + i) ~profile:p ~packets)
          | None -> Check.Progen.cases ~seed ~count:programs ~packets)
    in
    let divergences = ref 0 in
    let violations = ref 0 in
    List.iter
      (fun (case : Check.Oracle.case) ->
        let diverged =
          match Check.Oracle.check_case ~minimized:(not no_minimize) ~specialize case with
          | Some d ->
              incr divergences;
              Fmt.pr "%a@." Check.Oracle.pp_divergence d;
              true
          | None -> false
        in
        let viols = Check.Invariants.check_case case in
        List.iter
          (fun (exec, viol) ->
            incr violations;
            Fmt.pr "INVARIANT VIOLATION in case %s under %s: %a@,replay: %s@."
              case.Check.Oracle.c_name exec Check.Invariants.pp_violation viol
              (case.Check.Oracle.c_repro ~packets:case.Check.Oracle.c_packets))
          viols;
        if (not diverged) && viols = [] then
          Fmt.pr "case %-18s seed %-6d profile %-8s %d packets x %d variants: agree@."
            case.Check.Oracle.c_name case.Check.Oracle.c_seed
            case.Check.Oracle.c_profile case.Check.Oracle.c_packets n_variants)
      cases;
    if !divergences = 0 && !violations = 0 then begin
      Fmt.pr "oracle: %d cases, %d variants each, no divergence@." (List.length cases)
        n_variants;
      `Ok ()
    end
    else
      `Error
        ( false,
          Printf.sprintf "oracle found %d divergence(s), %d invariant violation(s)"
            !divergences !violations )
  with
  | Nfs.Catalog.Catalog_error msg -> `Error (false, "catalog: " ^ msg)
  | Gunfu.Spec.Spec_error msg -> `Error (false, "spec: " ^ msg)
  | Gunfu.Compiler.Compile_error msg -> `Error (false, "compile: " ^ msg)
  | Invalid_argument msg -> `Error (false, msg)
  | Sys_error msg -> `Error (false, msg)

(* ----- chaos command: the oracle under deterministic fault injection ----- *)

(* --kill-cores: the core-failure axis. Shard each case across [cores],
   schedule a kill from the plan, recover on a survivor via
   checkpoint/replay, and require equality with the failure-free
   reference. *)
(* Case selection shared by the platform axes: --kill-cores recovery,
   chaos --model scr, and the scr command. *)
let platform_rcases programs seed packets profile spec specs_dir =
  match spec with
  | Some "all" ->
      List.map
        (fun name -> Check.Recovery.spec_rcase ~specs_dir ~name ~seed ~packets)
        Check.Progen.spec_names
  | Some name -> [ Check.Recovery.spec_rcase ~specs_dir ~name ~seed ~packets ]
  | None ->
      let profiles =
        match profile with
        | Some p when not (List.mem p Check.Progen.profiles) ->
            invalid_arg
              (Printf.sprintf "unknown profile %s (expected one of: %s)" p
                 (String.concat ", " Check.Progen.profiles))
        | Some p -> [ p ]
        | None -> Check.Progen.profiles
      in
      List.concat_map
        (fun profile ->
          List.init programs (fun i ->
              Check.Recovery.gen_rcase ~seed:(seed + i) ~profile ~packets))
        profiles

let chaos_kill_cores programs seed packets profile spec specs_dir rate_ppm cores
    epoch =
  let rcases = platform_rcases programs seed packets profile spec specs_dir in
  let rplan =
    {
      Gunfu.Platform.Recovery.epoch;
      log_capacity = max epoch Gunfu.Platform.Recovery.default_plan.Gunfu.Platform.Recovery.log_capacity;
    }
  in
  let failed = ref 0 in
  List.iter
    (fun rc ->
      let plan = Check.Faultgen.create ~rate_ppm ~seed:rc.Check.Recovery.r_seed () in
      let oc = Check.Recovery.check_case ~plan ~rplan ~cores rc in
      if not (Check.Recovery.passed oc) then incr failed;
      Fmt.pr "%a@." Check.Recovery.pp_outcome oc)
    rcases;
  if !failed = 0 then begin
    Fmt.pr
      "chaos --kill-cores: %d cases on %d cores (epoch %d): every kill \
       recovered, exactly-once emits, reference equality@."
      (List.length rcases) cores epoch;
    `Ok ()
  end
  else
    `Error
      (false, Printf.sprintf "%d case(s) failed to recover from a core kill" !failed)

(* The SCR axis over a case list: each case at every core count, one
   fault plan per case derived from its own seed (rate 0 = no plan). *)
let scr_axis ~rcases ~cores_list ~rate_ppm ~spray ~engine =
  let failed = ref 0 in
  List.iter
    (fun rc ->
      let plan =
        if rate_ppm = 0 then None
        else Some (Check.Faultgen.create ~rate_ppm ~seed:rc.Check.Recovery.r_seed ())
      in
      List.iter
        (fun cores ->
          let oc = Check.Scrcheck.check_rcase ?plan ~spray ~engine ~cores rc in
          if not (Check.Scrcheck.passed oc) then incr failed;
          Fmt.pr "%a@." Check.Scrcheck.pp_outcome oc)
        cores_list)
    rcases;
  !failed

let chaos_scr programs seed packets profile spec specs_dir rate_ppm cores =
  let rcases = platform_rcases programs seed packets profile spec specs_dir in
  let failed =
    scr_axis ~rcases ~cores_list:[ cores ] ~rate_ppm
      ~spray:Scaleout.Spray.Round_robin ~engine:`Rtc
  in
  if failed = 0 then begin
    Fmt.pr
      "chaos --model scr: %d cases on %d cores at %d ppm: replicas converged, \
       reference equality@."
      (List.length rcases) cores rate_ppm;
    `Ok ()
  end
  else
    `Error
      (false, Printf.sprintf "%d scr case(s) diverged or violated invariants" failed)

let chaos_cmd programs seed packets profile spec specs_dir rate_ppm no_minimize
    kill_cores model cores epoch =
  try
    if kill_cores then
      chaos_kill_cores programs seed packets profile spec specs_dir rate_ppm cores
        epoch
    else if String.equal model "scr" then
      chaos_scr programs seed packets profile spec specs_dir rate_ppm cores
    else if not (String.equal model "rss") then
      `Error (false, Printf.sprintf "unknown model %s (expected rss or scr)" model)
    else
    let cases =
      match spec with
      | Some "all" -> Check.Progen.spec_cases ~specs_dir ~seed ~packets ()
      | Some name -> (
          try [ Check.Progen.spec_case ~specs_dir ~name ~seed ~packets () ]
          with Invalid_argument m -> raise (Gunfu.Spec.Spec_error m))
      | None -> (
          match profile with
          | Some p when not (List.mem p Check.Progen.profiles) ->
              invalid_arg
                (Printf.sprintf "unknown profile %s (expected one of: %s)" p
                   (String.concat ", " Check.Progen.profiles))
          | Some p ->
              List.init programs (fun i ->
                  Check.Progen.case ~seed:(seed + i) ~profile:p ~packets)
          | None -> Check.Progen.cases ~seed ~count:programs ~packets)
    in
    let divergences = ref 0 in
    let violations = ref 0 in
    List.iter
      (fun (case : Check.Oracle.case) ->
        (* One plan per case, derived from the case's own seed, so cases do
           not all replay the same schedule positions. *)
        let plan = Check.Faultgen.create ~rate_ppm ~seed:case.Check.Oracle.c_seed () in
        let diverged =
          match Check.Oracle.check_case ~minimized:(not no_minimize) ~plan case with
          | Some d ->
              incr divergences;
              Fmt.pr "%a@." Check.Oracle.pp_divergence d;
              true
          | None -> false
        in
        let viols = Check.Invariants.check_case ~plan case in
        List.iter
          (fun (exec, viol) ->
            incr violations;
            Fmt.pr "INVARIANT VIOLATION in case %s under %s: %a@,replay: %s@."
              case.Check.Oracle.c_name exec Check.Invariants.pp_violation viol
              (case.Check.Oracle.c_repro ~packets:case.Check.Oracle.c_packets))
          viols;
        if (not diverged) && viols = [] then begin
          let obs =
            Check.Oracle.observe ~plan Check.Oracle.reference
              (case.Check.Oracle.c_build ~packets:case.Check.Oracle.c_packets)
          in
          let r = obs.Check.Oracle.o_run in
          Fmt.pr
            "case %-18s seed %-6d %4d packets, %2d injected, %2d faulted%s x %d executors: agree@."
            case.Check.Oracle.c_name case.Check.Oracle.c_seed
            case.Check.Oracle.c_packets
            (Check.Faultgen.planned plan ~packets:case.Check.Oracle.c_packets)
            r.Gunfu.Metrics.faulted
            (if r.Gunfu.Metrics.degraded then " (degraded)" else "")
            (List.length Check.Oracle.executor_names)
        end)
      cases;
    if !divergences = 0 && !violations = 0 then begin
      Fmt.pr
        "chaos: %d cases at %d ppm, %d executors each: every fault contained, no divergence@."
        (List.length cases) rate_ppm
        (List.length Check.Oracle.executor_names);
      `Ok ()
    end
    else
      `Error
        ( false,
          Printf.sprintf "chaos found %d divergence(s), %d invariant violation(s)"
            !divergences !violations )
  with
  | Nfs.Catalog.Catalog_error msg -> `Error (false, "catalog: " ^ msg)
  | Gunfu.Spec.Spec_error msg -> `Error (false, "spec: " ^ msg)
  | Gunfu.Compiler.Compile_error msg -> `Error (false, "compile: " ^ msg)
  | Invalid_argument msg -> `Error (false, msg)
  | Sys_error msg -> `Error (false, msg)

(* ----- scr command: the State-Compute Replication axis ----- *)

let scr_cmd programs seed packets profile spec specs_dir rate_ppm cores_list
    spray_seed batch =
  try
    if cores_list = [] then invalid_arg "scr: --cores list must be non-empty";
    List.iter
      (fun c -> if c < 1 then invalid_arg "scr: core counts must be positive")
      cores_list;
    let rcases = platform_rcases programs seed packets profile spec specs_dir in
    let spray =
      match spray_seed with
      | None -> Scaleout.Spray.Round_robin
      | Some s -> Scaleout.Spray.Seeded s
    in
    let engine = match batch with None -> `Rtc | Some b -> `Batch b in
    let failed = scr_axis ~rcases ~cores_list ~rate_ppm ~spray ~engine in
    if failed = 0 then begin
      Fmt.pr
        "scr: %d cases x cores {%s} engine=%s spray=%s at %d ppm: replicas \
         converged, reference equality@."
        (List.length rcases)
        (String.concat "," (List.map string_of_int cores_list))
        (Gunfu.Exec.label engine)
        (match spray_seed with
        | None -> "round-robin"
        | Some s -> Printf.sprintf "seeded(%d)" s)
        rate_ppm;
      `Ok ()
    end
    else
      `Error
        ( false,
          Printf.sprintf "%d scr case(s) diverged or violated invariants" failed )
  with
  | Nfs.Catalog.Catalog_error msg -> `Error (false, "catalog: " ^ msg)
  | Gunfu.Spec.Spec_error msg -> `Error (false, "spec: " ^ msg)
  | Gunfu.Compiler.Compile_error msg -> `Error (false, "compile: " ^ msg)
  | Invalid_argument msg -> `Error (false, msg)
  | Sys_error msg -> `Error (false, msg)

(* ----- adapt command: the closed-loop adaptive-runtime axis ----- *)

let adapt_cmd programs seed packets profile spec specs_dir rate_ppm scr epoch
    initial =
  try
    if rate_ppm > 0 && scr <> None then
      invalid_arg
        "adapt: --rate-ppm and --scr cannot be combined (replica re-cloning \
         would detach armed injections)";
    if epoch < 1 then invalid_arg "adapt: --epoch must be positive";
    let initial =
      match (initial, Gunfu.Exec.of_string initial) with
      | ("default" | "il"), _ -> Adaptive.Config.default
      | _, Ok e -> (e :> Adaptive.Config.t)
      | _, Error msg -> invalid_arg ("adapt: --initial: " ^ msg)
    in
    let rcases = platform_rcases programs seed packets profile spec specs_dir in
    let failed = ref 0 in
    List.iter
      (fun rc ->
        let plan =
          if rate_ppm = 0 then None
          else Some (Check.Faultgen.create ~rate_ppm ~seed:rc.Check.Recovery.r_seed ())
        in
        let oc = Check.Adaptcheck.check_rcase ?plan ?scr ~epoch ~initial rc in
        if not (Check.Adaptcheck.passed oc) then incr failed;
        Fmt.pr "%a@." Check.Adaptcheck.pp_outcome oc)
      rcases;
    if !failed = 0 then begin
      Fmt.pr
        "adapt: %d cases (epoch %d, initial %s%s%s): every reconfiguration \
         quiescent, reference equality@."
        (List.length rcases) epoch
        (Adaptive.Config.label initial)
        (match scr with
        | None -> ""
        | Some c -> Printf.sprintf ", scr hand-off armed at %d cores" c)
        (if rate_ppm > 0 then Printf.sprintf ", %d ppm faults" rate_ppm else "");
      `Ok ()
    end
    else
      `Error
        ( false,
          Printf.sprintf "%d adaptive case(s) diverged or violated invariants"
            !failed )
  with
  | Nfs.Catalog.Catalog_error msg -> `Error (false, "catalog: " ^ msg)
  | Gunfu.Spec.Spec_error msg -> `Error (false, "spec: " ^ msg)
  | Gunfu.Compiler.Compile_error msg -> `Error (false, "compile: " ^ msg)
  | Invalid_argument msg -> `Error (false, msg)
  | Sys_error msg -> `Error (false, msg)

(* ----- storm command: churn-storm chaos scenarios ----- *)

let storm_cmd scenario seed model =
  try
    let reports =
      match (model, scenario) with
      | "scr", _ -> [ Check.Storm.scr_storm ~seed () ]
      | "rss", None -> Check.Storm.all ~seed ()
      | "rss", Some "pfcp" -> [ Check.Storm.pfcp_storm ~seed () ]
      | "rss", Some "nat" -> [ Check.Storm.nat_rebalance_storm ~seed () ]
      | "rss", Some "overload" -> [ Check.Storm.overload_storm ~seed () ]
      | "rss", Some other ->
          invalid_arg
            (Printf.sprintf "unknown storm %s (expected pfcp, nat or overload)" other)
      | other, _ ->
          invalid_arg
            (Printf.sprintf "unknown model %s (expected rss or scr)" other)
    in
    List.iter (fun r -> Fmt.pr "@[<v>%a@]@." Check.Storm.pp_report r) reports;
    let failed = List.filter (fun r -> not (Check.Storm.passed r)) reports in
    if failed = [] then `Ok ()
    else
      `Error
        ( false,
          Printf.sprintf "%d storm scenario(s) failed: %s" (List.length failed)
            (String.concat ", "
               (List.map (fun r -> r.Check.Storm.st_name) failed)) )
  with
  | Invalid_argument msg -> `Error (false, msg)
  | Sys_error msg -> `Error (false, msg)

(* ----- lint command: the static analyzer (nflint) ----- *)

let lint_cmd spec all_specs specs_dir json strict =
  try
    let targets =
      if all_specs then
        Sys.readdir specs_dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".yaml")
        |> List.sort compare
        |> List.map (Filename.concat specs_dir)
      else
        match spec with
        | Some f -> [ f ]
        | None -> raise (Gunfu.Spec.Spec_error "pass --spec FILE or --all-specs")
    in
    (* Module files are analyzed in isolation against their declared
       fetching; composition files are assembled (the oracle's own build
       path) and analyzed with concrete prefetch targets and kill sets. *)
    let lint_file path =
      let src = Nfs.Catalog.read_file path in
      let looks_like_nf =
        List.exists
          (fun line -> String.length line >= 3 && String.sub line 0 3 = "nf:")
          (String.split_on_char '\n' src)
      in
      if looks_like_nf then
        let name = Filename.remove_extension (Filename.basename path) in
        Analysis.Lints.of_build (Check.Progen.spec_lint_input ~specs_dir ~name ())
      else Analysis.Lints.of_module (Gunfu.Spec.module_spec_of_string src)
    in
    let findings = Analysis.Report.sort (List.concat_map lint_file targets) in
    if json then Fmt.pr "%s@." (Analysis.Report.to_json findings)
    else
      List.iter (fun f -> Fmt.pr "%a@." Analysis.Report.pp_finding f) findings;
    let count sev =
      List.length (List.filter (fun f -> f.Analysis.Report.severity = sev) findings)
    in
    let threshold = if strict then Analysis.Report.Warning else Analysis.Report.Error in
    let failing =
      List.filter
        (fun f ->
          Analysis.Report.severity_rank f.Analysis.Report.severity
          >= Analysis.Report.severity_rank threshold)
        findings
    in
    if failing = [] then begin
      if not json then
        Fmt.pr "lint: %d file(s), %d finding(s) (%d error, %d warning, %d info)@."
          (List.length targets) (List.length findings)
          (count Analysis.Report.Error)
          (count Analysis.Report.Warning)
          (count Analysis.Report.Info);
      `Ok ()
    end
    else
      `Error
        ( false,
          Printf.sprintf "lint: %d finding(s) at %s severity or above"
            (List.length failing)
            (if strict then "warning" else "error") )
  with
  | Nfs.Catalog.Catalog_error msg -> `Error (false, "catalog: " ^ msg)
  | Gunfu.Spec.Spec_error msg -> `Error (false, "spec: " ^ msg)
  | Gunfu.Compiler.Compile_error msg -> `Error (false, "compile: " ^ msg)
  | Invalid_argument msg -> `Error (false, msg)
  | Sys_error msg -> `Error (false, msg)

(* ----- verifyeq command: translation validation ----- *)

(* One symbolic check over one compiled input; returns (refuted, unknowns). *)
let verifyeq_one ~json label (vi : Gunfu.Compiler.verify_input) =
  let r = Analysis.Symcheck.check vi in
  let refuted =
    List.filter
      (fun f -> f.Analysis.Report.severity = Analysis.Report.Error)
      r.Analysis.Symcheck.findings
  in
  if not json then begin
    List.iter
      (fun f -> Fmt.pr "%a@." Analysis.Report.pp_finding f)
      r.Analysis.Symcheck.findings;
    if refuted = [] then
      Fmt.pr "verifyeq: %s: proved {%s}%s@." label
        (String.concat ", " r.Analysis.Symcheck.proved)
        (if r.Analysis.Symcheck.unknowns = 0 then ""
         else
           Printf.sprintf " with %d unknown(s) left to the dynamic oracle"
             r.Analysis.Symcheck.unknowns)
    else Fmt.pr "verifyeq: %s: REFUTED (%d finding(s))@." label (List.length refuted)
  end;
  (r.Analysis.Symcheck.findings, List.length refuted, r.Analysis.Symcheck.unknowns)

let verifyeq_cmd spec programs seed specs_dir json strict =
  try
    let spec_targets =
      match spec with
      | Some "all" -> Check.Progen.spec_names
      | Some name ->
          if List.mem name Check.Progen.spec_names then [ name ]
          else
            invalid_arg
              (Printf.sprintf "unknown composition %S (expected %s or all)" name
                 (String.concat ", " Check.Progen.spec_names))
      | None -> []
    in
    if spec_targets = [] && programs = 0 then
      `Error (true, "pass --spec NAME|all and/or --programs N")
    else begin
      let inputs =
        List.map
          (fun name ->
            ( "spec " ^ name,
              fun () -> Check.Progen.spec_verify_input ~specs_dir ~name () ))
          spec_targets
        @ List.init programs (fun i ->
              ( Printf.sprintf "gen seed=%d" (seed + i),
                fun () -> Check.Progen.gen_verify_input ~seed:(seed + i) ))
      in
      let findings = ref [] and refuted = ref 0 and unknowns = ref 0 in
      List.iter
        (fun (label, mk) ->
          let fs, r, u = verifyeq_one ~json label (mk ()) in
          findings := !findings @ fs;
          refuted := !refuted + r;
          unknowns := !unknowns + u)
        inputs;
      if json then Fmt.pr "%s@." (Analysis.Report.to_json (Analysis.Report.sort !findings));
      let failing = !refuted > 0 || (strict && !unknowns > 0) in
      if not failing then begin
        if not json then
          Fmt.pr "verifyeq: %d program(s) proved, 0 refuted, %d unknown(s)@."
            (List.length inputs) !unknowns;
        `Ok ()
      end
      else
        `Error
          ( false,
            Printf.sprintf "verifyeq: %d refuted finding(s), %d unknown(s)%s"
              !refuted !unknowns
              (if !refuted = 0 then " (--strict demands a full static proof)" else "")
          )
    end
  with
  | Nfs.Catalog.Catalog_error msg -> `Error (false, "catalog: " ^ msg)
  | Gunfu.Spec.Spec_error msg -> `Error (false, "spec: " ^ msg)
  | Gunfu.Compiler.Compile_error msg -> `Error (false, "compile: " ^ msg)
  | Invalid_argument msg -> `Error (false, msg)
  | Sys_error msg -> `Error (false, msg)

(* ----- profile / trace commands: the telemetry plane ----- *)

(* Build the system under test — a built-in NF (--nf) or an on-disk
   composition (--spec) — and run it once with the span tracer attached. *)
let traced_execute nf spec specs_dir model flows packets packed =
  let worker = Gunfu.Worker.create ~id:0 () in
  let layout = Gunfu.Worker.layout worker in
  let opts = Gunfu.Compiler.default_opts in
  let program, source =
    match (spec, nf) with
    | Some nf_file, _ ->
        let built =
          Nfs.Catalog.build_from_files layout ~nf_file ~specs_dir ~n_flows:flows ()
        in
        let gen =
          Traffic.Flowgen.create ~seed:1 ~n_flows:flows
            ~size_model:(Traffic.Flowgen.Fixed 128) ()
        in
        built.Nfs.Catalog.populate (Traffic.Flowgen.flows gen);
        let pool = Netcore.Packet.Pool.create layout ~count:1024 in
        ( built.Nfs.Catalog.program,
          fun ~count -> Gunfu.Workload.of_flowgen gen ~pool ~count )
    | None, Some nf -> build nf ~flows ~packed ~opts worker
    | None, None -> invalid_arg "pass --nf NAME or --spec NF_FILE"
  in
  let tr = Gunfu.Trace.create () in
  let r = Gunfu.Exec.run ~telemetry:tr model worker program (source ~count:packets) in
  (tr, r)

let profile_cmd nf spec specs_dir model flows packets packed =
  try
    let tr, r = traced_execute nf spec specs_dir model flows packets packed in
    Fmt.pr "%s" (Telemetry.Attribution.report ~run:r tr);
    match Check.Invariants.check_telemetry tr r with
    | [] -> `Ok ()
    | viol :: _ ->
        `Error
          ( false,
            Printf.sprintf "telemetry invariant %s: %s" viol.Check.Invariants.v_rule
              viol.Check.Invariants.v_detail )
  with
  | Nfs.Catalog.Catalog_error msg -> `Error (false, "catalog: " ^ msg)
  | Gunfu.Spec.Spec_error msg -> `Error (false, "spec: " ^ msg)
  | Gunfu.Compiler.Compile_error msg -> `Error (false, "compile: " ^ msg)
  | Invalid_argument msg -> `Error (false, msg)
  | Sys_error msg -> `Error (false, msg)

let trace_cmd nf spec specs_dir model flows packets packed out =
  try
    let tr, r = traced_execute nf spec specs_dir model flows packets packed in
    let s = Telemetry.Chrome.export_string tr in
    match Telemetry.Chrome.validate_string s with
    | Error e -> `Error (false, "exported trace is invalid: " ^ e)
    | Ok events ->
        let oc = open_out out in
        output_string oc s;
        close_out oc;
        Fmt.pr
          "wrote %s: %d events from %d spans (%d dropped), %d packets in %d cycles@."
          out events (Gunfu.Trace.total_spans tr) (Gunfu.Trace.dropped tr)
          r.Gunfu.Metrics.packets r.Gunfu.Metrics.cycles;
        `Ok ()
  with
  | Nfs.Catalog.Catalog_error msg -> `Error (false, "catalog: " ^ msg)
  | Gunfu.Spec.Spec_error msg -> `Error (false, "spec: " ^ msg)
  | Gunfu.Compiler.Compile_error msg -> `Error (false, "compile: " ^ msg)
  | Invalid_argument msg -> `Error (false, msg)
  | Sys_error msg -> `Error (false, msg)

(* ----- bench command: round-trip a committed bench baseline ----- *)

let bench_cmd json_file =
  try
    let src = Nfs.Catalog.read_file json_file in
    match Telemetry.Baseline.of_string src with
    | Error e -> `Error (false, "baseline: " ^ e)
    | Ok b -> (
        match Telemetry.Baseline.of_string (Telemetry.Baseline.to_string b) with
        | Error e -> `Error (false, "baseline re-parse: " ^ e)
        | Ok b2 when not (Telemetry.Baseline.equal b b2) ->
            `Error (false, "baseline does not round-trip through print/parse")
        | Ok _ ->
            List.iter
              (fun (f : Telemetry.Baseline.figure) ->
                Fmt.pr "%-8s %-52s %d series, %d points@." f.Telemetry.Baseline.f_name
                  f.Telemetry.Baseline.f_title
                  (List.length f.Telemetry.Baseline.series)
                  (List.fold_left
                     (fun n (s : Telemetry.Baseline.series) ->
                       n + List.length s.Telemetry.Baseline.points)
                     0 f.Telemetry.Baseline.series))
              b.Telemetry.Baseline.figures;
            Fmt.pr "baseline %s (pr %s): %d figures, round-trip OK@." json_file
              b.Telemetry.Baseline.pr
              (List.length b.Telemetry.Baseline.figures);
            `Ok ())
  with Sys_error msg -> `Error (false, msg)

let list_cmd () =
  Fmt.pr "network functions: %s@." nf_names;
  Fmt.pr "execution models:  %s@." model_forms;
  `Ok ()

(* ----- cmdliner wiring ----- *)

let nf_conv = Arg.conv (nf_of_string, fun ppf _ -> Fmt.string ppf "<nf>")
let model_conv =
  Arg.conv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (Gunfu.Exec.of_string s)),
      fun ppf e -> Fmt.string ppf (Gunfu.Exec.label e) )

let nf_arg =
  Arg.(required & opt (some nf_conv) None & info [ "nf" ] ~docv:"NF" ~doc:("Network function: " ^ nf_names))

let model_arg =
  Arg.(
    value
    & opt model_conv (Gunfu.Exec.il 16)
    & info [ "model" ] ~docv:"MODEL" ~doc:("Executor: " ^ model_forms))

let flows_arg =
  Arg.(value & opt int 131072 & info [ "flows" ] ~doc:"Concurrent flows / sessions / UEs")

let packets_arg = Arg.(value & opt int 50000 & info [ "packets" ] ~doc:"Packets to process")
let cores_arg = Arg.(value & opt int 1 & info [ "cores" ] ~doc:"Simulated cores")
let packed_arg = Arg.(value & flag & info [ "packed" ] ~doc:"Enable data packing")

let mr_arg =
  Arg.(value & flag & info [ "match-removal" ] ~doc:"Enable redundant-matching removal")

let nopf_arg =
  Arg.(value & flag & info [ "no-prefetch" ] ~doc:"Compile without prefetch policies")

let specialize_arg =
  Arg.(
    value & flag
    & info [ "specialize" ]
        ~doc:"Compile with the specialized hot path (fused actions, dense dispatch)")

let run_t =
  Cmd.v (Cmd.info "run" ~doc:"Run an NF under an execution model and report metrics")
    Term.(
      ret
        (const run_cmd $ nf_arg $ model_arg $ flows_arg $ packets_arg $ cores_arg
       $ packed_arg $ mr_arg $ nopf_arg $ specialize_arg))

let inspect_t =
  Cmd.v (Cmd.info "inspect" ~doc:"Print the compiled control-logic FSM and prefetch policy")
    Term.(ret (const inspect_cmd $ nf_arg $ mr_arg))

let check_spec_t =
  Cmd.v
    (Cmd.info "check-spec" ~doc:"Parse and validate a module/NF specification file")
    Term.(
      ret
        (const check_spec_cmd
        $ Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")))

let check_t =
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Differential execution oracle: run generated (or specs/) NF programs \
          through every executor (rtc, batch, both scheduler policies x task \
          counts) and report any divergence with a minimized seed-replayable \
          repro. Exits non-zero on divergence.")
    Term.(
      ret
        (const check_cmd
        $ Arg.(value & opt int 5 & info [ "programs" ] ~doc:"Generated programs per profile")
        $ Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Base seed; program i uses seed+i")
        $ Arg.(value & opt int 96 & info [ "packets" ] ~doc:"Packets per case")
        $ Arg.(
            value
            & opt (some string) None
            & info [ "profile" ]
                ~doc:"Only this traffic profile (uniform, zipf, burst, mix); default all")
        $ Arg.(
            value
            & opt (some string) None
            & info [ "spec" ]
                ~doc:"Check a specs/ composition (nat, sfc4, upf_downlink or all) instead of generated programs")
        $ Arg.(value & opt dir "specs" & info [ "specs-dir" ] ~doc:"Module spec directory")
        $ Arg.(value & flag & info [ "no-minimize" ] ~doc:"Skip divergence minimization")
        $ Arg.(
            value & flag
            & info [ "specialize" ]
                ~doc:
                  "Widen the scan to the 28-way matrix: every executor \
                   additionally runs under the compiled hot path (fused \
                   actions, dense dispatch) and must match the interpreted \
                   reference byte-for-byte")))

let chaos_t =
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Differential oracle under deterministic fault injection: arm a \
          seeded schedule of corrupted packets, forced NF-action exceptions \
          and MSHR-starvation stalls, then require every executor to contain \
          each fault identically (same faulted counts, same taxonomy, same \
          per-flow streams) with conservation emits + drops + faulted = \
          offered. With $(b,--kill-cores), shard each case across a \
          share-nothing platform, kill one core mid-run and require the \
          checkpoint/replay recovery on a survivor to match the \
          failure-free reference exactly (per-flow streams, state digest, \
          exactly-once emits). Exits non-zero on divergence or any \
          uncontained fault.")
    Term.(
      ret
        (const chaos_cmd
        $ Arg.(value & opt int 5 & info [ "programs" ] ~doc:"Generated programs per profile")
        $ Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Base seed for programs and the fault plan")
        $ Arg.(value & opt int 96 & info [ "packets" ] ~doc:"Packets per case")
        $ Arg.(
            value
            & opt (some string) None
            & info [ "profile" ]
                ~doc:"Only this traffic profile (uniform, zipf, burst, mix); default all")
        $ Arg.(
            value
            & opt (some string) None
            & info [ "spec" ]
                ~doc:"Run a specs/ composition (nat, sfc4, upf_downlink or all) instead of generated programs")
        $ Arg.(value & opt dir "specs" & info [ "specs-dir" ] ~doc:"Module spec directory")
        $ Arg.(
            value & opt int Check.Faultgen.default_rate_ppm
            & info [ "rate-ppm" ] ~doc:"Injection probability per packet, in parts per million")
        $ Arg.(value & flag & info [ "no-minimize" ] ~doc:"Skip divergence minimization")
        $ Arg.(
            value & flag
            & info [ "kill-cores" ]
                ~doc:
                  "Core-failure axis: kill one core per case and verify \
                   checkpoint/replay recovery against the failure-free reference")
        $ Arg.(
            value & opt string "rss"
            & info [ "model" ] ~docv:"MODEL"
                ~doc:
                  "Scale-out model for the platform axis: rss (default; the \
                   sharded executors) or scr (State-Compute Replication — run \
                   each case through sprayed full replicas and require \
                   reference equality under the fault plan)")
        $ Arg.(
            value & opt int 4
            & info [ "cores" ] ~doc:"Platform cores for --kill-cores / --model scr")
        $ Arg.(
            value & opt int Gunfu.Platform.Recovery.default_plan.Gunfu.Platform.Recovery.epoch
            & info [ "epoch" ]
                ~doc:"Checkpoint every EPOCH pulls per core (--kill-cores)")))

let storm_t =
  Cmd.v
    (Cmd.info "storm"
       ~doc:
         "Churn-storm chaos scenarios: a PFCP session storm (SMF-driven \
          establishment/deletion churn against an undersized UPF over real \
          encoded PFCP, data plane racing teardowns), cuckoo-capacity NAT \
          churn with Migration-layer rebalancing ping-pong (every hop \
          byte-preserving), and the full oracle matrix under an overload \
          fault plan. Each scenario is seeded and self-checking; exits \
          non-zero if any storm breaks an invariant.")
    Term.(
      ret
        (const storm_cmd
        $ Arg.(
            value
            & opt (some string) None
            & info [ "scenario" ] ~docv:"NAME"
                ~doc:"Run one scenario (pfcp, nat or overload); default all")
        $ Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Scenario seed")
        $ Arg.(
            value & opt string "rss"
            & info [ "model" ] ~docv:"MODEL"
                ~doc:
                  "Scale-out model: rss (default; the classic scenarios) or \
                   scr (the State-Compute Replication update-stream storm)")))

let adapt_t =
  Cmd.v
    (Cmd.info "adapt"
       ~doc:
         "Closed-loop adaptive-runtime axis: run each case under the \
          telemetry-driven controller (signals from per-epoch trace \
          attribution, knob moves applied only at quiescent pull \
          boundaries) and require behavioural equality with the \
          single-core run-to-completion reference — identical per-flow \
          emit streams, totals and state digest — plus the decision-log \
          invariants (quiescence, config-chain continuity, monotone \
          clock). $(b,--scr) arms the skew hand-off rule with a \
          replicated scale-out surface; $(b,--rate-ppm) runs under a \
          deterministic fault plan. Exits non-zero on any divergence or \
          invariant violation.")
    Term.(
      ret
        (const adapt_cmd
        $ Arg.(value & opt int 4 & info [ "programs" ] ~doc:"Generated programs per profile")
        $ Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Base seed for programs and the fault plan")
        $ Arg.(value & opt int 768 & info [ "packets" ] ~doc:"Packets per case")
        $ Arg.(
            value
            & opt (some string) None
            & info [ "profile" ]
                ~doc:"Only this traffic profile (uniform, zipf, burst, mix); default all")
        $ Arg.(
            value
            & opt (some string) None
            & info [ "spec" ]
                ~doc:"Run a specs/ composition (nat, sfc4, upf_downlink or all) instead of generated programs")
        $ Arg.(value & opt dir "specs" & info [ "specs-dir" ] ~doc:"Module spec directory")
        $ Arg.(
            value & opt int 0
            & info [ "rate-ppm" ]
                ~doc:"Fault-injection probability per packet in ppm; 0 = no plan")
        $ Arg.(
            value
            & opt (some int) None
            & info [ "scr" ] ~docv:"CORES"
                ~doc:"Arm the SCR hand-off rule with this replica count")
        $ Arg.(value & opt int 96 & info [ "epoch" ] ~doc:"Window length in pulls")
        $ Arg.(
            value & opt string "default"
            & info [ "initial" ] ~docv:"CONFIG"
                ~doc:("Starting configuration: default (il-rr-8-d1) or an executor: "
                     ^ model_forms))))

let scr_t =
  Cmd.v
    (Cmd.info "scr"
       ~doc:
         "State-Compute Replication axis: replicate each case's full per-flow \
          state on every core, spray the packet stream with no flow affinity, \
          ship compact absolute update records between replicas, and require \
          exact equality with a single-core run-to-completion reference \
          (per-flow emit streams, completion/drop/fault/wire totals, state \
          digest), replica convergence at the quiescent barrier and \
          update-stream conservation — optionally under a deterministic \
          fault-injection plan armed at global stream indices. Exits non-zero \
          on any divergence or invariant violation.")
    Term.(
      ret
        (const scr_cmd
        $ Arg.(value & opt int 5 & info [ "programs" ] ~doc:"Generated programs per profile")
        $ Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Base seed for programs and the fault plan")
        $ Arg.(value & opt int 96 & info [ "packets" ] ~doc:"Packets per case")
        $ Arg.(
            value
            & opt (some string) None
            & info [ "profile" ]
                ~doc:"Only this traffic profile (uniform, zipf, burst, mix); default all")
        $ Arg.(
            value
            & opt (some string) None
            & info [ "spec" ]
                ~doc:"Run a specs/ composition (nat, sfc4, upf_downlink or all) instead of generated programs")
        $ Arg.(value & opt dir "specs" & info [ "specs-dir" ] ~doc:"Module spec directory")
        $ Arg.(
            value & opt int 0
            & info [ "rate-ppm" ]
                ~doc:"Fault-injection probability per packet in ppm; 0 = no plan")
        $ Arg.(
            value
            & opt (list int) [ 2; 4 ]
            & info [ "cores" ] ~docv:"N,.."
                ~doc:"Comma-separated replica counts to check each case at")
        $ Arg.(
            value
            & opt (some int) None
            & info [ "spray-seed" ]
                ~doc:"Seeded uniform spray instead of round-robin")
        $ Arg.(
            value
            & opt (some int) None
            & info [ "batch" ] ~doc:"Use the batch-N engine instead of rtc")))

let lint_t =
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static analysis (nflint) of NF programs: state-access vs fetching \
          declarations (cold accesses), temp-register escapes, control-state \
          interleaving conflicts, FSM hygiene and prefetch distance. Exits \
          non-zero on error findings ($(b,--strict): also on warnings).")
    Term.(
      ret
        (const lint_cmd
        $ Arg.(
            value
            & opt (some file) None
            & info [ "spec" ] ~docv:"FILE"
                ~doc:"Lint one module or composition spec file")
        $ Arg.(
            value & flag
            & info [ "all-specs" ] ~doc:"Lint every .yaml under --specs-dir")
        $ Arg.(value & opt dir "specs" & info [ "specs-dir" ] ~doc:"Module spec directory")
        $ Arg.(
            value
            & opt (enum [ ("text", false); ("json", true) ]) false
            & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text or json")
        $ Arg.(value & flag & info [ "strict" ] ~doc:"Fail on warnings too")))

let verifyeq_t =
  Cmd.v
    (Cmd.info "verifyeq"
       ~doc:
         "Translation validation: symbolically prove that each compiler pass \
          (match removal, prefetch dedup, specialize) preserved the \
          program's observable behavior, for on-disk compositions \
          ($(b,--spec) nat|sfc4|upf_downlink|all) and/or generated programs \
          ($(b,--programs) N). A refuted pass prints a path witness and \
          exits non-zero; $(b,--strict) also fails on symbolic Unknown \
          fallbacks, demanding a full static proof.")
    Term.(
      ret
        (const verifyeq_cmd
        $ Arg.(
            value
            & opt (some string) None
            & info [ "spec" ] ~docv:"NAME"
                ~doc:"Validate a specs/ composition (nat, sfc4, upf_downlink or all)")
        $ Arg.(value & opt int 0 & info [ "programs" ] ~doc:"Also validate N generated programs")
        $ Arg.(value & opt int 100 & info [ "seed" ] ~doc:"Base seed for generated programs")
        $ Arg.(value & opt dir "specs" & info [ "specs-dir" ] ~doc:"Module spec directory")
        $ Arg.(
            value
            & opt (enum [ ("text", false); ("json", true) ]) false
            & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text or json")
        $ Arg.(value & flag & info [ "strict" ] ~doc:"Fail on Unknown fallbacks too")))

let nf_opt_arg =
  Arg.(
    value
    & opt (some nf_conv) None
    & info [ "nf" ] ~docv:"NF" ~doc:("Built-in network function: " ^ nf_names))

let spec_file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "spec" ] ~docv:"NF_FILE"
        ~doc:"Profile an on-disk composition file instead of a built-in NF")

let specs_dir_arg =
  Arg.(value & opt dir "specs" & info [ "specs-dir" ] ~doc:"Module spec directory")

let profile_t =
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run once with the telemetry plane attached and print the \
          cycle-attribution profile: cycles by (NF, control state, state \
          class, serving cache level), per-phase totals, latency \
          percentiles, and the exact reconciliation of traced cache-level \
          serves against the memory-hierarchy counters. Exits non-zero if \
          the trace violates a telemetry invariant.")
    Term.(
      ret
        (const profile_cmd $ nf_opt_arg $ spec_file_arg $ specs_dir_arg $ model_arg
       $ flows_arg $ packets_arg $ packed_arg))

let trace_t =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run once with the telemetry plane attached and export the \
          per-packet span trace as Chrome trace_event JSON (load in \
          Perfetto / chrome://tracing). The export is validated — \
          well-formed JSON, monotone timestamps — before it is written.")
    Term.(
      ret
        (const trace_cmd $ nf_opt_arg $ spec_file_arg $ specs_dir_arg $ model_arg
       $ flows_arg $ packets_arg $ packed_arg
       $ Arg.(
           value & opt string "gunfu_trace.json"
           & info [ "out" ] ~docv:"FILE" ~doc:"Output path for the trace JSON")))

let bench_t =
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Validate a committed machine-readable bench baseline \
          (gunfu-bench-baseline/1 JSON, e.g. BENCH_PR4.json): parse it, \
          round-trip it through print/parse, and summarize its figures. \
          Exits non-zero on schema or round-trip failure.")
    Term.(
      ret
        (const bench_cmd
        $ Arg.(
            required
            & opt (some file) None
            & info [ "json" ] ~docv:"FILE" ~doc:"Baseline JSON file to check")))

let list_t = Cmd.v (Cmd.info "list" ~doc:"List NFs and execution models") Term.(ret (const list_cmd $ const ()))

let compose_t =
  Cmd.v
    (Cmd.info "compose"
       ~doc:
         "Build an NF from an on-disk composition file (and the module specs \
          next to it) and run traffic through it")
    Term.(
      ret
        (const compose_cmd
        $ Arg.(required & pos 0 (some file) None & info [] ~docv:"NF_FILE")
        $ Arg.(value & opt dir "specs" & info [ "specs-dir" ] ~doc:"Module spec directory")
        $ model_arg
        $ Arg.(value & opt int 65536 & info [ "flows" ] ~doc:"Concurrent flows")
        $ packets_arg))

let () =
  (* Belt and braces: Check.Progen's initializer installs the hook too,
     but any compile with opts.lint on must find the analyzer. *)
  Analysis.Register.install ();
  let doc = "GuNFu: granular, cache-aware NF platform (simulated reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "gunfu" ~doc)
          [
            run_t; inspect_t; check_spec_t; check_t; chaos_t; scr_t; adapt_t;
            storm_t; compose_t;
            lint_t; verifyeq_t; profile_t; trace_t; bench_t; list_t;
          ]))
