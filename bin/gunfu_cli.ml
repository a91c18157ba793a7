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

(* Every command's failure path: malformed input, a bad spec file or a
   missing one ends in a clean one-line exit-124 error. *)
let guard f =
  try f () with
  | Nfs.Catalog.Catalog_error msg -> `Error (false, "catalog: " ^ msg)
  | Gunfu.Spec.Spec_error msg -> `Error (false, "spec: " ^ msg)
  | Gunfu.Compiler.Compile_error msg -> `Error (false, "compile: " ^ msg)
  | Invalid_argument msg | Sys_error msg -> `Error (false, msg)

(* The commands that build their own traffic reject an empty run up front,
   as [Recovery.select] does for the oracle axes. *)
let require_packets packets = if packets < 1 then invalid_arg "--packets must be positive"

(* ----- run command ----- *)

let run_cmd nf model flows packets cores packed match_removal no_prefetch specialize =
  let opts =
    { Gunfu.Compiler.match_removal; prefetch_dedup = true; prefetching = not no_prefetch }
  in
  let build_nf worker ~flows =
    let program, source = build nf ~flows ~packed ~opts worker in
    if specialize then Gunfu.Specialize.install program;
    (program, source)
  in
  guard (fun () ->
    require_packets packets;
    if cores = 1 then begin
      let worker = Gunfu.Worker.create ~id:0 () in
      let program, source = build_nf worker ~flows in
      let r = Gunfu.Exec.run model worker program (source ~count:packets) in
      Fmt.pr "%a@." Gunfu.Metrics.pp_row r;
      `Ok ()
    end
    else begin
      let platform = Gunfu.Platform.create ~cores () in
      (* The first [packets mod cores] cores take one packet more, so
         the cores run exactly [packets] between them. *)
      let setup w core =
        let program, source = build_nf w ~flows:(max 1024 (flows / cores)) in
        (program, source ~count:((packets / cores) + if core < packets mod cores then 1 else 0))
      in
      let runs = Gunfu.Platform.run platform ~setup ~execute:(Gunfu.Exec.run model) in
      let merged = Gunfu.Metrics.merge_parallel runs in
      Fmt.pr "%a@." Gunfu.Metrics.pp_row merged;
      Fmt.pr "aggregate over %d cores, capped at the 100G line rate: %.2f Gbps@." cores
        (Gunfu.Metrics.gbps_scaled merged ~cores:1);
      `Ok ()
    end)

(* ----- inspect command ----- *)

let inspect_cmd nf match_removal =
  let opts = { Gunfu.Compiler.default_opts with Gunfu.Compiler.match_removal } in
  let worker = Gunfu.Worker.create ~id:0 () in
  let program, _ = build nf ~flows:1024 ~packed:false ~opts worker in
  Fmt.pr "%a@." Gunfu.Program.pp program;
  `Ok ()

(* ----- check-spec command ----- *)

(* A composition file declares its NF with a top-level [nf:] line. *)
let looks_like_nf src =
  List.exists
    (fun line -> String.length line >= 3 && String.sub line 0 3 = "nf:")
    (String.split_on_char '\n' src)

let check_spec_cmd path =
  guard (fun () ->
    let src = Nfs.Catalog.read_file path in
    if looks_like_nf src then begin
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
    `Ok ())

(* ----- compose command: build and run an NF from on-disk YAML ----- *)

let compose_cmd nf_file specs_dir model flows packets =
  guard (fun () ->
    require_packets packets;
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
    `Ok ())

(* ----- the oracle axes: case selection and the two loops ----- *)

(* The six case-selection flags every oracle axis shares. *)
type selection = {
  programs : int;
  seed : int;
  packets : int;
  profile : string option;
  spec : string option;
  specs_dir : string;
}

let select kind s =
  Check.Recovery.select kind ~specs_dir:s.specs_dir ~programs:s.programs ~seed:s.seed
    ~packets:s.packets ?profile:s.profile ?spec:s.spec ()

(* A fault axis whose plans arm nothing over every case tested no fault. *)
let nothing_injected ~rate_ppm n_cases =
  `Error
    ( false,
      Printf.sprintf "the fault plans at %d ppm inject nothing over the %d case(s): no \
                      fault was tested" rate_ppm n_cases )

(* One oracle loop for check and chaos: scan every case (under a fault
   plan from the case's own seed when [rate_ppm] is given), print each
   divergence and invariant violation with its replay line, or [agree]. *)
let oracle_loop ~name ?rate_ppm ?specialize ~minimized ~agree ~summary cases =
  let divergences = ref 0 and violations = ref 0 and injected = ref 0 in
  List.iter
    (fun (case : Check.Oracle.case) ->
      let plan =
        Option.map
          (fun rate_ppm -> Check.Faultgen.create ~rate_ppm ~seed:case.Check.Oracle.c_seed ())
          rate_ppm
      in
      let n_injected =
        Option.fold ~none:0
          ~some:(Check.Faultgen.planned ~packets:case.Check.Oracle.c_packets)
          plan
      in
      injected := !injected + n_injected;
      let sc = Check.Oracle.check_case ~minimized ?specialize ?plan case in
      Option.iter
        (fun d ->
          incr divergences;
          Fmt.pr "%a@." Check.Oracle.pp_divergence d)
        sc.Check.Oracle.sc_divergence;
      List.iter
        (fun (exec, viol) ->
          incr violations;
          Fmt.pr "INVARIANT VIOLATION in case %s under %s: %a; replay: %s@."
            case.Check.Oracle.c_name exec Check.Oracle.pp_violation viol
            sc.Check.Oracle.sc_repro)
        sc.Check.Oracle.sc_violations;
      if sc.Check.Oracle.sc_divergence = None && sc.Check.Oracle.sc_violations = [] then
        agree case sc n_injected)
    cases;
  if !divergences > 0 || !violations > 0 then
    `Error
      ( false,
        Printf.sprintf "%s found %d divergence(s), %d invariant violation(s)" name
          !divergences !violations )
  else
    match rate_ppm with
    | Some rate_ppm when !injected = 0 -> nothing_injected ~rate_ppm (List.length cases)
    | _ ->
        Fmt.pr "%s@." summary;
        `Ok ()

(* One platform-axis loop: each case's fault plan comes from its own seed
   (so cases do not all replay the same schedule positions); [run] turns
   it into the case's outcomes, each printed and counted. *)
let platform_loop ~rate_ppm ~run ~summary ~failure rcases =
  let failed = ref 0 and injected = ref 0 in
  List.iter
    (fun rc ->
      let plan = Check.Faultgen.create ~rate_ppm ~seed:rc.Check.Recovery.r_seed () in
      injected := !injected + Check.Faultgen.planned plan ~packets:rc.Check.Recovery.r_packets;
      List.iter
        (fun oc ->
          if not (Check.Recovery.passed oc) then incr failed;
          Fmt.pr "%a@." Check.Recovery.pp_outcome oc)
        (run plan rc))
    rcases;
  if !failed > 0 then `Error (false, Printf.sprintf "%d %s" !failed failure)
  else if rate_ppm > 0 && !injected = 0 then
    nothing_injected ~rate_ppm (List.length rcases)
  else begin
    Fmt.pr "%s@." summary;
    `Ok ()
  end

(* Rate 0 runs the scr and adapt axes without a plan. *)
let optional_plan ~rate_ppm plan = if rate_ppm = 0 then None else Some plan

(* ----- check command: the differential execution oracle ----- *)

let check_cmd sel no_minimize specialize =
  guard (fun () ->
    (* Interpreted scan runs all 14 executors (reference included);
       --specialize widens to the 28-way matrix: every executor additionally
       runs under the compiled hot path, diffed against the interpreted
       reference. *)
    let n_variants =
      List.length Check.Oracle.executor_names
      + if specialize then List.length Check.Oracle.executor_names else 0
    in
    let cases = select Check.Recovery.Oracle_cases sel in
    oracle_loop ~name:"oracle" ~specialize ~minimized:(not no_minimize)
      ~agree:(fun case _ _ ->
        Fmt.pr "case %-18s seed %-6d profile %-8s %d packets x %d variants: agree@."
          case.Check.Oracle.c_name case.Check.Oracle.c_seed
          case.Check.Oracle.c_profile case.Check.Oracle.c_packets n_variants)
      ~summary:
        (Printf.sprintf "oracle: %d cases, %d variants each, no divergence"
           (List.length cases) n_variants)
      cases)

(* ----- chaos command: the oracle under deterministic fault injection ----- *)

let chaos_cmd sel rate_ppm no_minimize kill_cores cores epoch =
  guard (fun () ->
    if kill_cores then begin
      (* The core-failure axis: shard each case across [cores], kill one
         mid-run, recover on a survivor via checkpoint/replay, and require
         equality with the failure-free reference. *)
      if cores < 2 then
        invalid_arg
          "chaos --kill-cores: --cores must be at least 2 (a lone core has no survivor)";
      let rplan =
        {
          Gunfu.Platform.Recovery.epoch;
          log_capacity = max epoch Gunfu.Platform.Recovery.default_plan.Gunfu.Platform.Recovery.log_capacity;
        }
      in
      let rcases = select Check.Recovery.Platform_cases sel in
      platform_loop ~rate_ppm rcases
        ~run:(fun plan rc -> [ Check.Recovery.check_case ~plan ~rplan ~cores rc ])
        ~summary:
          (Printf.sprintf
             "chaos --kill-cores: %d cases on %d cores (epoch %d): every kill \
              recovered, exactly-once emits, reference equality"
             (List.length rcases) cores epoch)
        ~failure:"case(s) failed to recover from a core kill"
    end
    else
      let cases = select Check.Recovery.Oracle_cases sel in
      let n_executors = List.length Check.Oracle.executor_names in
      oracle_loop ~name:"chaos" ~rate_ppm ~minimized:(not no_minimize)
        ~agree:(fun case sc injected ->
          let r = sc.Check.Oracle.sc_reference.Check.Oracle.o_run in
          Fmt.pr
            "case %-18s seed %-6d profile %-8s %4d packets, %2d injected, %2d faulted%s x %d \
             executors: agree@."
            case.Check.Oracle.c_name case.Check.Oracle.c_seed case.Check.Oracle.c_profile
            case.Check.Oracle.c_packets injected r.Gunfu.Metrics.faulted
            (if r.Gunfu.Metrics.degraded then " (degraded)" else "")
            n_executors)
        ~summary:
          (Printf.sprintf
             "chaos: %d cases at %d ppm, %d executors each: every fault contained, no divergence"
             (List.length cases) rate_ppm n_executors)
        cases)

(* ----- scr command: the State-Compute Replication axis ----- *)

let scr_cmd sel rate_ppm cores_list spray_seed batch =
  guard (fun () ->
    if cores_list = [] then invalid_arg "scr: --cores list must be non-empty";
    List.iter
      (fun c -> if c < 1 then invalid_arg "scr: core counts must be positive")
      cores_list;
    let rcases = select Check.Recovery.Platform_cases sel in
    let spray =
      match spray_seed with
      | None -> Scaleout.Spray.Round_robin
      | Some s -> Scaleout.Spray.Seeded s
    in
    let engine = match batch with None -> `Rtc | Some b -> `Batch b in
    platform_loop ~rate_ppm rcases
      ~run:(fun plan rc ->
        List.map
          (fun cores ->
            Check.Scrcheck.check_rcase ?plan:(optional_plan ~rate_ppm plan) ~spray ~engine
              ~cores rc)
          cores_list)
      ~summary:
        (Printf.sprintf
           "scr: %d cases x cores {%s} engine=%s spray=%s at %d ppm: replicas \
            converged, reference equality"
           (List.length rcases)
           (String.concat "," (List.map string_of_int cores_list))
           (Gunfu.Exec.label engine)
           (match spray_seed with
           | None -> "round-robin"
           | Some s -> Printf.sprintf "seeded(%d)" s)
           rate_ppm)
      ~failure:"scr case(s) diverged or violated invariants")

(* ----- adapt command: the closed-loop adaptive-runtime axis ----- *)

let adapt_cmd sel rate_ppm scr epoch initial =
  guard (fun () ->
    if rate_ppm > 0 && scr <> None then
      invalid_arg
        "adapt: --rate-ppm and --scr cannot be combined (replica re-cloning \
         would detach armed injections)";
    if epoch < 1 then invalid_arg "adapt: --epoch must be positive";
    Option.iter
      (fun c -> if c < 1 then invalid_arg "adapt: --scr core count must be positive")
      scr;
    let initial =
      match (initial, Gunfu.Exec.of_string initial) with
      | ("default" | "il"), _ -> Adaptive.Config.default
      | _, Ok e -> (e :> Adaptive.Config.t)
      | _, Error msg -> invalid_arg ("adapt: --initial: " ^ msg)
    in
    let rcases = select Check.Recovery.Platform_cases sel in
    platform_loop ~rate_ppm rcases
      ~run:(fun plan rc ->
        [
          Check.Adaptcheck.check_rcase ?plan:(optional_plan ~rate_ppm plan) ?scr ~epoch
            ~initial rc;
        ])
      ~summary:
        (Printf.sprintf
           "adapt: %d cases (epoch %d, initial %s%s%s): every reconfiguration \
            quiescent, reference equality"
           (List.length rcases) epoch
           (Adaptive.Config.label initial)
           (match scr with
           | None -> ""
           | Some c -> Printf.sprintf ", scr hand-off armed at %d cores" c)
           (if rate_ppm > 0 then Printf.sprintf ", %d ppm faults" rate_ppm else ""))
      ~failure:"adaptive case(s) diverged or violated invariants")

(* ----- storm command: churn-storm chaos scenarios ----- *)

let storm_cmd scenario seed =
  guard (fun () ->
    let reports =
      match scenario with
      | None -> Check.Storm.all ~seed ()
      | Some "pfcp" -> [ Check.Storm.pfcp_storm ~seed () ]
      | Some "nat" -> [ Check.Storm.nat_rebalance_storm ~seed () ]
      | Some other ->
          invalid_arg (Printf.sprintf "unknown storm %s (expected pfcp or nat)" other)
    in
    List.iter (fun r -> Fmt.pr "@[<v>%a@]@." Check.Storm.pp_report r) reports;
    let failed = List.filter (fun r -> not (Check.Storm.passed r)) reports in
    if failed = [] then `Ok ()
    else
      `Error
        ( false,
          Printf.sprintf "%d storm scenario(s) failed: %s" (List.length failed)
            (String.concat ", "
               (List.map (fun r -> r.Check.Storm.st_name) failed)) ))

(* ----- lint command: the static analyzer (nflint) ----- *)

let lint_cmd spec all_specs specs_dir json strict =
  guard (fun () ->
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
      if looks_like_nf src then
        let name = Filename.remove_extension (Filename.basename path) in
        Analysis.Lints.of_build
          (Check.Progen.spec_view ~opts:Gunfu.Compiler.default_opts ~specs_dir ~name ())
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
            (if strict then "warning" else "error") ))

(* ----- verifyeq command: translation validation ----- *)

(* One symbolic check over one compiled input; returns (refuted, unknowns). *)
let verifyeq_one ~json label (v : Gunfu.Compiler.view) =
  let r = Analysis.Symcheck.check v in
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
  guard (fun () ->
    if programs < 0 then invalid_arg "--programs must not be negative";
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
              fun () ->
                Check.Progen.spec_view ~opts:Check.Progen.verify_opts ~specs_dir ~name () ))
          spec_targets
        @ List.init programs (fun i ->
              ( Printf.sprintf "gen seed=%d" (seed + i),
                fun () -> Check.Progen.gen_view ~seed:(seed + i) ))
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
    end)

(* ----- profile / trace commands: the telemetry plane ----- *)

(* Build the system under test — a built-in NF (--nf) or an on-disk
   composition (--spec) — and run it once with the span tracer attached. *)
let traced_execute nf spec specs_dir model flows packets packed =
  require_packets packets;
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
  guard (fun () ->
    let tr, r = traced_execute nf spec specs_dir model flows packets packed in
    Fmt.pr "%s" (Telemetry.Attribution.report ~run:r tr);
    match Check.Invariants.check_telemetry tr r with
    | [] -> `Ok ()
    | viol :: _ ->
        `Error
          ( false,
            Printf.sprintf "telemetry invariant %s: %s" viol.Check.Oracle.v_rule
              viol.Check.Oracle.v_detail ))

let trace_cmd nf spec specs_dir model flows packets packed out =
  guard (fun () ->
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
        `Ok ())

(* ----- bench command: round-trip a committed bench baseline ----- *)

let bench_cmd json_file =
  guard (fun () ->
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
            `Ok ()))

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

(* The case-selection flags, declared once for every oracle axis; the axes
   differ only in their default program and packet counts. *)
let selection_t ~programs ~packets =
  let make programs seed packets profile spec specs_dir =
    { programs; seed; packets; profile; spec; specs_dir }
  in
  Term.(
    const make
    $ Arg.(value & opt int programs & info [ "programs" ] ~doc:"Generated programs per profile")
    $ Arg.(
        value & opt int 1
        & info [ "seed" ] ~doc:"Base seed for the generated programs and the fault plans")
    $ Arg.(value & opt int packets & info [ "packets" ] ~doc:"Packets per case")
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
    $ Arg.(value & opt dir "specs" & info [ "specs-dir" ] ~doc:"Module spec directory"))

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
        $ selection_t ~programs:5 ~packets:96
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
        $ selection_t ~programs:5 ~packets:96
        $ Arg.(
            value & opt int Check.Faultgen.default_rate_ppm
            & info [ "rate-ppm" ]
                ~doc:
                  "Injection probability per packet, in parts per million; a \
                   run whose plans inject nothing fails (except with \
                   $(b,--kill-cores) at 0)")
        $ Arg.(value & flag & info [ "no-minimize" ] ~doc:"Skip divergence minimization")
        $ Arg.(
            value & flag
            & info [ "kill-cores" ]
                ~doc:
                  "Core-failure axis: kill one core per case and verify \
                   checkpoint/replay recovery against the failure-free reference")
        $ Arg.(value & opt int 4 & info [ "cores" ] ~doc:"Platform cores for --kill-cores")
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
          byte-preserving). Each scenario is seeded and self-checking; exits \
          non-zero if any storm breaks an invariant. Overload under the \
          fault plane is $(b,chaos) or $(b,scr) at a saturating \
          $(b,--rate-ppm).")
    Term.(
      ret
        (const storm_cmd
        $ Arg.(
            value
            & opt (some string) None
            & info [ "scenario" ] ~docv:"NAME"
                ~doc:"Run one scenario (pfcp or nat); default both")
        $ Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Scenario seed")))

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
        $ selection_t ~programs:4 ~packets:768
        $ Arg.(
            value & opt int 0
            & info [ "rate-ppm" ]
                ~doc:
                  "Fault-injection probability per packet in ppm; 0 = no plan; \
                   above 0, a run whose plans inject nothing fails")
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
        $ selection_t ~programs:5 ~packets:96
        $ Arg.(
            value & opt int 0
            & info [ "rate-ppm" ]
                ~doc:
                  "Fault-injection probability per packet in ppm; 0 = no plan; \
                   above 0, a run whose plans inject nothing fails")
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
  let doc = "GuNFu: granular, cache-aware NF platform (simulated reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "gunfu" ~doc)
          [
            run_t; inspect_t; check_spec_t; check_t; chaos_t; scr_t; adapt_t;
            storm_t; compose_t;
            lint_t; verifyeq_t; profile_t; trace_t; bench_t; list_t;
          ]))
