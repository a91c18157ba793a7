(* Ablations of the design choices (beyond the paper's figures):

   A1 execution models        — plain RTC vs batched-prefetch RTC (the
                                 CuckooSwitch/G-opt prior art of §II-C) vs
                                 interleaved function streams;
   A2 prefetch vs interleave  — interleaving with the prefetcher disabled
                                 isolates how much of the win is the
                                 prefetch overlap vs mere task switching;
   A3 MSHR (MLP) bound        — outstanding-miss budget sweeps the
                                 memory-level parallelism the model exploits;
   A4 switch-cost sensitivity — how heavy may an NFTask switch be before
                                 the model stops paying off;
   A5 data packing vs tasks   — DP's cache-pressure relief grows with the
                                 number of interleaved tasks;
   A6 LLC-size sensitivity    — the RTC gap widens as state falls out of
                                 progressively smaller LLCs. *)

open Bench_common

let a1 () =
  header "A1: execution models on NAT (131k flows)";
  row "%-28s %10s %10s" "model" "Mpps" "speedup";
  let rtc =
    let worker, program, source = nat_env () in
    measure worker program `Rtc source
  in
  let batch =
    let worker, program, source = nat_env () in
    measure worker program (`Batch Gunfu.Batch_rtc.default_batch) source
  in
  let il =
    let worker, program, source = nat_env () in
    measure worker program (Gunfu.Exec.il 16) source
  in
  let show label r =
    row "%-28s %10.2f %9.2fx" label (Gunfu.Metrics.mpps r)
      (Gunfu.Metrics.mpps r /. Gunfu.Metrics.mpps rtc)
  in
  show "per-packet RTC" rtc;
  show "RTC + batched prefetch" batch;
  show "interleaved streams (16)" il;
  row "(batching only covers the first dependent access; interleaving covers all)"

let a2 () =
  header "A2: interleaving with and without the software prefetcher (UPF)";
  row "%-28s %10s" "configuration" "Mpps";
  let with_pf =
    let worker, program, source = upf_env () in
    measure worker program (Gunfu.Exec.il 16) source
  in
  (* Same NF compiled with empty prefetch policies: the scheduler still
     interleaves, but every access demand-misses. *)
  let without_pf =
    let worker = Gunfu.Worker.create ~id:0 () in
    let layout = Gunfu.Worker.layout worker in
    let mgw = Traffic.Mgw.create ~seed:2 ~n_sessions:131072 ~n_pdrs:16 () in
    let pool = Netcore.Packet.Pool.create layout ~count:1024 in
    let upf =
      Nfs.Upf.create layout ~name:"upf" ~sessions:(Traffic.Mgw.sessions mgw) ~n_pdrs:16 ()
    in
    Nfs.Upf.populate upf;
    let opts = { Gunfu.Compiler.default_opts with Gunfu.Compiler.prefetching = false } in
    let program = Nfs.Upf.program ~opts upf in
    measure worker program (Gunfu.Exec.il 16) (fun ~count ->
        Gunfu.Workload.of_mgw_downlink mgw ~pool ~count)
  in
  row "%-28s %10.2f" "interleave + prefetch" (Gunfu.Metrics.mpps with_pf);
  row "%-28s %10.2f" "interleave, no prefetch" (Gunfu.Metrics.mpps without_pf);
  row "(without prefetch, switching alone hides nothing: the win is the overlap)"

let a3 () =
  header "A3: MSHR budget (memory-level parallelism bound), UPF IL-16";
  row "%-8s %10s" "mshrs" "Mpps";
  List.iter
    (fun mshr_count ->
      let cfg =
        {
          Gunfu.Worker.default_cfg with
          Gunfu.Worker.mem_cfg =
            { Memsim.Hierarchy.default_config with Memsim.Hierarchy.mshr_count };
        }
      in
      let worker = Gunfu.Worker.create ~cfg ~id:0 () in
      let layout = Gunfu.Worker.layout worker in
      let mgw = Traffic.Mgw.create ~seed:2 ~n_sessions:131072 ~n_pdrs:16 () in
      let pool = Netcore.Packet.Pool.create layout ~count:1024 in
      let upf =
        Nfs.Upf.create layout ~name:"upf" ~sessions:(Traffic.Mgw.sessions mgw) ~n_pdrs:16 ()
      in
      Nfs.Upf.populate upf;
      let program = Nfs.Upf.program upf in
      let r =
        measure worker program (Gunfu.Exec.il 16) (fun ~count ->
            Gunfu.Workload.of_mgw_downlink mgw ~pool ~count)
      in
      row "%-8d %10.2f" mshr_count (Gunfu.Metrics.mpps r))
    [ 1; 2; 4; 10; 16; 32 ];
  row "(throughput saturates once MSHRs cover the in-flight state of ~16 tasks)"

let a4 () =
  header "A4: NFTask switch-cost sensitivity, NAT IL-16";
  row "%-12s %10s" "switch cyc" "Mpps";
  List.iter
    (fun switch_cycles ->
      let cfg = { Gunfu.Worker.default_cfg with Gunfu.Worker.switch_cycles } in
      let worker = Gunfu.Worker.create ~cfg ~id:0 () in
      let layout = Gunfu.Worker.layout worker in
      let gen =
        Traffic.Flowgen.create ~seed:1 ~n_flows:131072
          ~size_model:(Traffic.Flowgen.Fixed 128) ()
      in
      let pool = Netcore.Packet.Pool.create layout ~count:1024 in
      let nat = Nfs.Nat.create layout ~name:"nat" ~n_flows:131072 () in
      Nfs.Nat.populate nat (Traffic.Flowgen.flows gen);
      let program = Nfs.Nat.program nat in
      let r =
        measure worker program (Gunfu.Exec.il 16) (fun ~count ->
            Gunfu.Workload.of_flowgen gen ~pool ~count)
      in
      row "%-12d %10.2f" switch_cycles (Gunfu.Metrics.mpps r))
    [ 2; 10; 25; 50; 100 ];
  row "(the model tolerates tens of cycles per switch; kernel-thread costs would";
  row " erase the benefit - cf. Fig 9)"

let a5 () =
  header "A5: data packing - throughput and memory traffic (SFC length 6)";
  row "%-8s %12s %12s %10s %14s %14s" "tasks" "unpacked" "packed" "DP gain"
    "fills/pkt (u)" "fills/pkt (p)";
  List.iter
    (fun n ->
      let run packed =
        let worker, program, source = sfc_env ~packed () in
        measure ~packets:30_000 worker program (Gunfu.Exec.il n) source
      in
      let u = run false and p = run true in
      let fills r =
        Gunfu.Metrics.per_packet r r.Gunfu.Metrics.mem.Memsim.Memstats.dram_fills
        +. Gunfu.Metrics.per_packet r r.Gunfu.Metrics.mem.Memsim.Memstats.prefetch_issued
      in
      row "%-8d %12.2f %12.2f %9.1f%% %14.2f %14.2f" n (Gunfu.Metrics.mpps u)
        (Gunfu.Metrics.mpps p)
        ((Gunfu.Metrics.mpps p /. Gunfu.Metrics.mpps u -. 1.0) *. 100.0)
        (fills u) (fills p))
    [ 8; 16; 32; 64 ];
  row "(DP's first-order effect here is memory traffic - fewer line fills per";
  row " packet; throughput moves little once interleaving already hides latency)"

let a6 () =
  header "A6: LLC size sensitivity (UPF, RTC vs IL-16)";
  row "%-10s %10s %10s %10s" "llc" "RTC Mpps" "IL16 Mpps" "gap";
  List.iter
    (fun (label, llc_size) ->
      let cfg =
        {
          Gunfu.Worker.default_cfg with
          Gunfu.Worker.mem_cfg =
            { Memsim.Hierarchy.default_config with Memsim.Hierarchy.llc_size };
        }
      in
      let run model =
        let worker = Gunfu.Worker.create ~cfg ~id:0 () in
        let layout = Gunfu.Worker.layout worker in
        let mgw = Traffic.Mgw.create ~seed:2 ~n_sessions:131072 ~n_pdrs:16 () in
        let pool = Netcore.Packet.Pool.create layout ~count:1024 in
        let upf =
          Nfs.Upf.create layout ~name:"upf" ~sessions:(Traffic.Mgw.sessions mgw)
            ~n_pdrs:16 ()
        in
        Nfs.Upf.populate upf;
        let program = Nfs.Upf.program upf in
        measure worker program model (fun ~count ->
            Gunfu.Workload.of_mgw_downlink mgw ~pool ~count)
      in
      let rtc = run `Rtc and il = run (Gunfu.Exec.il 16) in
      row "%-10s %10.2f %10.2f %9.2fx" label (Gunfu.Metrics.mpps rtc)
        (Gunfu.Metrics.mpps il)
        (Gunfu.Metrics.mpps il /. Gunfu.Metrics.mpps rtc))
    [
      (* sets x 11 ways x 64B lines — geometry must divide evenly *)
      ("2.75MiB", 4096 * 11 * 64);
      ("11MiB", 16384 * 11 * 64);
      ("33MiB", 49152 * 11 * 64);
    ];
  row "(the smaller the LLC share, the more state access stalls RTC; interleaving";
  row " is insensitive because it overlaps whatever the miss latency is)"

let a7 () =
  header "A7: pipeline model (modules on separate cores) vs consolidation";
  let n_flows = 65536 and packets = 20_000 in
  let gen () =
    Traffic.Flowgen.create ~seed:8 ~n_flows ~size_model:(Traffic.Flowgen.Fixed 128) ()
  in
  (* 3-stage pipeline: LB | NAT | NM on three cores, RTC within stages. *)
  let g1 = gen () in
  let mk unit_of =
    let worker = Gunfu.Worker.create ~id:0 () in
    (worker, Nfs.Nf_unit.compile ~name:"stage" [ unit_of (Gunfu.Worker.layout worker) ])
  in
  let stages =
    [
      mk (fun l ->
          let lb = Nfs.Lb.create l ~name:"lb" ~n_flows () in
          Nfs.Lb.populate lb (Traffic.Flowgen.flows g1);
          Nfs.Lb.unit lb);
      mk (fun l ->
          let nat = Nfs.Nat.create l ~name:"nat" ~n_flows () in
          Nfs.Nat.populate nat (Traffic.Flowgen.flows g1);
          Nfs.Nat.unit nat);
      mk (fun l ->
          let nm = Nfs.Monitor.create l ~name:"nm" ~n_flows () in
          Nfs.Monitor.populate nm (Traffic.Flowgen.flows g1);
          Nfs.Monitor.unit nm);
    ]
  in
  let pool = Netcore.Packet.Pool.create (Gunfu.Worker.layout (fst (List.hd stages))) ~count:1024 in
  let pipe = Gunfu.Pipeline.run stages (Gunfu.Workload.of_flowgen g1 ~pool ~count:packets) in
  (* Consolidated: the whole length-3 chain interleaved per core, 3 cores. *)
  let g2 = gen () in
  let worker = Gunfu.Worker.create ~id:0 () in
  let layout = Gunfu.Worker.layout worker in
  let sfc = Nfs.Sfc.create layout ~length:3 ~packed:false ~n_flows () in
  Nfs.Sfc.populate sfc (Traffic.Flowgen.flows g2);
  let pool2 = Netcore.Packet.Pool.create layout ~count:1024 in
  let cons =
    Gunfu.Scheduler.run worker (Nfs.Sfc.program sfc) ~n_tasks:16
      (Gunfu.Workload.of_flowgen g2 ~pool:pool2 ~count:packets)
  in
  row "%-40s %10.2f Mpps (3 cores)" "pipeline LB|NAT|NM (RTC + queues)"
    (Gunfu.Metrics.mpps pipe);
  row "%-40s %10.2f Mpps (3 cores)" "consolidated chain, interleaved x16"
    (3.0 *. Gunfu.Metrics.mpps cons);
  row "(consolidation wins: no inter-core transfers, and interleaving hides the";
  row " state misses the pipeline stages still stall on)"

let a8 () =
  header "A8: per-packet latency distributions (NAT, 131k flows)";
  row "%-28s %10s %10s %10s %10s" "model" "mean ns" "p50 ns" "p99 ns" "max ns";
  let show label r =
    match r.Gunfu.Metrics.latency with
    | None -> row "%-28s (no samples)" label
    | Some l ->
        let ns c = Gunfu.Metrics.cycles_to_ns r c in
        row "%-28s %10.0f %10.0f %10.0f %10.0f" label
          (ns (int_of_float l.Gunfu.Metrics.l_mean))
          (ns l.Gunfu.Metrics.l_p50) (ns l.Gunfu.Metrics.l_p99)
          (ns l.Gunfu.Metrics.l_max)
  in
  let rtc =
    let worker, program, source = nat_env () in
    measure worker program `Rtc source
  in
  let batch =
    let worker, program, source = nat_env () in
    measure worker program (`Batch Gunfu.Batch_rtc.default_batch) source
  in
  let il =
    let worker, program, source = nat_env () in
    measure worker program (Gunfu.Exec.il 16) source
  in
  show "per-packet RTC" rtc;
  show "RTC + batched prefetch" batch;
  show "interleaved streams (16)" il;
  row "(interleaving trades per-packet latency for throughput: a packet is held";
  row " across task switches; batching adds whole-batch queueing - the SLA concern";
  row " §II-C raises about adaptive batching)"

let a9 () =
  header "A9: scheduler policy - round-robin vs ready-first (UPF, 131k sessions)";
  row "%-8s %14s %14s" "tasks" "round-robin" "ready-first";
  List.iter
    (fun n ->
      let run policy =
        let worker, program, source = upf_env () in
        measure worker program (`Il { Gunfu.Exec.policy; n_tasks = n; distance = 1 }) source
      in
      let rr = run Gunfu.Scheduler.Round_robin in
      let rf = run Gunfu.Scheduler.Ready_first in
      row "%-8d %10.2f Mpps %10.2f Mpps" n (Gunfu.Metrics.mpps rr) (Gunfu.Metrics.mpps rf))
    [ 4; 8; 16; 32 ];
  row "(ready-first helps at low task counts where round-robin wastes visits on";
  row " still-in-flight tasks; at 16+ tasks fills have landed by revisit anyway)"

let a10 () =
  header "A10: UPF uplink (decap) vs downlink (match+encap), 131k sessions";
  let ran_ip = Netcore.Ipv4.addr_of_string "10.200.1.1" in
  let upf_ip = Netcore.Ipv4.addr_of_string "10.200.0.1" in
  let build_uplink () =
    let worker = Gunfu.Worker.create ~id:0 () in
    let layout = Gunfu.Worker.layout worker in
    let mgw = Traffic.Mgw.create ~seed:2 ~n_sessions:131072 ~n_pdrs:16 () in
    let pool = Netcore.Packet.Pool.create layout ~count:1024 in
    let upf =
      Nfs.Upf.create layout ~name:"upf" ~sessions:(Traffic.Mgw.sessions mgw) ~n_pdrs:16 ()
    in
    Nfs.Upf.populate upf;
    let source ~count =
      Gunfu.Workload.limited count (fun () ->
          let si, pkt = Traffic.Mgw.next_uplink mgw ~ran_ip ~upf_ip in
          Netcore.Packet.Pool.assign pool pkt;
          { Gunfu.Workload.packet = Some pkt; aux = 0; flow_hint = si })
    in
    (worker, Nfs.Upf.uplink_program upf, source)
  in
  let show label (worker, program, source) model =
    let r = measure worker program model source in
    row "%-28s %10.2f Mpps  cyc/pkt %8.1f" label (Gunfu.Metrics.mpps r)
      (Gunfu.Metrics.cycles_per_packet r)
  in
  show "downlink RTC" (upf_env ()) `Rtc;
  show "downlink IL-16" (upf_env ()) (Gunfu.Exec.il 16);
  show "uplink RTC" (build_uplink ()) `Rtc;
  show "uplink IL-16" (build_uplink ()) (Gunfu.Exec.il 16);
  row "(uplink is lighter - one cuckoo match + decap, no PDR tree walk - so its";
  row " RTC/interleaved gap is smaller)"

let run () =
  a1 ();
  a2 ();
  a3 ();
  a4 ();
  a5 ();
  a6 ();
  a7 ();
  a8 ();
  a9 ();
  a10 ()
