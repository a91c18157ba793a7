(* Quickstart: build a NAT from the GuNFu programming model, run the same
   compiled program under per-packet run-to-completion and under the
   interleaved function-stream execution model, and compare.

     dune exec examples/quickstart.exe
*)

let () =
  let n_flows = 65536 in
  let packets = 100_000 in
  Printf.printf "GuNFu quickstart: NAT, %d concurrent flows, %d packets/run\n\n" n_flows
    packets;

  (* One simulated core per execution model so cache state is independent. *)
  let run_model label make_run =
    let worker = Gunfu.Worker.create ~id:0 () in
    let layout = Gunfu.Worker.layout worker in
    (* Substrate: flow universe, packet buffer pool, NAT tables. *)
    let gen = Traffic.Flowgen.create ~seed:1 ~n_flows ~size_model:(Traffic.Flowgen.Fixed 128) () in
    let pool = Netcore.Packet.Pool.create layout ~count:1024 in
    let nat = Nfs.Nat.create layout ~name:"nat" ~n_flows () in
    Nfs.Nat.populate nat (Traffic.Flowgen.flows gen);
    let program = Nfs.Nat.program nat in
    let source = Gunfu.Workload.of_flowgen gen ~pool ~count:packets in
    let run = make_run worker program source in
    Printf.printf "%-22s %7.2f Mpps  %7.2f Gbps  IPC %.2f  cyc/pkt %7.1f  L1m/pkt %.2f\n"
      label (Gunfu.Metrics.mpps run) (Gunfu.Metrics.gbps run) (Gunfu.Metrics.ipc run)
      (Gunfu.Metrics.cycles_per_packet run)
      (Gunfu.Metrics.l1_misses_per_packet run);
    run
  in

  let rtc =
    run_model "run-to-completion" (fun w p s -> Gunfu.Exec.run ~label:"nat/rtc" `Rtc w p s)
  in
  let inter =
    run_model "interleaved (16 NFTasks)" (fun w p s ->
        Gunfu.Exec.run ~label:"nat/interleaved" (Gunfu.Exec.il 16) w p s)
  in
  Printf.printf "\nSpeedup: %.2fx\n" (Gunfu.Metrics.mpps inter /. Gunfu.Metrics.mpps rtc)
