(* Dynamic NAT with flow churn: unknown flows take the classifier's
   MATCH_FAIL path into a learner action that allocates a mapping and
   installs the match-state entry at runtime — then the translated traffic
   is exported as a real pcap capture, read back and checked. The capture
   goes to a temporary file that is removed afterwards, so the output is
   the same on every run.

     dune exec examples/dynamic_nat.exe *)

let () =
  let capacity = 8192 in
  let worker = Gunfu.Worker.create ~id:0 () in
  let layout = Gunfu.Worker.layout worker in
  let pool = Netcore.Packet.Pool.create layout ~count:512 in
  let nat = Nfs.Nat.create layout ~name:"nat" ~n_flows:capacity () in
  (* No pre-population: every flow is learned on its first packet. *)
  let program = Nfs.Nat.dynamic_program nat in

  Printf.printf "dynamic NAT, capacity %d mappings, nothing pre-installed\n\n" capacity;

  (* Churny workload: 2000 flows arriving over time, a few packets each. *)
  let rng = Memsim.Rng.create 77 in
  let n_flows = 2000 in
  let mk_flow i =
    Netcore.Flow.make
      ~src_ip:(Int32.of_int (0x0AC00000 + i))
      ~dst_ip:(Netcore.Ipv4.addr_of_string "198.51.100.10")
      ~src_port:(1024 + (i mod 60000))
      ~dst_port:443 ~proto:Netcore.Ipv4.proto_udp
  in
  let pcap = Netcore.Pcap.create_writer () in
  let captured = ref 0 in
  let source =
    Gunfu.Workload.limited 10_000 (fun () ->
        (* New flows arrive biased towards recently-arrived ones. *)
        let horizon = min n_flows (1 + (!captured / 5)) in
        let i = Memsim.Rng.int rng horizon in
        let pkt = Netcore.Packet.make ~flow:(mk_flow i) ~wire_len:128 () in
        Netcore.Packet.Pool.assign pool pkt;
        incr captured;
        { Gunfu.Workload.packet = Some pkt; aux = 0; flow_hint = i })
  in
  let run = Gunfu.Exec.run (Gunfu.Exec.il 16) worker program source in
  Printf.printf "processed %d packets: %.2f Mpps, %d mappings learned, %d drops\n"
    run.Gunfu.Metrics.packets (Gunfu.Metrics.mpps run) nat.Nfs.Nat.learned
    run.Gunfu.Metrics.drops;
  (match run.Gunfu.Metrics.latency with
  | Some _ -> Printf.printf "%s\n" (Fmt.str "%a" Gunfu.Metrics.pp_latency run)
  | None -> ());

  (* Show a few translated packets and export them. *)
  Printf.printf "\nsample translations (flow -> after NAT):\n";
  for i = 0 to 4 do
    let flow = mk_flow i in
    let pkt = Netcore.Packet.make ~flow ~wire_len:128 () in
    Netcore.Packet.Pool.assign pool pkt;
    let item = { Gunfu.Workload.packet = Some pkt; aux = 0; flow_hint = i } in
    let _ = Gunfu.Exec.run `Rtc worker program (Gunfu.Workload.total_items [ item ]) in
    let out = Netcore.Packet.flow_of_headers pkt in
    Printf.printf "  %s -> %s\n"
      (Fmt.str "%a" Netcore.Flow.pp flow)
      (Fmt.str "%a" Netcore.Flow.pp out);
    Netcore.Pcap.add_packet pcap ~ts_us:(i * 10) pkt
  done;
  let path = Filename.temp_file "gunfu_nat" ".pcap" in
  let records =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Netcore.Pcap.write_file pcap path;
        Netcore.Pcap.read_file path)
  in
  Printf.printf "\nwrote %d translated packets to a temporary pcap file (valid pcap: %b)\n"
    (List.length records)
    (List.length records = 5)
