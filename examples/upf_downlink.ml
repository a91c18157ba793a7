(* UPF downlink through the director control plane (Fig 4):

   - register module and NF specifications,
   - generate the configuration template an operator fills in,
   - deploy the UPF onto a 2-core platform,
   - push downlink traffic and exchange statistics with the runtime,
   - show that packets really leave with a GTP-U tunnel header.

     dune exec examples/upf_downlink.exe
*)

let n_sessions = 65536
let n_pdrs = 16
let packets_per_core = 80_000

let () =
  Printf.printf "UPF downlink on GuNFu: %d PFCP sessions x %d PDRs\n\n" n_sessions n_pdrs;

  (* Control plane: specification registry. *)
  let director = Gunfu.Director.create () in
  Gunfu.Director.register_module director (Lazy.force Nfs.Classifier.spec);
  Gunfu.Director.register_module director (Lazy.force Nfs.Upf.pdr_spec);
  Gunfu.Director.register_module director (Lazy.force Nfs.Upf.encap_spec);
  let nf_spec, _ =
    let layout = Memsim.Layout.create () in
    let mgw = Traffic.Mgw.create ~n_sessions:16 ~n_pdrs:2 () in
    let upf =
      Nfs.Upf.create layout ~name:"upf" ~sessions:(Traffic.Mgw.sessions mgw) ~n_pdrs:2 ()
    in
    Nfs.Nf_unit.chain ~name:"upf" [ Nfs.Upf.unit upf ]
  in
  Gunfu.Director.register_nf director nf_spec;
  let template = Gunfu.Director.config_template director "upf" in
  Printf.printf "configuration template (operator fills these in):\n";
  List.iter (fun (k, _) -> Printf.printf "  %s:\n" k) template;
  let config =
    [
      ("capacity", string_of_int n_sessions);
      ("header_type", "ipv4_5tuple");
      ("n_pdrs", string_of_int n_pdrs);
      ("upf_n3_addr", "10.200.0.1");
    ]
  in
  Gunfu.Director.validate_config template config;

  (* Data plane builder: instantiates per-core substrate state. RSS means
     each core serves its own slice of the session space. *)
  let builder _config worker ~core =
    let layout = Gunfu.Worker.layout worker in
    let mgw =
      Traffic.Mgw.create ~seed:(100 + core) ~n_sessions:(n_sessions / 2) ~n_pdrs ()
    in
    let pool = Netcore.Packet.Pool.create layout ~count:1024 in
    let upf =
      Nfs.Upf.create layout ~name:"upf" ~sessions:(Traffic.Mgw.sessions mgw) ~n_pdrs ()
    in
    Nfs.Upf.populate upf;
    ( Nfs.Upf.program upf,
      Gunfu.Workload.of_mgw_downlink mgw ~pool ~count:packets_per_core )
  in
  let deployment =
    Gunfu.Director.deploy director ~name:"upf-prod" ~cores:2 ~config ~builder ()
  in
  Printf.printf "\ndeployed 'upf-prod' on %d cores; running...\n\n" 2;
  let rtc = Gunfu.Director.run deployment `Rtc in
  let il = Gunfu.Director.run deployment (Gunfu.Exec.il 16) in
  Printf.printf "  RTC         : %6.2f Mpps  %6.2f Gbps\n" (Gunfu.Metrics.mpps rtc)
    (Gunfu.Metrics.gbps rtc);
  Printf.printf "  interleaved : %6.2f Mpps  %6.2f Gbps  (%.2fx)\n" (Gunfu.Metrics.mpps il)
    (Gunfu.Metrics.gbps il)
    (Gunfu.Metrics.mpps il /. Gunfu.Metrics.mpps rtc);

  (* Prove the data path really tunnels: run one packet through a fresh
     single-core UPF and decode the resulting GTP-U header. *)
  let worker = Gunfu.Worker.create ~id:9 () in
  let layout = Gunfu.Worker.layout worker in
  let mgw = Traffic.Mgw.create ~n_sessions:64 ~n_pdrs:4 () in
  let pool = Netcore.Packet.Pool.create layout ~count:16 in
  let upf = Nfs.Upf.create layout ~name:"upf" ~sessions:(Traffic.Mgw.sessions mgw) ~n_pdrs:4 () in
  Nfs.Upf.populate upf;
  let program = Nfs.Upf.program upf in
  let si = Traffic.Mgw.next_session mgw in
  let packet = Traffic.Mgw.downlink mgw si in
  let pkt = Option.get packet in
  Netcore.Packet.Pool.assign pool pkt;
  let item = { Gunfu.Workload.packet; aux = 0; flow_hint = si } in
  let _ = Gunfu.Exec.run `Rtc worker program (Gunfu.Workload.total_items [ item ]) in
  let outer = Netcore.Ipv4.decode pkt.Netcore.Packet.buf ~off:Netcore.Ethernet.header_bytes in
  let gtpu =
    Netcore.Gtpu.decode pkt.Netcore.Packet.buf
      ~off:(Netcore.Ethernet.header_bytes + Netcore.Ipv4.header_bytes + Netcore.L4.udp_header_bytes)
  in
  Printf.printf "\nsample downlink packet after UPF (session %d):\n" si;
  Printf.printf "  outer IPv4  %s -> %s (proto %d)\n"
    (Netcore.Ipv4.addr_to_string outer.Netcore.Ipv4.src)
    (Netcore.Ipv4.addr_to_string outer.Netcore.Ipv4.dst)
    outer.Netcore.Ipv4.proto;
  Printf.printf "  GTP-U       teid=0x%lx msg=0x%x\n" gtpu.Netcore.Gtpu.teid
    gtpu.Netcore.Gtpu.msg_type;
  let expected = (Traffic.Mgw.session mgw si).Traffic.Mgw.teid in
  assert (Int32.equal gtpu.Netcore.Gtpu.teid expected);
  Printf.printf "  teid matches session %d's PFCP state: OK\n" si
