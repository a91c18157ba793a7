(* Control plane meets data plane: an SMF establishes PFCP sessions in an
   (initially empty) UPF over the N4 wire protocol, then downlink traffic
   flows through the freshly installed sessions, and deleting a session
   stops its traffic.

     dune exec examples/pfcp_session_setup.exe
*)

let ran_ip = Netcore.Ipv4.addr_of_string "10.200.1.1"

let () =
  let capacity = 4096 in
  let n_pdrs = 8 in
  let worker = Gunfu.Worker.create ~id:0 () in
  let layout = Gunfu.Worker.layout worker in
  let upf = Nfs.Upf.create_empty layout ~name:"upf" ~capacity ~n_pdrs () in
  let smf = Nfs.Smf.create () in
  Printf.printf "empty UPF: capacity %d sessions x %d PDRs, %d installed\n\n" capacity
    n_pdrs upf.Nfs.Upf.n_active;

  (* N4: establish 1000 sessions. *)
  let n_sessions = 1000 in
  let ue i = Int32.of_int (0x64000000 lor i) in
  let first_seid = ref 0L in
  for i = 1 to n_sessions do
    match
      Nfs.Smf.establish smf upf ~ue_ip:(ue i) ~teid:(Int32.of_int (0x9000 + i)) ~ran_ip
    with
    | Ok seid -> if i = 1 then first_seid := seid
    | Error cause -> Printf.printf "session %d rejected: cause %d\n" i cause
  done;
  Printf.printf "SMF established %d sessions over PFCP (UPF active: %d)\n\n"
    (Nfs.Smf.n_established smf) upf.Nfs.Upf.n_active;

  (* Show one PFCP exchange on the wire. *)
  let request =
    Nfs.Smf.establishment_request smf ~ue_ip:(ue 2001) ~teid:0xAAAAl ~n_pdrs ~ran_ip
  in
  Printf.printf "a Session Establishment Request is %d bytes on the wire;\n"
    (String.length request);
  let response = Nfs.Upf.handle_pfcp upf request in
  (match Netcore.Pfcp.decode response with
  | { Netcore.Pfcp.payload = Netcore.Pfcp.Establishment_response r; _ } ->
      Printf.printf "UPF answered: cause=%d up_seid=%Ld\n\n" r.cause r.up_seid
  | _ -> ());

  (* Data plane: downlink packets to the installed UEs. *)
  let program = Nfs.Upf.program upf in
  let pool = Netcore.Packet.Pool.create layout ~count:512 in
  let rng = Memsim.Rng.create 5 in
  let source =
    Gunfu.Workload.limited 30_000 (fun () ->
        let i = 1 + Memsim.Rng.int rng n_sessions in
        let lo, hi = Traffic.Mgw.pdr_port_range ~n_pdrs ~pdr:(Memsim.Rng.int rng n_pdrs) in
        let flow =
          Netcore.Flow.make ~src_ip:0x08080808l ~dst_ip:(ue i)
            ~src_port:(Memsim.Rng.int_in_range rng ~lo ~hi)
            ~dst_port:(10000 + i) ~proto:Netcore.Ipv4.proto_udp
        in
        let pkt = Netcore.Packet.make ~flow ~wire_len:256 () in
        Netcore.Packet.Pool.assign pool pkt;
        { Gunfu.Workload.packet = Some pkt; aux = 0; flow_hint = i })
  in
  let run = Gunfu.Exec.run (Gunfu.Exec.il 16) worker program source in
  Printf.printf "downlink through PFCP-installed sessions: %.2f Mpps, %d drops\n"
    (Gunfu.Metrics.mpps run) run.Gunfu.Metrics.drops;

  (* Tear one session down and show its traffic dying. *)
  let cause = Nfs.Smf.delete smf upf ~up_seid:!first_seid in
  Printf.printf "\ndeleted session (up_seid=%Ld): cause=%d\n" !first_seid cause;
  let lo, _ = Traffic.Mgw.pdr_port_range ~n_pdrs ~pdr:0 in
  let flow =
    Netcore.Flow.make ~src_ip:0x08080808l ~dst_ip:(ue 1) ~src_port:lo ~dst_port:10001
      ~proto:Netcore.Ipv4.proto_udp
  in
  let pkt = Netcore.Packet.make ~flow ~wire_len:256 () in
  Netcore.Packet.Pool.assign pool pkt;
  let item = { Gunfu.Workload.packet = Some pkt; aux = 0; flow_hint = 1 } in
  let r = Gunfu.Exec.run `Rtc worker program (Gunfu.Workload.total_items [ item ]) in
  Printf.printf "packet to the deleted session: %s\n"
    (if r.Gunfu.Metrics.drops = 1 then "dropped (as it must be)" else "FORWARDED (bug!)")
