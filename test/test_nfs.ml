(* Network functions: LB, firewall, monitor, UPF, AMF, SFC. *)

open Gunfu

(* ----- LB ----- *)

let lb_setup ?(n_flows = 1024) () =
  let worker = Worker.create ~id:0 () in
  let layout = Worker.layout worker in
  let gen = Traffic.Flowgen.create ~seed:3 ~n_flows ~size_model:(Traffic.Flowgen.Fixed 128) () in
  let pool = Netcore.Packet.Pool.create layout ~count:64 in
  let lb = Nfs.Lb.create layout ~name:"lb" ~n_flows () in
  Nfs.Lb.populate lb (Traffic.Flowgen.flows gen);
  (worker, gen, pool, lb, Nfs.Lb.program lb)

let test_lb_rewrites_to_backend () =
  let worker, gen, pool, lb, program = lb_setup () in
  for i = 0 to 20 do
    let flow = Traffic.Flowgen.flow gen i in
    let pkt = Netcore.Packet.make ~flow ~wire_len:128 () in
    Netcore.Packet.Pool.assign pool pkt;
    ignore (Helpers.run_one worker program pkt);
    let out = Netcore.Packet.flow_of_headers pkt in
    Alcotest.(check bool) "dst is the assigned backend" true
      (Int32.equal out.Netcore.Flow.dst_ip (Nfs.Lb.backend_of lb i))
  done

let test_lb_assignment_stable () =
  let worker, gen, pool, lb, program = lb_setup () in
  let flow = Traffic.Flowgen.flow gen 9 in
  let backend_seen =
    List.init 5 (fun _ ->
        let pkt = Netcore.Packet.make ~flow ~wire_len:64 () in
        Netcore.Packet.Pool.assign pool pkt;
        ignore (Helpers.run_one worker program pkt);
        (Netcore.Packet.flow_of_headers pkt).Netcore.Flow.dst_ip)
  in
  Alcotest.(check int) "same backend every packet" 1
    (List.length (List.sort_uniq compare backend_seen));
  ignore lb

let test_lb_spreads_backends () =
  let _, _, _, lb, _ = lb_setup ~n_flows:4096 () in
  let used = Array.make (Array.length lb.Nfs.Lb.backends) false in
  Array.iter (fun b -> used.(b) <- true) lb.Nfs.Lb.assignment;
  Alcotest.(check bool) "all backends used" true (Array.for_all (fun x -> x) used)

(* ----- firewall policy ----- *)

let flow ~src ~dport ?(proto = 17) () =
  Netcore.Flow.make ~src_ip:(Netcore.Ipv4.addr_of_string src)
    ~dst_ip:(Netcore.Ipv4.addr_of_string "192.168.0.1") ~src_port:1000 ~dst_port:dport ~proto

let test_fw_policy_first_match () =
  let policy =
    {
      Nfs.Firewall.rules =
        [
          {
            Nfs.Firewall.src_ip_mask = (Netcore.Ipv4.addr_of_string "10.0.0.0", 0xFFFFFF00l);
            dst_port_range = (0, 100);
            proto = None;
            rule_verdict = Nfs.Firewall.Deny;
          };
          {
            Nfs.Firewall.src_ip_mask = (0l, 0l);
            dst_port_range = (0, 65535);
            proto = None;
            rule_verdict = Nfs.Firewall.Accept;
          };
        ];
      default = Nfs.Firewall.Deny;
    }
  in
  let v f = Nfs.Firewall.evaluate policy f in
  Alcotest.(check bool) "denied by rule 1" true
    (v (flow ~src:"10.0.0.5" ~dport:80 ()) = Nfs.Firewall.Deny);
  Alcotest.(check bool) "port outside range accepted by rule 2" true
    (v (flow ~src:"10.0.0.5" ~dport:8080 ()) = Nfs.Firewall.Accept);
  Alcotest.(check bool) "other subnet accepted" true
    (v (flow ~src:"11.0.0.5" ~dport:80 ()) = Nfs.Firewall.Accept)

let test_fw_policy_proto_and_default () =
  let policy =
    {
      Nfs.Firewall.rules =
        [
          {
            Nfs.Firewall.src_ip_mask = (0l, 0l);
            dst_port_range = (0, 65535);
            proto = Some 6;
            rule_verdict = Nfs.Firewall.Accept;
          };
        ];
      default = Nfs.Firewall.Deny;
    }
  in
  Alcotest.(check bool) "tcp accepted" true
    (Nfs.Firewall.evaluate policy (flow ~src:"1.2.3.4" ~dport:80 ~proto:6 ())
    = Nfs.Firewall.Accept);
  Alcotest.(check bool) "udp falls to default deny" true
    (Nfs.Firewall.evaluate policy (flow ~src:"1.2.3.4" ~dport:80 ())
    = Nfs.Firewall.Deny)

let test_fw_drops_denied_flows () =
  let worker = Worker.create ~id:0 () in
  let layout = Worker.layout worker in
  let deny_all = { Nfs.Firewall.rules = []; default = Nfs.Firewall.Deny } in
  let flows = [| flow ~src:"10.1.1.1" ~dport:80 () |] in
  let pool = Netcore.Packet.Pool.create layout ~count:8 in
  let fw = Nfs.Firewall.create layout ~name:"fw" ~policy:deny_all ~n_flows:1 () in
  Nfs.Firewall.populate fw flows;
  let program = Nfs.Firewall.program fw in
  let pkt = Netcore.Packet.make ~flow:flows.(0) ~wire_len:64 () in
  Netcore.Packet.Pool.assign pool pkt;
  let r = Helpers.run_one worker program pkt in
  Alcotest.(check int) "denied flow dropped" 1 r.Metrics.drops

(* ----- monitor ----- *)

let test_monitor_counts () =
  let worker = Worker.create ~id:0 () in
  let layout = Worker.layout worker in
  let gen = Traffic.Flowgen.create ~seed:4 ~n_flows:64 ~size_model:(Traffic.Flowgen.Fixed 200) () in
  let pool = Netcore.Packet.Pool.create layout ~count:64 in
  let nm = Nfs.Monitor.create layout ~name:"nm" ~n_flows:64 () in
  Nfs.Monitor.populate nm (Traffic.Flowgen.flows gen);
  let program = Nfs.Monitor.program nm in
  let counts = Array.make 64 0 in
  let base = Workload.of_flowgen gen ~pool ~count:500 in
  let tap () =
    match base () with
    | None -> None
    | Some item ->
        counts.(item.Workload.flow_hint) <- counts.(item.Workload.flow_hint) + 1;
        Some item
  in
  let r = Scheduler.run worker program ~n_tasks:8 tap in
  Alcotest.(check int) "all packets" 500 r.Metrics.packets;
  for i = 0 to 63 do
    let pkts, bytes = Nfs.Monitor.stats nm i in
    Alcotest.(check int) (Printf.sprintf "flow %d packet count" i) counts.(i) pkts;
    Alcotest.(check int) (Printf.sprintf "flow %d byte count" i) (counts.(i) * 200) bytes
  done

(* ----- UPF ----- *)

let test_upf_encapsulates_correct_teid () =
  let worker, mgw, pool, upf, program = Helpers.upf_setup ~n_sessions:256 ~n_pdrs:8 () in
  for _ = 1 to 50 do
    let si = Traffic.Mgw.next_session mgw in
    let pkt = Option.get (Traffic.Mgw.downlink mgw si) in
    Netcore.Packet.Pool.assign pool pkt;
    let before = pkt.Netcore.Packet.wire_len in
    let r = Helpers.run_one worker program ~flow_hint:si pkt in
    Alcotest.(check int) "forwarded" 0 r.Metrics.drops;
    Alcotest.(check int) "encap overhead added" (before + Netcore.Gtpu.encap_overhead)
      pkt.Netcore.Packet.wire_len;
    let teid = Netcore.Packet.decapsulate_gtpu pkt in
    Alcotest.(check int32) "teid of the matched session"
      (Traffic.Mgw.session mgw si).Traffic.Mgw.teid teid
  done;
  Alcotest.(check bool) "encap counter advanced" true (upf.Nfs.Upf.encapsulated >= 50)

let test_upf_unknown_ue_dropped () =
  let worker, _, pool, _, program = Helpers.upf_setup ~n_sessions:16 ~n_pdrs:2 () in
  let stranger =
    Netcore.Flow.make ~src_ip:1l ~dst_ip:(Netcore.Ipv4.addr_of_string "8.8.8.8")
      ~src_port:2000 ~dst_port:5000 ~proto:17
  in
  let pkt = Netcore.Packet.make ~flow:stranger ~wire_len:128 () in
  Netcore.Packet.Pool.assign pool pkt;
  let r = Helpers.run_one worker program pkt in
  Alcotest.(check int) "unknown UE dropped" 1 r.Metrics.drops

let test_upf_out_of_range_port_misses_pdr () =
  let worker, mgw, pool, _, program = Helpers.upf_setup ~n_sessions:16 ~n_pdrs:2 () in
  (* Valid UE, but src port below every PDR range (PDRs start at 1024). *)
  let s = Traffic.Mgw.session mgw 3 in
  let f =
    Netcore.Flow.make ~src_ip:7l ~dst_ip:s.Traffic.Mgw.ue_ip ~src_port:80 ~dst_port:9999
      ~proto:17
  in
  let pkt = Netcore.Packet.make ~flow:f ~wire_len:128 () in
  Netcore.Packet.Pool.assign pool pkt;
  let r = Helpers.run_one worker program pkt in
  Alcotest.(check int) "no PDR matches -> drop" 1 r.Metrics.drops

let test_upf_tree_depth_grows () =
  let _, _, _, upf2, _ = Helpers.upf_setup ~n_sessions:16 ~n_pdrs:2 () in
  let _, _, _, upf128, _ = Helpers.upf_setup ~n_sessions:16 ~n_pdrs:128 () in
  Alcotest.(check bool) "deeper tree with more PDRs" true
    (Nfs.Upf.tree_depth upf128 > Nfs.Upf.tree_depth upf2);
  Alcotest.(check bool) "depth stays logarithmic" true (Nfs.Upf.tree_depth upf128 <= 8)

(* A UPF with no PDRs would have an empty rule forest, which the PDR
   matcher cannot walk: both constructors refuse it by name. *)
let test_upf_rejects_no_pdrs () =
  let err = Invalid_argument "Upf.create: n_pdrs must be positive" in
  let sessions = Traffic.Mgw.sessions (Traffic.Mgw.create ~n_sessions:4 ~n_pdrs:1 ()) in
  List.iter
    (fun n_pdrs ->
      Alcotest.check_raises (Printf.sprintf "create, n_pdrs %d" n_pdrs) err (fun () ->
          ignore (Nfs.Upf.create (Memsim.Layout.create ()) ~name:"upf" ~sessions ~n_pdrs ()));
      Alcotest.check_raises (Printf.sprintf "create_empty, n_pdrs %d" n_pdrs) err (fun () ->
          ignore
            (Nfs.Upf.create_empty (Memsim.Layout.create ()) ~name:"upf" ~capacity:4 ~n_pdrs ())))
    [ 0; -1 ]

let test_upf_interleaved_equals_rtc_effects () =
  let run exec =
    let worker, mgw, pool, upf, program = Helpers.upf_setup ~n_sessions:512 ~n_pdrs:4 () in
    let r = exec worker program (Workload.of_mgw_downlink mgw ~pool ~count:1000) in
    (r, upf.Nfs.Upf.encapsulated)
  in
  let r_rtc, enc_rtc = run (fun w p s -> Rtc.run w p s) in
  let r_il, enc_il = run (fun w p s -> Scheduler.run w p ~n_tasks:16 s) in
  Alcotest.(check int) "same completions" r_rtc.Metrics.packets r_il.Metrics.packets;
  Alcotest.(check int) "same encapsulations" enc_rtc enc_il

(* ----- AMF ----- *)

let test_amf_registration_fsm () =
  let worker, gen, pool, amf, program = Helpers.amf_setup ~n_ues:4 () in
  (* The generator round-robins UEs randomly; with 200 messages over 4 UEs
     each walks the 5-message registration sequence many times. *)
  let r = Rtc.run worker program (Workload.of_amf gen ~pool ~count:200) in
  Alcotest.(check int) "all messages handled" 200 r.Metrics.packets;
  Alcotest.(check int) "no protocol errors on in-order traffic" 0
    amf.Nfs.Amf.protocol_errors;
  Array.iter
    (fun regs -> Alcotest.(check bool) "each UE registered at least once" true (regs >= 1))
    amf.Nfs.Amf.registrations;
  (* Total registrations = completed RegistrationComplete messages. *)
  let total = Array.fold_left ( + ) 0 amf.Nfs.Amf.registrations in
  Alcotest.(check bool) "plausible registration count" true (total >= 4 && total <= 40)

let test_amf_out_of_order_detected () =
  let worker, _, pool, amf, program = Helpers.amf_setup ~n_ues:2 () in
  (* Deliver AuthResponse before RegistrationRequest for UE 0. *)
  let mk msg =
    let flow =
      Netcore.Flow.make ~src_ip:9l ~dst_ip:10l ~src_port:38412 ~dst_port:38412 ~proto:6
    in
    let pkt = Netcore.Packet.make ~flow ~wire_len:120 () in
    Netcore.Packet.Pool.assign pool pkt;
    { Workload.packet = Some pkt; aux = Workload.amf_msg_code msg; flow_hint = 0 }
  in
  let _ =
    Rtc.run worker program
      (Workload.total_items [ mk Traffic.Mgw.Authentication_response ])
  in
  Alcotest.(check int) "out-of-order flagged" 1 amf.Nfs.Amf.protocol_errors;
  (* The AMF resynchronises: continuing from SecurityModeComplete works. *)
  let _ =
    Rtc.run worker program (Workload.total_items [ mk Traffic.Mgw.Security_mode_complete ])
  in
  Alcotest.(check int) "resynchronised" 1 amf.Nfs.Amf.protocol_errors

let test_amf_packed_equivalent () =
  let run packed =
    let worker, gen, pool, amf, program = Helpers.amf_setup ~n_ues:128 ~packed () in
    let _ = Scheduler.run worker program ~n_tasks:8 (Workload.of_amf gen ~pool ~count:2000) in
    (Array.fold_left ( + ) 0 amf.Nfs.Amf.registrations, amf.Nfs.Amf.protocol_errors)
  in
  Alcotest.(check (pair int int)) "packed layout changes no behaviour" (run false)
    (run true)

let test_amf_context_large () =
  (* The paper: AMF per-UE state exceeds 20 cache lines. *)
  let total = List.fold_left (fun a (_, b) -> a + b) 0 Nfs.Amf.context_fields in
  Alcotest.(check bool) "UE context > 20 lines" true (total > 20 * 64)

let test_amf_packing_reduces_lines () =
  let layout = Memsim.Layout.create () in
  let u = Nfs.Amf.create layout ~name:"u" ~packed:false ~n_ues:4 () in
  let p = Nfs.Amf.create layout ~name:"p" ~packed:true ~n_ues:4 () in
  let lines amf =
    List.fold_left (fun acc m -> acc + Nfs.Amf.lines_per_message amf m) 0
      Traffic.Mgw.all_amf_msgs
  in
  Alcotest.(check bool) "packing reduces total lines per call flow" true
    (lines p < lines u)

(* ----- SFC ----- *)

let test_sfc_lengths_build_and_run () =
  List.iter
    (fun length ->
      let s = Helpers.sfc_setup ~length () in
      let r =
        Scheduler.run s.Helpers.s_worker s.Helpers.s_program ~n_tasks:8
          (Workload.of_flowgen s.Helpers.s_gen ~pool:s.Helpers.s_pool ~count:300)
      in
      Alcotest.(check int)
        (Printf.sprintf "length %d completes" length)
        300 r.Metrics.packets)
    [ 2; 3; 4; 5; 6 ]

let test_sfc_invalid_length () =
  let layout = Memsim.Layout.create () in
  List.iter
    (fun length ->
      match Nfs.Sfc.create layout ~length ~packed:false ~n_flows:8 () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "length outside 2..6 must be rejected")
    [ 1; 7 ]

let test_sfc_applies_all_nfs () =
  let s = Helpers.sfc_setup ~length:4 () in
  let flow = Traffic.Flowgen.flow s.Helpers.s_gen 11 in
  let pkt = Netcore.Packet.make ~flow ~wire_len:128 () in
  Netcore.Packet.Pool.assign s.Helpers.s_pool pkt;
  let r = Helpers.run_one s.Helpers.s_worker s.Helpers.s_program pkt in
  Alcotest.(check int) "forwarded" 0 r.Metrics.drops;
  let out = Netcore.Packet.flow_of_headers pkt in
  (* LB rewrote dst, NAT rewrote src. *)
  Alcotest.(check bool) "lb applied" true
    (Int32.equal out.Netcore.Flow.dst_ip (Nfs.Lb.backend_of s.Helpers.s_sfc.Nfs.Sfc.lb 11));
  Alcotest.(check bool) "nat applied" true
    (Int32.equal out.Netcore.Flow.src_ip s.Helpers.s_sfc.Nfs.Sfc.nat.Nfs.Nat.map_ip.(11));
  (* NM accounted the packet. *)
  let pkts, _ = Nfs.Monitor.stats (Option.get s.Helpers.s_sfc.Nfs.Sfc.nm) 11 in
  Alcotest.(check int) "nm accounted" 1 pkts

let test_sfc_packed_equivalent_behaviour () =
  let run packed =
    let s = Helpers.sfc_setup ~length:4 ~packed () in
    let r =
      Scheduler.run s.Helpers.s_worker s.Helpers.s_program ~n_tasks:8
        (Workload.of_flowgen s.Helpers.s_gen ~pool:s.Helpers.s_pool ~count:2000)
    in
    let nm = Option.get s.Helpers.s_sfc.Nfs.Sfc.nm in
    (r.Metrics.packets, r.Metrics.drops, Array.fold_left ( + ) 0 nm.Nfs.Monitor.pkt_count)
  in
  let a = run false and b = run true in
  Alcotest.(check bool) "packed == unpacked observable behaviour" true (a = b)

let test_sfc_packed_uses_fewer_lines () =
  let layout = Memsim.Layout.create () in
  let packed = Nfs.Sfc.create layout ~length:4 ~packed:true ~n_flows:16 () in
  (* All four per-flow states of one flow share one line when packed. *)
  let lines =
    [
      Structures.State_arena.addr packed.Nfs.Sfc.lb.Nfs.Lb.arena 5 / 64;
      Structures.State_arena.addr packed.Nfs.Sfc.nat.Nfs.Nat.arena 5 / 64;
      Structures.State_arena.addr (Option.get packed.Nfs.Sfc.nm).Nfs.Monitor.arena 5 / 64;
      Structures.State_arena.addr (List.hd packed.Nfs.Sfc.fws).Nfs.Firewall.arena 5 / 64;
    ]
  in
  Alcotest.(check int) "one cache line for the whole chain's per-flow state" 1
    (List.length (List.sort_uniq compare lines))

let suite =
  [
    Alcotest.test_case "lb rewrites to backend" `Quick test_lb_rewrites_to_backend;
    Alcotest.test_case "lb assignment stable" `Quick test_lb_assignment_stable;
    Alcotest.test_case "lb spreads backends" `Quick test_lb_spreads_backends;
    Alcotest.test_case "fw first-match policy" `Quick test_fw_policy_first_match;
    Alcotest.test_case "fw proto and default" `Quick test_fw_policy_proto_and_default;
    Alcotest.test_case "fw drops denied" `Quick test_fw_drops_denied_flows;
    Alcotest.test_case "monitor counts" `Quick test_monitor_counts;
    Alcotest.test_case "upf encapsulates teid" `Quick test_upf_encapsulates_correct_teid;
    Alcotest.test_case "upf unknown UE dropped" `Quick test_upf_unknown_ue_dropped;
    Alcotest.test_case "upf pdr miss dropped" `Quick test_upf_out_of_range_port_misses_pdr;
    Alcotest.test_case "upf tree depth" `Quick test_upf_tree_depth_grows;
    Alcotest.test_case "upf rejects no pdrs" `Quick test_upf_rejects_no_pdrs;
    Alcotest.test_case "upf models equivalent" `Quick test_upf_interleaved_equals_rtc_effects;
    Alcotest.test_case "amf registration fsm" `Quick test_amf_registration_fsm;
    Alcotest.test_case "amf out-of-order" `Quick test_amf_out_of_order_detected;
    Alcotest.test_case "amf packed equivalent" `Quick test_amf_packed_equivalent;
    Alcotest.test_case "amf context large" `Quick test_amf_context_large;
    Alcotest.test_case "amf packing reduces lines" `Quick test_amf_packing_reduces_lines;
    Alcotest.test_case "sfc lengths build/run" `Quick test_sfc_lengths_build_and_run;
    Alcotest.test_case "sfc invalid length" `Quick test_sfc_invalid_length;
    Alcotest.test_case "sfc applies all NFs" `Quick test_sfc_applies_all_nfs;
    Alcotest.test_case "sfc packed equivalence" `Quick test_sfc_packed_equivalent_behaviour;
    Alcotest.test_case "sfc packed line sharing" `Quick test_sfc_packed_uses_fewer_lines;
  ]
