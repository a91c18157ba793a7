(* Dynamic NAT learning, the pipeline execution model, pcap export and
   replay, and NF-C printing roundtrips. *)

open Gunfu

(* ----- dynamic NAT ----- *)

let dyn_nat ?(n_flows = 256) () =
  let worker = Worker.create ~id:0 () in
  let layout = Worker.layout worker in
  let pool = Netcore.Packet.Pool.create layout ~count:64 in
  let nat = Nfs.Nat.create layout ~name:"nat" ~n_flows () in
  (* Deliberately NOT populated: every flow must be learned. *)
  (worker, pool, nat, Nfs.Nat.dynamic_program nat)

let mk_flow i =
  Netcore.Flow.make
    ~src_ip:(Int32.of_int (0x0A100000 + i))
    ~dst_ip:(Netcore.Ipv4.addr_of_string "192.0.2.1") ~src_port:(2000 + i) ~dst_port:443
    ~proto:Netcore.Ipv4.proto_udp

let send worker program pool flow hint =
  let pkt = Netcore.Packet.make ~flow ~wire_len:96 () in
  Netcore.Packet.Pool.assign pool pkt;
  let r = Helpers.run_one worker program ~flow_hint:hint pkt in
  (r, pkt)

let test_learn_then_translate () =
  let worker, pool, nat, program = dyn_nat () in
  let flow = mk_flow 1 in
  let r1, pkt1 = send worker program pool flow 1 in
  Alcotest.(check int) "first packet forwarded, not dropped" 0 r1.Metrics.drops;
  Alcotest.(check int) "one mapping learned" 1 nat.Nfs.Nat.learned;
  let translated1 = Netcore.Packet.flow_of_headers pkt1 in
  (* The second packet of the same flow must hit the learned mapping. *)
  let r2, pkt2 = send worker program pool flow 1 in
  Alcotest.(check int) "second packet forwarded" 0 r2.Metrics.drops;
  Alcotest.(check int) "no second allocation" 1 nat.Nfs.Nat.learned;
  let translated2 = Netcore.Packet.flow_of_headers pkt2 in
  Alcotest.(check bool) "stable translation" true
    (Netcore.Flow.equal translated1 translated2);
  Alcotest.(check bool) "source actually translated" false
    (Int32.equal translated1.Netcore.Flow.src_ip flow.Netcore.Flow.src_ip)

let test_learn_distinct_flows_distinct_mappings () =
  let worker, pool, nat, program = dyn_nat () in
  let t1 = snd (send worker program pool (mk_flow 1) 1) in
  let t2 = snd (send worker program pool (mk_flow 2) 2) in
  Alcotest.(check int) "two mappings" 2 nat.Nfs.Nat.learned;
  let f1 = Netcore.Packet.flow_of_headers t1 and f2 = Netcore.Packet.flow_of_headers t2 in
  Alcotest.(check bool) "distinct translated ports" true
    (f1.Netcore.Flow.src_port <> f2.Netcore.Flow.src_port)

let test_learn_pool_exhaustion () =
  let worker, pool, nat, program = dyn_nat ~n_flows:4 () in
  for i = 0 to 3 do
    let r, _ = send worker program pool (mk_flow i) i in
    Alcotest.(check int) "within pool: forwarded" 0 r.Metrics.drops
  done;
  let r, _ = send worker program pool (mk_flow 99) 99 in
  Alcotest.(check int) "pool exhausted: dropped" 1 r.Metrics.drops;
  Alcotest.(check int) "no over-allocation" 4 nat.Nfs.Nat.learned

let test_learn_under_interleaving () =
  (* Many packets of few flows, interleaved: per-flow ordering must prevent
     double allocation. *)
  let worker, pool, nat, program = dyn_nat ~n_flows:64 () in
  let rng = Memsim.Rng.create 5 in
  let source =
    Workload.limited 400 (fun () ->
        let i = Memsim.Rng.int rng 16 in
        let pkt = Netcore.Packet.make ~flow:(mk_flow i) ~wire_len:96 () in
        Netcore.Packet.Pool.assign pool pkt;
        { Workload.packet = Some pkt; aux = 0; flow_hint = i })
  in
  let r = Scheduler.run worker program ~n_tasks:16 source in
  Alcotest.(check int) "all packets processed" 400 r.Metrics.packets;
  Alcotest.(check int) "no drops" 0 r.Metrics.drops;
  Alcotest.(check int) "exactly one mapping per flow" 16 nat.Nfs.Nat.learned

let test_expiry_recycles_slots () =
  let worker, pool, nat, program = dyn_nat ~n_flows:8 () in
  (* Learn 4 flows. *)
  for i = 0 to 3 do
    ignore (send worker program pool (mk_flow i) i)
  done;
  Alcotest.(check int) "four learned" 4 nat.Nfs.Nat.learned;
  let now = (Worker.ctx worker).Exec_ctx.clock in
  (* Everything idle for "an eternity": all four expire. *)
  let expired = Nfs.Nat.expire nat ~now:(now + 1_000_000) ~idle_cycles:500_000 in
  Alcotest.(check int) "all expired" 4 expired;
  (* Expired flows miss and re-learn, reusing the freed slots. *)
  let r, _ = send worker program pool (mk_flow 0) 0 in
  Alcotest.(check int) "re-learned, not dropped" 0 r.Metrics.drops;
  Alcotest.(check int) "slot recycled (no bump alloc)" 4 nat.Nfs.Nat.next_free;
  Alcotest.(check int) "learn counter advanced" 5 nat.Nfs.Nat.learned

let test_expiry_spares_active_flows () =
  let worker, pool, nat, program = dyn_nat ~n_flows:8 () in
  ignore (send worker program pool (mk_flow 1) 1);
  let t1 = (Worker.ctx worker).Exec_ctx.clock in
  (* Flow 2 arrives much later; flow 1 stays quiet. *)
  (Worker.ctx worker).Exec_ctx.clock <- t1 + 10_000_000;
  ignore (send worker program pool (mk_flow 2) 2);
  let now = (Worker.ctx worker).Exec_ctx.clock in
  let expired = Nfs.Nat.expire nat ~now ~idle_cycles:1_000_000 in
  Alcotest.(check int) "only the idle flow expired" 1 expired;
  (* The active flow still translates without relearning. *)
  let before = nat.Nfs.Nat.learned in
  let r, _ = send worker program pool (mk_flow 2) 2 in
  Alcotest.(check int) "active flow unaffected" 0 r.Metrics.drops;
  Alcotest.(check int) "no relearn" before nat.Nfs.Nat.learned

(* ----- pipeline execution model ----- *)

let pipeline_stages () =
  let n_flows = 4096 in
  let gen =
    Traffic.Flowgen.create ~seed:8 ~n_flows ~size_model:(Traffic.Flowgen.Fixed 128) ()
  in
  let mk_stage unit_of =
    let worker = Worker.create ~id:0 () in
    let layout = Worker.layout worker in
    let nf_unit = unit_of layout in
    (worker, Nfs.Nf_unit.compile ~name:"stage" [ nf_unit ])
  in
  let s1 =
    mk_stage (fun layout ->
        let lb = Nfs.Lb.create layout ~name:"lb" ~n_flows () in
        Nfs.Lb.populate lb (Traffic.Flowgen.flows gen);
        Nfs.Lb.unit lb)
  in
  let s2 =
    mk_stage (fun layout ->
        let nat = Nfs.Nat.create layout ~name:"nat" ~n_flows () in
        Nfs.Nat.populate nat (Traffic.Flowgen.flows gen);
        Nfs.Nat.unit nat)
  in
  let s3 =
    mk_stage (fun layout ->
        let nm = Nfs.Monitor.create layout ~name:"nm" ~n_flows () in
        Nfs.Monitor.populate nm (Traffic.Flowgen.flows gen);
        Nfs.Monitor.unit nm)
  in
  (gen, [ s1; s2; s3 ])

let test_pipeline_processes_all () =
  let gen, stages = pipeline_stages () in
  let layout = Worker.layout (fst (List.hd stages)) in
  let pool = Netcore.Packet.Pool.create layout ~count:256 in
  let r = Pipeline.run stages (Workload.of_flowgen gen ~pool ~count:1000) in
  Alcotest.(check int) "all packets" 1000 r.Metrics.packets;
  Alcotest.(check int) "no drops" 0 r.Metrics.drops;
  Alcotest.(check bool) "bytes counted once" true (r.Metrics.wire_bytes = 1000 * 128)

let test_pipeline_bottleneck_semantics () =
  let gen, stages = pipeline_stages () in
  let layout = Worker.layout (fst (List.hd stages)) in
  let pool = Netcore.Packet.Pool.create layout ~count:256 in
  let r = Pipeline.run stages (Workload.of_flowgen gen ~pool ~count:1000) in
  (* Merged cycles = bottleneck stage, so throughput is per-bottleneck. *)
  Alcotest.(check bool) "positive throughput" true (Metrics.mpps r > 0.0);
  Alcotest.(check bool) "pipeline slower than sum of work" true (r.Metrics.cycles > 0)

let test_pipeline_empty_stages_rejected () =
  match Pipeline.run [] (fun () -> None) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty pipeline must be rejected"

(* The paper's comparison: consolidating the chain on one core with
   interleaving beats spreading stages across cores with RTC+queues, for
   the same total core count. *)
let test_pipeline_vs_consolidated () =
  let n_flows = 65536 in
  let packets = 10_000 in
  let gen () =
    Traffic.Flowgen.create ~seed:8 ~n_flows ~size_model:(Traffic.Flowgen.Fixed 128) ()
  in
  (* Pipeline: 3 stages = 3 cores; per-core rate = bottleneck rate. *)
  let g1 = gen () in
  let stages =
    let mk unit_of =
      let worker = Worker.create ~id:0 () in
      let layout = Worker.layout worker in
      (worker, Nfs.Nf_unit.compile ~name:"stage" [ unit_of layout ])
    in
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
  let pool1 = Netcore.Packet.Pool.create (Worker.layout (fst (List.hd stages))) ~count:256 in
  let pipe = Pipeline.run stages (Workload.of_flowgen g1 ~pool:pool1 ~count:packets) in
  (* Consolidated: the same 3-NF chain interleaved on 1 core, x3 cores. *)
  let g2 = gen () in
  let worker = Worker.create ~id:0 () in
  let layout = Worker.layout worker in
  let sfc = Nfs.Sfc.create layout ~length:3 ~packed:false ~n_flows () in
  Nfs.Sfc.populate sfc (Traffic.Flowgen.flows g2);
  let program = Nfs.Sfc.program sfc in
  let pool2 = Netcore.Packet.Pool.create layout ~count:256 in
  let consolidated =
    Scheduler.run worker program ~n_tasks:16
      (Workload.of_flowgen g2 ~pool:pool2 ~count:packets)
  in
  Alcotest.(check bool) "3 consolidated cores beat a 3-stage pipeline" true
    (3.0 *. Metrics.mpps consolidated > Metrics.mpps pipe)

(* ----- pcap ----- *)

let test_pcap_roundtrip () =
  let gen = Traffic.Flowgen.create ~seed:9 ~n_flows:16 ~size_model:(Traffic.Flowgen.Fixed 300) () in
  let pkts = Array.to_list (Traffic.Flowgen.batch gen 10) in
  let w = Netcore.Pcap.create_writer () in
  List.iteri (fun i p -> Netcore.Pcap.add_packet w ~ts_us:(i * 100) p) pkts;
  let records = Netcore.Pcap.parse (Netcore.Pcap.contents w) in
  Alcotest.(check int) "record count" 10 (List.length records);
  List.iteri
    (fun i (r : Netcore.Pcap.record) ->
      let p = List.nth pkts i in
      Alcotest.(check int) "timestamp" (i * 100) r.Netcore.Pcap.ts_us;
      Alcotest.(check int) "original length preserved" p.Netcore.Packet.wire_len
        r.Netcore.Pcap.orig_len;
      (* The captured bytes decode back to the same flow. *)
      let eth = Netcore.Ethernet.decode r.Netcore.Pcap.data ~off:0 in
      Alcotest.(check int) "ethertype" Netcore.Ethernet.ethertype_ipv4
        eth.Netcore.Ethernet.ethertype;
      let ip = Netcore.Ipv4.decode r.Netcore.Pcap.data ~off:Netcore.Ethernet.header_bytes in
      Alcotest.(check bool) "src ip survives capture" true
        (Int32.equal ip.Netcore.Ipv4.src p.Netcore.Packet.flow.Netcore.Flow.src_ip))
    records

let test_pcap_file_io () =
  let gen = Traffic.Flowgen.create ~seed:9 ~n_flows:4 () in
  let w = Netcore.Pcap.create_writer () in
  Netcore.Pcap.add_packet w ~ts_us:42 (Traffic.Flowgen.next gen);
  let path = Filename.temp_file "gunfu" ".pcap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Netcore.Pcap.write_file w path;
      let records = Netcore.Pcap.read_file path in
      Alcotest.(check int) "one record" 1 (List.length records))

let test_pcap_bad_input () =
  List.iter
    (fun s ->
      match Netcore.Pcap.parse s with
      | exception Netcore.Pcap.Bad_capture _ -> ()
      | _ -> Alcotest.fail "malformed capture accepted")
    [ ""; "short"; String.make 24 '\000' ]

(* ----- NF-C printing roundtrip ----- *)

let test_nfc_print_parse_roundtrip () =
  let src =
    "NFAction(f) { TempState.x = (Packet.a + 2) * PerFlowState.b; if (TempState.x > 10) { Emit(big); } else { Drop(); } }"
  in
  let p1 = Nfc.parse src in
  let p2 = Nfc.parse (Nfc.to_string p1) in
  Alcotest.(check bool) "AST stable under print/parse" true (p1 = p2)

let qcheck_nfc_roundtrip =
  (* Random small programs: print then reparse must be the identity. *)
  let gen_expr =
    QCheck.Gen.(
      sized @@ fix (fun self n ->
          if n <= 0 then
            oneof
              [
                map (fun v -> Nfc.Int v) (int_range 0 1000);
                map (fun f -> Nfc.Ref (Nfc.Packet, "f" ^ string_of_int f)) (int_range 0 5);
              ]
          else
            map3
              (fun op a b -> Nfc.Bin (op, a, b))
              (oneofl Nfc.[ Add; Sub; Mul; And; Eq; Lt ])
              (self (n / 2)) (self (n / 2))))
  in
  let gen_stmt =
    QCheck.Gen.(
      oneof
        [
          map2 (fun f e -> Nfc.Assign (Nfc.Temp, "t" ^ string_of_int f, e)) (int_range 0 5) gen_expr;
          map (fun e -> Nfc.If (e, [ Nfc.Emit "yes" ], [ Nfc.Drop ])) gen_expr;
          return (Nfc.Emit "done");
        ])
  in
  let gen_prog =
    QCheck.Gen.(
      map
        (fun stmts -> { Nfc.action_name = "fuzz"; body = stmts; temporaries = [] })
        (list_size (int_range 1 6) gen_stmt))
  in
  QCheck.Test.make ~name:"NF-C print/parse roundtrip" ~count:200 (QCheck.make gen_prog)
    (fun p ->
      let reparsed = Nfc.parse (Nfc.to_string p) in
      reparsed.Nfc.body = p.Nfc.body)

let suite =
  [
    Alcotest.test_case "learn then translate" `Quick test_learn_then_translate;
    Alcotest.test_case "learn distinct flows" `Quick test_learn_distinct_flows_distinct_mappings;
    Alcotest.test_case "learn pool exhaustion" `Quick test_learn_pool_exhaustion;
    Alcotest.test_case "learn under interleaving" `Quick test_learn_under_interleaving;
    Alcotest.test_case "expiry recycles slots" `Quick test_expiry_recycles_slots;
    Alcotest.test_case "expiry spares active flows" `Quick test_expiry_spares_active_flows;
    Alcotest.test_case "pipeline processes all" `Quick test_pipeline_processes_all;
    Alcotest.test_case "pipeline bottleneck" `Quick test_pipeline_bottleneck_semantics;
    Alcotest.test_case "pipeline empty rejected" `Quick test_pipeline_empty_stages_rejected;
    Alcotest.test_case "pipeline vs consolidated" `Slow test_pipeline_vs_consolidated;
    Alcotest.test_case "pcap roundtrip" `Quick test_pcap_roundtrip;
    Alcotest.test_case "pcap file io" `Quick test_pcap_file_io;
    Alcotest.test_case "pcap bad input" `Quick test_pcap_bad_input;
    Alcotest.test_case "nfc print/parse roundtrip" `Quick test_nfc_print_parse_roundtrip;
    Helpers.qcheck qcheck_nfc_roundtrip;
  ]
