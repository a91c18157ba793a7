(* Extension features: Maglev consistent hashing, the batched-prefetch RTC
   baseline, and the UPF uplink (decapsulation) path. *)

open Gunfu

(* ----- Maglev ----- *)

open Structures

let test_maglev_full_table () =
  let m = Maglev.build ~table_size:4099 ~n_backends:7 () in
  Alcotest.(check int) "table size" 4099 (Maglev.table_size m);
  for key = 0 to 999 do
    let b = Maglev.lookup m (Int64.of_int key) in
    Alcotest.(check bool) "every slot owned" true (b >= 0 && b < 7)
  done

let test_maglev_balance () =
  let m = Maglev.build ~table_size:65537 ~n_backends:16 () in
  let shares = Maglev.shares m in
  Array.iter
    (fun s ->
      (* Maglev guarantees near-perfect balance: each backend within a few
         percent of 1/N. *)
      Alcotest.(check bool) "share within 10% of fair" true
        (abs_float (s -. (1.0 /. 16.0)) < 0.1 /. 16.0))
    shares

let test_maglev_minimal_disruption () =
  let a = Maglev.build ~table_size:65537 ~n_backends:10 () in
  let b = Maglev.build ~table_size:65537 ~n_backends:9 () in
  let d = Maglev.disruption a b in
  (* Removing 1 of 10 backends must move ~10% of slots, not ~50% like a
     modulo hash would. *)
  Alcotest.(check bool) "disruption close to 1/N" true (d < 0.2)

let test_maglev_deterministic () =
  let a = Maglev.build ~table_size:4099 ~n_backends:5 () in
  let b = Maglev.build ~table_size:4099 ~n_backends:5 () in
  Alcotest.(check (float 0.0)) "identical rebuild" 0.0 (Maglev.disruption a b)

let test_maglev_validation () =
  List.iter
    (fun f ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "invalid Maglev parameters accepted")
    [
      (fun () -> Maglev.build ~table_size:4099 ~n_backends:0 ());
      (fun () -> Maglev.build ~table_size:4100 ~n_backends:2 ());
      (fun () -> Maglev.build ~table_size:3 ~n_backends:5 ());
    ]

let qcheck_maglev_lookup_in_range =
  QCheck.Test.make ~name:"maglev lookup always names a backend" ~count:200
    QCheck.(pair (int_range 1 32) (map Int64.of_int int))
    (fun (n_backends, key) ->
      let m = Maglev.build ~table_size:4099 ~n_backends () in
      let b = Maglev.lookup m key in
      b >= 0 && b < n_backends)

(* ----- batched-prefetch RTC ----- *)

let test_batch_rtc_processes_all () =
  let s = Helpers.nat_setup () in
  let r =
    Exec.run (`Batch Batch_rtc.default_batch) s.Helpers.worker s.Helpers.program
      (Helpers.nat_source s ~count:500)
  in
  Alcotest.(check int) "all packets" 500 r.Metrics.packets;
  Alcotest.(check int) "no drops" 0 r.Metrics.drops

let test_batch_rtc_partial_batch () =
  let s = Helpers.nat_setup () in
  let r =
    Exec.run (`Batch 32) s.Helpers.worker s.Helpers.program
      (Helpers.nat_source s ~count:37)
  in
  Alcotest.(check int) "non-multiple of batch size" 37 r.Metrics.packets

let test_batch_rtc_prefetches () =
  let s = Helpers.nat_setup ~n_flows:65536 () in
  let r =
    Exec.run (`Batch Batch_rtc.default_batch) s.Helpers.worker s.Helpers.program
      (Helpers.nat_source s ~count:2000)
  in
  Alcotest.(check bool) "batch prefetching issued" true
    (r.Metrics.mem.Memsim.Memstats.prefetch_issued > 0)

let test_batch_rtc_same_effects () =
  let run exec =
    let s = Helpers.nat_setup ~seed:11 () in
    let flow = Traffic.Flowgen.flow s.Helpers.gen 3 in
    let pkt = Netcore.Packet.make ~flow ~wire_len:128 () in
    Netcore.Packet.Pool.assign s.Helpers.pool pkt;
    let item = { Workload.packet = Some pkt; aux = 0; flow_hint = 3 } in
    let _ = exec s.Helpers.worker s.Helpers.program (Workload.total_items [ item ]) in
    Netcore.Packet.flow_of_headers pkt
  in
  let a = run (fun w p s -> Rtc.run w p s) in
  let b = run (Exec.run (`Batch Batch_rtc.default_batch)) in
  Alcotest.(check bool) "same NAT rewrite as plain RTC" true (Netcore.Flow.equal a b)

(* The hierarchy the paper claims (§II-C): batched prefetching beats plain
   RTC, but the interleaved model beats both because it also covers the
   control-flow-dependent accesses. *)
let test_execution_model_ordering () =
  let measure exec =
    let s = Helpers.nat_setup ~n_flows:65536 () in
    Metrics.mpps (exec s.Helpers.worker s.Helpers.program (Helpers.nat_source s ~count:20_000))
  in
  let rtc = measure (fun w p s -> Rtc.run w p s) in
  let batch = measure (Exec.run (`Batch Batch_rtc.default_batch)) in
  let il = measure (fun w p s -> Scheduler.run w p ~n_tasks:16 s) in
  Alcotest.(check bool) "batched prefetch beats plain RTC" true (batch > rtc);
  Alcotest.(check bool) "interleaving beats batched prefetch" true (il > batch)

(* ----- UPF uplink ----- *)

let uplink_env () =
  let worker = Worker.create ~id:0 () in
  let layout = Worker.layout worker in
  let mgw = Traffic.Mgw.create ~n_sessions:256 ~n_pdrs:4 () in
  let pool = Netcore.Packet.Pool.create layout ~count:64 in
  let upf =
    Nfs.Upf.create layout ~name:"upf" ~sessions:(Traffic.Mgw.sessions mgw) ~n_pdrs:4 ()
  in
  Nfs.Upf.populate upf;
  (worker, mgw, pool, upf, Nfs.Upf.uplink_program upf)

let ran_ip = Netcore.Ipv4.addr_of_string "10.200.1.1"
let upf_ip = Netcore.Ipv4.addr_of_string "10.200.0.1"

let test_uplink_decapsulates () =
  let worker, mgw, pool, upf, program = uplink_env () in
  for _ = 1 to 30 do
    let si, pkt = Traffic.Mgw.next_uplink mgw ~ran_ip ~upf_ip in
    Netcore.Packet.Pool.assign pool pkt;
    let encap_len = pkt.Netcore.Packet.wire_len in
    let r = Helpers.run_one worker program ~flow_hint:si pkt in
    Alcotest.(check int) "forwarded" 0 r.Metrics.drops;
    Alcotest.(check int) "tunnel stripped"
      (encap_len - Netcore.Gtpu.encap_overhead)
      pkt.Netcore.Packet.wire_len;
    (* Inner packet is the UE's own flow again. *)
    let inner = Netcore.Packet.flow_of_headers pkt in
    Alcotest.(check bool) "inner source is the UE" true
      (Int32.equal inner.Netcore.Flow.src_ip (Traffic.Mgw.session mgw si).Traffic.Mgw.ue_ip)
  done;
  Alcotest.(check int) "decap counter" 30 upf.Nfs.Upf.decapsulated

let test_uplink_unknown_teid_dropped () =
  let worker, _mgw, pool, _, program = uplink_env () in
  let flow =
    Netcore.Flow.make ~src_ip:5l ~dst_ip:6l ~src_port:1000 ~dst_port:2000
      ~proto:Netcore.Ipv4.proto_udp
  in
  let pkt = Netcore.Packet.make ~flow ~wire_len:128 () in
  Netcore.Packet.encapsulate_gtpu pkt ~outer_src:ran_ip ~outer_dst:upf_ip
    ~teid:0x7FFFFFFFl;
  Netcore.Packet.Pool.assign pool pkt;
  let r = Helpers.run_one worker program pkt in
  Alcotest.(check int) "unknown TEID dropped" 1 r.Metrics.drops

let test_uplink_interleaved () =
  let worker, mgw, pool, upf, program = uplink_env () in
  let source =
    Workload.limited 500 (fun () ->
        let si, pkt = Traffic.Mgw.next_uplink mgw ~ran_ip ~upf_ip in
        Netcore.Packet.Pool.assign pool pkt;
        { Workload.packet = Some pkt; aux = 0; flow_hint = si })
  in
  let r = Scheduler.run worker program ~n_tasks:16 source in
  Alcotest.(check int) "all uplink packets" 500 r.Metrics.packets;
  Alcotest.(check int) "all decapsulated" 500 upf.Nfs.Upf.decapsulated

let suite =
  [
    Alcotest.test_case "maglev full table" `Quick test_maglev_full_table;
    Alcotest.test_case "maglev balance" `Quick test_maglev_balance;
    Alcotest.test_case "maglev minimal disruption" `Quick test_maglev_minimal_disruption;
    Alcotest.test_case "maglev deterministic" `Quick test_maglev_deterministic;
    Alcotest.test_case "maglev validation" `Quick test_maglev_validation;
    Helpers.qcheck qcheck_maglev_lookup_in_range;
    Alcotest.test_case "batch-rtc processes all" `Quick test_batch_rtc_processes_all;
    Alcotest.test_case "batch-rtc partial batch" `Quick test_batch_rtc_partial_batch;
    Alcotest.test_case "batch-rtc prefetches" `Quick test_batch_rtc_prefetches;
    Alcotest.test_case "batch-rtc same effects" `Quick test_batch_rtc_same_effects;
    Alcotest.test_case "execution model ordering" `Slow test_execution_model_ordering;
    Alcotest.test_case "uplink decapsulates" `Quick test_uplink_decapsulates;
    Alcotest.test_case "uplink unknown teid" `Quick test_uplink_unknown_teid_dropped;
    Alcotest.test_case "uplink interleaved" `Quick test_uplink_interleaved;
  ]
