(* The execution context: cycle/instruction accounting and state-class
   attribution — the bookkeeping all metrics derive from. *)

open Gunfu

let mk () = Exec_ctx.create ()

let test_compute_advances () =
  let ctx = mk () in
  Exec_ctx.compute ctx ~cycles:100 ~instrs:80;
  Alcotest.(check int) "clock" 100 ctx.Exec_ctx.clock;
  Alcotest.(check int) "instrs" 80 ctx.Exec_ctx.instrs

let test_read_charges_latency_and_class () =
  let ctx = mk () in
  let cfg = Memsim.Hierarchy.config ctx.Exec_ctx.mem in
  Exec_ctx.read ctx ~cls:Sref.Per_flow ~addr:0x50000 ~bytes:8;
  Alcotest.(check int) "cold read = DRAM latency" cfg.Memsim.Hierarchy.lat_dram
    ctx.Exec_ctx.clock;
  Alcotest.(check int) "attributed to per-flow class" cfg.Memsim.Hierarchy.lat_dram
    (Exec_ctx.state_access_cycles ctx Sref.Per_flow);
  Alcotest.(check int) "other classes untouched" 0
    (Exec_ctx.state_access_cycles ctx Sref.Match_state);
  (* Second read: L1 hit. *)
  let before = ctx.Exec_ctx.clock in
  Exec_ctx.read ctx ~cls:Sref.Per_flow ~addr:0x50000 ~bytes:8;
  Alcotest.(check int) "hot read = L1 latency" cfg.Memsim.Hierarchy.lat_l1
    (ctx.Exec_ctx.clock - before)

let test_write_counts () =
  let ctx = mk () in
  Exec_ctx.write ctx ~cls:Sref.Packet_state ~addr:0x60000 ~bytes:4;
  let c = Exec_ctx.counters ctx in
  Alcotest.(check int) "one write op" 1 c.Memsim.Memstats.writes;
  Alcotest.(check bool) "packet class charged" true
    (Exec_ctx.state_access_cycles ctx Sref.Packet_state > 0)

let test_prefetch_then_ready () =
  let ctx = mk () in
  let issued = Exec_ctx.prefetch ctx ~addr:0x70000 ~bytes:8 in
  Alcotest.(check int) "one fill" 1 issued;
  Alcotest.(check bool) "not ready yet" false (Exec_ctx.ready ctx ~addr:0x70000 ~bytes:8);
  (* Prefetch charged one cycle per issued line. *)
  Alcotest.(check int) "issue cost" 1 ctx.Exec_ctx.clock;
  (* Advance past the fill latency: ready. *)
  Exec_ctx.compute ctx ~cycles:1000 ~instrs:0;
  Alcotest.(check bool) "ready after fill" true (Exec_ctx.ready ctx ~addr:0x70000 ~bytes:8)

let test_class_index_bijective () =
  for i = 0 to Exec_ctx.n_classes - 1 do
    Alcotest.(check int) "index roundtrip" i
      (Exec_ctx.class_index (Exec_ctx.class_of_index i))
  done

let test_read_sref () =
  let ctx = mk () in
  Exec_ctx.read_sref ctx (Sref.make ~cls:Sref.Control_state ~addr:0x100 ~bytes:16);
  Alcotest.(check bool) "control class charged" true
    (Exec_ctx.state_access_cycles ctx Sref.Control_state > 0)

let test_action_execute_charges_base () =
  let ctx = mk () in
  let task = Nftask.create 0 in
  Nftask.load task ~cs:0 ~packet:None ~aux:0 ~flow_hint:(-1);
  let action =
    Action.make ~base_cycles:55 ~base_instrs:44 ~name:"t" (fun _ _ -> Event.Emit_packet)
  in
  let ev = Action.execute action ctx task in
  Alcotest.(check bool) "event returned" true (Event.equal ev Event.Emit_packet);
  Alcotest.(check int) "base cycles charged" 55 ctx.Exec_ctx.clock;
  Alcotest.(check int) "base instrs charged" 44 ctx.Exec_ctx.instrs

let suite =
  [
    Alcotest.test_case "compute advances" `Quick test_compute_advances;
    Alcotest.test_case "read charges latency+class" `Quick test_read_charges_latency_and_class;
    Alcotest.test_case "write counts" `Quick test_write_counts;
    Alcotest.test_case "prefetch then ready" `Quick test_prefetch_then_ready;
    Alcotest.test_case "class index bijective" `Quick test_class_index_bijective;
    Alcotest.test_case "read_sref" `Quick test_read_sref;
    Alcotest.test_case "action execute charges base" `Quick test_action_execute_charges_base;
  ]
